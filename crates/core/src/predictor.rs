//! Sequence-oriented Predictors (paper §V).
//!
//! Predictors must anticipate each layer's sparse pattern *before* the layer
//! computes, from the block input alone, at a cost far below the computation
//! they save. The paper's two-stage design keeps them small despite sequence
//! inputs: stage one processes tokens (here: one pooled representative per
//! score block — the √s downsampling of Fig. 5), stage two consolidates the
//! per-token estimates into the sequence-level pattern.
//!
//! Training (offline, on dense calibration captures) uses the paper's two
//! robustness measures: Gaussian **noise augmentation** so fine-tuning's
//! drifting activations don't break the predictor, and a **recall-weighted
//! loss** — a false negative (an important block predicted inactive) costs
//! `pos_weight ×` more than a false positive, because dropped-but-needed
//! computation harms accuracy while extra computation only costs time.

use lx_sparse::{BlockMask, NeuronBlockSet};
use lx_tensor::gemm::{matmul, matmul_tn, Epilogue, Layout};
use lx_tensor::rng;
use lx_tensor::Tensor;

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Mean-pool each block of `block` consecutive tokens: `[B·S, d] → per-batch
/// `[S/block, d]` representatives. This is the sequence downsampling that
/// keeps predictor cost `O(s)` instead of `O(s²)`.
pub fn pool_blocks(x: &Tensor, batch: usize, seq: usize, block: usize) -> Vec<Tensor> {
    assert_eq!(x.rows(), batch * seq);
    assert_eq!(seq % block, 0, "seq must be block-aligned");
    let n = seq / block;
    let d = x.cols();
    let inv = 1.0 / block as f32;
    (0..batch)
        .map(|b| {
            let mut pooled = Tensor::zeros(&[n, d]);
            for i in 0..n {
                let dst = pooled.row_mut(i);
                for t in 0..block {
                    let src = x.row(b * seq + i * block + t);
                    for (o, &v) in dst.iter_mut().zip(src) {
                        *o += v * inv;
                    }
                }
            }
            pooled
        })
        .collect()
}

/// One calibration sample for the attention predictor of a layer:
/// the pooled block input and the per-head important-block masks.
pub struct AttnSample {
    pub pooled: Tensor,
    pub targets: Vec<BlockMask>,
}

/// Per-head low-rank attention-pattern predictor:
/// `Ŝ_h = (X̂·Ŵq_h)(X̂·Ŵk_h)ᵀ + bias_h(i−j)`, thresholded at logit 0.
///
/// The bias term carries any *known static* positional component of the
/// model's scores (e.g. ALiBi slopes): the predictor approximates the true
/// attention scores, and the static part of those scores need not be
/// learned — only the content-dependent residual does.
pub struct AttnPredictor {
    pub heads: Vec<(Tensor, Tensor)>, // (wq [d,r], wk [d,r])
    pub rank: usize,
    /// Per-head positional penalty per *token* of distance (0 = none).
    pub distance_slopes: Vec<f32>,
    /// Tokens per block (scales block-grid distance back to tokens).
    pub block_size: usize,
    /// Trainable per-head logit offset: calibrates the operating point of
    /// the threshold against the head's score scale.
    pub bias: Vec<f32>,
}

impl AttnPredictor {
    pub fn new(d_model: usize, n_heads: usize, rank: usize, seed: u64) -> Self {
        let heads = (0..n_heads)
            .map(|h| {
                let s = seed.wrapping_add(h as u64 * 7919);
                (
                    Tensor::randn(&[d_model, rank], 0.2, s),
                    Tensor::randn(&[d_model, rank], 0.2, s + 1),
                )
            })
            .collect();
        AttnPredictor {
            heads,
            rank,
            distance_slopes: vec![0.0; n_heads],
            block_size: 1,
            bias: vec![0.0; n_heads],
        }
    }

    /// Install the model's known positional score slopes.
    pub fn set_distance_slopes(&mut self, slopes: Vec<f32>, block_size: usize) {
        assert_eq!(slopes.len(), self.heads.len());
        self.distance_slopes = slopes;
        self.block_size = block_size;
    }

    /// Raw block logits for one pooled sample and one head (`n×n`).
    fn head_logits(&self, pooled: &Tensor, head: usize) -> Tensor {
        let (wq, wk) = &self.heads[head];
        let q = matmul(pooled, wq, Layout::Normal, Epilogue::None);
        let k = matmul(pooled, wk, Layout::Normal, Epilogue::None);
        let mut logits = matmul(&q, &k, Layout::Transposed, Epilogue::None);
        let slope = self.distance_slopes[head] * self.block_size as f32;
        let bias = self.bias[head];
        let n = logits.rows();
        for i in 0..n {
            for j in 0..=i {
                logits.row_mut(i)[j] += bias;
                if slope != 0.0 && j < i {
                    logits.row_mut(i)[j] -= slope * (i - j) as f32;
                }
            }
        }
        logits
    }

    /// Predict per-head block masks for a (possibly multi-sample) batch.
    /// Stage two: per-sample predictions are consolidated by union, which
    /// preserves recall across the batch.
    pub fn predict_masks(
        &self,
        x: &Tensor,
        batch: usize,
        seq: usize,
        block: usize,
    ) -> Vec<BlockMask> {
        let pooled = pool_blocks(x, batch, seq, block);
        let n = seq / block;
        let mut masks = vec![BlockMask::square(n); self.heads.len()];
        for sample in &pooled {
            for (h, mask) in masks.iter_mut().enumerate() {
                let logits = self.head_logits(sample, h);
                for i in 0..n {
                    for j in 0..=i {
                        if logits.row(i)[j] >= 0.0 {
                            mask.set(i, j, true);
                        }
                    }
                }
            }
        }
        for mask in &mut masks {
            for i in 0..n {
                mask.set(i, i, true);
            }
        }
        masks
    }

    /// One SGD pass over the samples with noise augmentation and
    /// recall-weighted BCE. Returns the mean loss.
    pub fn train_epoch(
        &mut self,
        samples: &[AttnSample],
        lr: f32,
        noise_std: f32,
        pos_weight: f32,
        seed: u64,
    ) -> f32 {
        let mut total_loss = 0.0f64;
        let mut count = 0usize;
        for (si, sample) in samples.iter().enumerate() {
            let mut noisy = sample.pooled.clone();
            if noise_std > 0.0 {
                let noise = rng::randn_vec(noisy.len(), noise_std, seed + si as u64);
                for (v, n) in noisy.as_mut_slice().iter_mut().zip(noise) {
                    *v += n;
                }
            }
            let n = noisy.rows();
            for h in 0..self.heads.len() {
                let (wq, wk) = &self.heads[h];
                let q = matmul(&noisy, wq, Layout::Normal, Epilogue::None); // [n, r]
                let k = matmul(&noisy, wk, Layout::Normal, Epilogue::None);
                let mut logits = matmul(&q, &k, Layout::Transposed, Epilogue::None); // [n, n]
                let slope = self.distance_slopes[h] * self.block_size as f32;
                let head_bias = self.bias[h];
                for i in 0..n {
                    for j in 0..=i {
                        logits.row_mut(i)[j] += head_bias;
                        if slope != 0.0 && j < i {
                            logits.row_mut(i)[j] -= slope * (i - j) as f32;
                        }
                    }
                }
                // Weighted BCE on causal blocks; dL/dlogit = w·(σ − t)/m.
                // Weights are normalised by their mean so the step size stays
                // stable regardless of `pos_weight` (only the pos/neg *ratio*
                // matters for the recall-vs-precision trade).
                let mut dlogits = Tensor::zeros(&[n, n]);
                let m = (n * (n + 1) / 2) as f32;
                let mut weight_sum = 0.0f32;
                for i in 0..n {
                    for j in 0..=i {
                        let t = if sample.targets[h].get(i, j) {
                            1.0
                        } else {
                            0.0
                        };
                        weight_sum += if t > 0.5 { pos_weight } else { 1.0 };
                    }
                }
                let mean_w = (weight_sum / m).max(1e-6);
                for i in 0..n {
                    for j in 0..=i {
                        let t = if sample.targets[h].get(i, j) {
                            1.0
                        } else {
                            0.0
                        };
                        let p = sigmoid(logits.row(i)[j]);
                        let w = (if t > 0.5 { pos_weight } else { 1.0 }) / mean_w;
                        let eps = 1e-7f32;
                        total_loss -=
                            (w * (t * (p + eps).ln() + (1.0 - t) * (1.0 - p + eps).ln())) as f64;
                        count += 1;
                        dlogits.row_mut(i)[j] = w * (p - t) / m;
                    }
                }
                // dWq = X̂ᵀ·(dL·K̂); dWk = X̂ᵀ·(dLᵀ·Q̂); dbias = Σ dL.
                let dq = matmul(&dlogits, &k, Layout::Normal, Epilogue::None); // [n, r]
                let dk = matmul_tn(&dlogits, &q); // [n, r]
                let dwq = matmul_tn(&noisy, &dq); // [d, r]
                let dwk = matmul_tn(&noisy, &dk);
                let dbias: f32 = dlogits.as_slice().iter().sum();
                let (wq, wk) = &mut self.heads[h];
                wq.axpy(-lr, &dwq);
                wk.axpy(-lr, &dwk);
                self.bias[h] -= lr * dbias;
            }
        }
        if count == 0 {
            0.0
        } else {
            (total_loss / count as f64) as f32
        }
    }

    /// Block-level recall and precision against the samples' targets
    /// (causal region only).
    pub fn evaluate(&self, samples: &[AttnSample]) -> (f32, f32) {
        let (mut tp, mut r#fn, mut fp) = (0usize, 0usize, 0usize);
        for sample in samples {
            let n = sample.pooled.rows();
            for h in 0..self.heads.len() {
                let logits = self.head_logits(&sample.pooled, h);
                for i in 0..n {
                    for j in 0..=i {
                        let pred = logits.row(i)[j] >= 0.0 || i == j;
                        let target = sample.targets[h].get(i, j);
                        match (pred, target) {
                            (true, true) => tp += 1,
                            (false, true) => r#fn += 1,
                            (true, false) => fp += 1,
                            (false, false) => {}
                        }
                    }
                }
            }
        }
        let recall = if tp + r#fn == 0 {
            1.0
        } else {
            tp as f32 / (tp + r#fn) as f32
        };
        let precision = if tp + fp == 0 {
            1.0
        } else {
            tp as f32 / (tp + fp) as f32
        };
        (recall, precision)
    }
}

/// One calibration sample for the MLP predictor of a layer.
pub struct MlpSample {
    /// Block-input rows `[rows, d]`.
    pub x: Tensor,
    /// Ground-truth *reduced* active set for this sample (stage two of the
    /// paper's design: the prediction is consolidated over the sequence
    /// before thresholding, so training targets the reduced statistic too).
    pub reduced: NeuronBlockSet,
}

/// Low-rank neuron-block importance predictor: `Ŝ = X·Ŵa`, reduced over the
/// sequence by max, thresholded at logit 0.
pub struct MlpPredictor {
    pub wa: Tensor, // [d, n_blk]
    pub block_size: usize,
    pub n_blocks: usize,
}

impl MlpPredictor {
    pub fn new(d_model: usize, d_ff: usize, block_size: usize, seed: u64) -> Self {
        assert_eq!(d_ff % block_size, 0);
        let n_blocks = d_ff / block_size;
        MlpPredictor {
            wa: Tensor::randn(&[d_model, n_blocks], 0.2, seed),
            block_size,
            n_blocks,
        }
    }

    /// Stable log-sum-exp over rows per block — the stage-two reduction.
    /// A soft max keeps training gradients flowing to every contributing
    /// row (a hard max trains only the argmax row and converges poorly).
    fn reduce_logits(&self, logits: &Tensor) -> Vec<f32> {
        let rows = logits.rows();
        let mut max = vec![f32::NEG_INFINITY; self.n_blocks];
        for r in 0..rows {
            for (blk, &v) in logits.row(r).iter().enumerate() {
                if v > max[blk] {
                    max[blk] = v;
                }
            }
        }
        let mut sum = vec![0.0f32; self.n_blocks];
        for r in 0..rows {
            for (blk, &v) in logits.row(r).iter().enumerate() {
                sum[blk] += (v - max[blk]).exp();
            }
        }
        (0..self.n_blocks)
            .map(|b| max[b] + sum[b].ln() - (rows as f32).ln())
            .collect()
    }

    /// Predict the active neuron-block set for a batch of rows (stage two:
    /// soft-max reduction over rows, then threshold at logit 0).
    pub fn predict(&self, x: &Tensor) -> NeuronBlockSet {
        let scores = matmul(x, &self.wa, Layout::Normal, Epilogue::None); // [rows, n_blk]
        let best = self.reduce_logits(&scores);
        let mut active: Vec<u32> = best
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| (v >= 0.0).then_some(i as u32))
            .collect();
        if active.is_empty() {
            let argmax = best
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i as u32)
                .unwrap_or(0);
            active.push(argmax);
        }
        NeuronBlockSet::from_indices(active, self.n_blocks, self.block_size)
    }

    /// One SGD pass (noise augmentation + recall-weighted BCE per row/block).
    pub fn train_epoch(
        &mut self,
        samples: &[MlpSample],
        lr: f32,
        noise_std: f32,
        pos_weight: f32,
        seed: u64,
    ) -> f32 {
        let mut total_loss = 0.0f64;
        let mut count = 0usize;
        for (si, sample) in samples.iter().enumerate() {
            let mut noisy = sample.x.clone();
            if noise_std > 0.0 {
                let noise = rng::randn_vec(noisy.len(), noise_std, seed + 31 * si as u64);
                for (v, n) in noisy.as_mut_slice().iter_mut().zip(noise) {
                    *v += n;
                }
            }
            let rows = noisy.rows();
            // [rows, n_blk]
            let logits = matmul(&noisy, &self.wa, Layout::Normal, Epilogue::None);
            // Stage-two reduction first: the trained statistic is the
            // soft-max-reduced logit per block, matching `predict`.
            let reduced = self.reduce_logits(&logits);
            let target: Vec<bool> = {
                let mut t = vec![false; self.n_blocks];
                for &a in &sample.reduced.active {
                    t[a as usize] = true;
                }
                t
            };
            let m = self.n_blocks as f32;
            let pos = target.iter().filter(|&&t| t).count() as f32;
            let mean_w = ((pos * pos_weight + (m - pos)) / m).max(1e-6);
            // d(reduced_blk)/d(logit_{r,blk}) = softmax over rows.
            let mut dreduced = vec![0.0f32; self.n_blocks];
            for blk in 0..self.n_blocks {
                let t = if target[blk] { 1.0 } else { 0.0 };
                let p = sigmoid(reduced[blk]);
                let w = (if t > 0.5 { pos_weight } else { 1.0 }) / mean_w;
                let eps = 1e-7f32;
                total_loss -= (w * (t * (p + eps).ln() + (1.0 - t) * (1.0 - p + eps).ln())) as f64;
                count += 1;
                dreduced[blk] = w * (p - t) / m;
            }
            let mut dlogits = Tensor::zeros(&[rows, self.n_blocks]);
            // Row-softmax weights per block (stable via the reduced value).
            for r in 0..rows {
                for blk in 0..self.n_blocks {
                    let weight = (logits.row(r)[blk] - reduced[blk]).exp() / rows as f32;
                    dlogits.row_mut(r)[blk] = dreduced[blk] * weight;
                }
            }
            let dwa = matmul_tn(&noisy, &dlogits); // [d, n_blk]
            self.wa.axpy(-lr, &dwa);
        }
        if count == 0 {
            0.0
        } else {
            (total_loss / count as f64) as f32
        }
    }

    /// Set-level recall/precision of the reduced prediction against the
    /// ground-truth reduced sets.
    pub fn evaluate(&self, samples: &[MlpSample]) -> (f32, f32) {
        let (mut tp, mut r#fn, mut fp) = (0usize, 0usize, 0usize);
        for sample in samples {
            let pred = self.predict(&sample.x);
            let pred_set: std::collections::HashSet<u32> = pred.active.iter().copied().collect();
            let target_set: std::collections::HashSet<u32> =
                sample.reduced.active.iter().copied().collect();
            for blk in 0..self.n_blocks as u32 {
                match (pred_set.contains(&blk), target_set.contains(&blk)) {
                    (true, true) => tp += 1,
                    (false, true) => r#fn += 1,
                    (true, false) => fp += 1,
                    (false, false) => {}
                }
            }
        }
        let recall = if tp + r#fn == 0 {
            1.0
        } else {
            tp as f32 / (tp + r#fn) as f32
        };
        let precision = if tp + fp == 0 {
            1.0
        } else {
            tp as f32 / (tp + fp) as f32
        };
        (recall, precision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_blocks_averages() {
        // 1 batch, 4 tokens, block 2, d 2.
        let x = Tensor::from_vec(vec![1.0, 0.0, 3.0, 0.0, 0.0, 2.0, 0.0, 4.0], &[4, 2]);
        let pooled = pool_blocks(&x, 1, 4, 2);
        assert_eq!(pooled.len(), 1);
        assert_eq!(pooled[0].shape(), &[2, 2]);
        assert_eq!(pooled[0].row(0), &[2.0, 0.0]);
        assert_eq!(pooled[0].row(1), &[0.0, 3.0]);
    }

    /// Synthetic learnable task: the target pattern depends linearly on the
    /// input, so a low-rank predictor must be able to learn it.
    fn synthetic_attn_samples(d: usize, n: usize, count: usize) -> Vec<AttnSample> {
        (0..count)
            .map(|c| {
                let pooled = Tensor::randn(&[n, d], 1.0, 100 + c as u64);
                // Target: block (i,j) active iff feature-0 of i and j agree
                // in sign (a rank-1-detectable rule).
                let mut mask = BlockMask::square(n);
                for i in 0..n {
                    for j in 0..=i {
                        let si = pooled.row(i)[0] >= 0.0;
                        let sj = pooled.row(j)[0] >= 0.0;
                        if si == sj {
                            mask.set(i, j, true);
                        }
                    }
                }
                AttnSample {
                    pooled,
                    targets: vec![mask],
                }
            })
            .collect()
    }

    #[test]
    fn attn_predictor_learns_separable_pattern() {
        let (d, n) = (8, 6);
        let samples = synthetic_attn_samples(d, n, 12);
        let mut pred = AttnPredictor::new(d, 1, 4, 1);
        let (recall_before, _) = pred.evaluate(&samples);
        let mut last = f32::MAX;
        for e in 0..300 {
            last = pred.train_epoch(&samples, 0.5, 0.0, 2.0, e);
        }
        let (recall_after, precision_after) = pred.evaluate(&samples);
        assert!(
            recall_after > 0.9,
            "recall {recall_before} -> {recall_after} (loss {last})"
        );
        assert!(precision_after > 0.6, "precision {precision_after}");
    }

    #[test]
    fn recall_weighting_trades_precision_for_recall() {
        let (d, n) = (8, 6);
        let samples = synthetic_attn_samples(d, n, 10);
        let mut balanced = AttnPredictor::new(d, 1, 2, 2);
        let mut recall_first = AttnPredictor::new(d, 1, 2, 2);
        for e in 0..120 {
            balanced.train_epoch(&samples, 0.3, 0.0, 1.0, e);
            recall_first.train_epoch(&samples, 0.3, 0.0, 8.0, e);
        }
        let (rb, _pb) = balanced.evaluate(&samples);
        let (rr, _pr) = recall_first.evaluate(&samples);
        assert!(
            rr >= rb - 1e-3,
            "recall-weighted training must not lose recall: {rr} vs {rb}"
        );
    }

    #[test]
    fn predict_masks_keeps_diagonal_and_causality() {
        let pred = AttnPredictor::new(8, 2, 4, 3);
        let x = Tensor::randn(&[2 * 8, 8], 1.0, 4);
        let masks = pred.predict_masks(&x, 2, 8, 2);
        assert_eq!(masks.len(), 2);
        for m in &masks {
            for i in 0..4 {
                assert!(m.get(i, i));
                for j in (i + 1)..4 {
                    assert!(!m.get(i, j), "causality violated");
                }
            }
        }
    }

    fn synthetic_mlp_samples(d: usize, n_blk: usize, blk: usize, count: usize) -> Vec<MlpSample> {
        (0..count)
            .map(|c| {
                let rows = 6;
                let x = Tensor::randn(&[rows, d], 1.0, 500 + c as u64);
                // Reduced ground truth: block b active iff any row's
                // feature b clears a margin (a rank-1-detectable rule that
                // does not fire on every sample).
                let mut reduced = vec![false; n_blk];
                #[allow(clippy::needless_range_loop)]
                for r in 0..rows {
                    for b in 0..n_blk {
                        reduced[b] |= x.row(r)[b] > 0.8;
                    }
                }
                MlpSample {
                    x,
                    reduced: NeuronBlockSet::from_mask(&reduced, blk),
                }
            })
            .collect()
    }

    #[test]
    fn mlp_predictor_learns_linear_rule() {
        let (d, n_blk, blk) = (8, 4, 4);
        let samples = synthetic_mlp_samples(d, n_blk, blk, 10);
        let mut pred = MlpPredictor::new(d, n_blk * blk, blk, 5);
        for e in 0..200 {
            pred.train_epoch(&samples, 0.5, 0.0, 2.0, e);
        }
        let (recall, precision) = pred.evaluate(&samples);
        assert!(recall > 0.9, "recall {recall}");
        assert!(precision > 0.6, "precision {precision}");
    }

    #[test]
    fn mlp_prediction_never_empty() {
        let pred = MlpPredictor::new(4, 16, 4, 6);
        // Strongly negative input so all logits are < 0.
        let x = Tensor::full(&[3, 4], -100.0);
        let set = pred.predict(&x);
        assert!(set.n_active() >= 1);
    }

    #[test]
    fn noise_augmentation_changes_training_but_converges() {
        let (d, n_blk, blk) = (8, 4, 4);
        let samples = synthetic_mlp_samples(d, n_blk, blk, 8);
        let mut pred = MlpPredictor::new(d, n_blk * blk, blk, 7);
        let mut last = f32::MAX;
        for e in 0..150 {
            last = pred.train_epoch(&samples, 0.3, 0.1, 2.0, e);
        }
        assert!(last < 1.0, "noisy training should still converge: {last}");
        let (recall, _) = pred.evaluate(&samples);
        assert!(recall > 0.8, "recall {recall}");
    }
}
