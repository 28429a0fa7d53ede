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
//!
//! Both predictors are laid out for whole-matrix products: the attention
//! predictor stacks its heads side by side (`Ŵq, Ŵk: [d, H·r]`), so one
//! product per sample projects every head; the MLP predictor stores `Ŵa`
//! neuron-major (`[n_blk, d]`), so each block's logits over the sequence are
//! one contiguous row for the vector log-sum-exp of stage two.

use lx_sparse::{BlockMask, NeuronBlockSet};
use lx_tensor::gemm::{matmul, matmul_tn, Epilogue, Layout};
use lx_tensor::{ops, rng, Tensor};

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// One recall-weighted binary cross-entropy term: `−w·(t·ln p + (1−t)·ln(1−p))`.
#[inline]
fn weighted_bce(p: f32, t: f32, w: f32) -> f64 {
    let eps = 1e-7f32;
    -(w * (t * (p + eps).ln() + (1.0 - t) * (1.0 - p + eps).ln())) as f64
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

/// One epoch's augmentation noise: buffer `si` holds `lens[si]` draws of
/// N(0, std²) from seed `seed(si)`. Empty when `std` is not positive, and
/// training then runs on the clean inputs. Calibration draws the same
/// buffers in place, one pool task per sample, and every layer trains on
/// them.
pub fn draw_noise(
    lens: impl IntoIterator<Item = usize>,
    std: f32,
    seed: impl Fn(usize) -> u64,
) -> Vec<Vec<f32>> {
    if std > 0.0 {
        let draws = lens.into_iter().enumerate();
        draws
            .map(|(si, len)| rng::randn_vec(len, std, seed(si)))
            .collect()
    } else {
        Vec::new()
    }
}

/// Sample `si` of a training pass plus its drawn noise (`noise` is empty or
/// holds one buffer per sample; see [`draw_noise`]).
fn with_noise(x: &Tensor, noise: &[Vec<f32>], si: usize) -> Tensor {
    let mut noisy = x.clone();
    if let Some(noise) = noise.get(si) {
        assert_eq!(noise.len(), noisy.len(), "noise shaped like sample {si}");
        for (v, n) in noisy.as_mut_slice().iter_mut().zip(noise) {
            *v += n;
        }
    }
    noisy
}

/// Columns `h·r..(h+1)·r` of a head-stacked `[rows, H·r]` matrix, contiguous.
fn head_cols(stacked: &Tensor, h: usize, r: usize) -> Tensor {
    let mut part = Tensor::scratch(&[stacked.rows(), r]);
    for i in 0..stacked.rows() {
        part.row_mut(i)
            .copy_from_slice(&stacked.row(i)[h * r..(h + 1) * r]);
    }
    part
}

/// Write `part` (`[rows, r]`) into head `h`'s columns of a stacked matrix.
fn put_head_cols(stacked: &mut Tensor, h: usize, part: &Tensor) {
    let r = part.cols();
    for i in 0..part.rows() {
        stacked.row_mut(i)[h * r..(h + 1) * r].copy_from_slice(part.row(i));
    }
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
    /// Every head's query projection side by side: head `h` is columns
    /// `h·r..(h+1)·r` of `[d, H·r]`.
    pub wq: Tensor,
    /// Key projections, stacked like `wq`.
    pub wk: Tensor,
    pub rank: usize,
    /// Per-head positional penalty per *token* of distance (0 = none).
    pub distance_slopes: Vec<f32>,
    /// Tokens per block (scales block-grid distance back to tokens).
    pub block_size: usize,
    /// Trainable per-head logit offset: calibrates the operating point of
    /// the threshold against the head's score scale.
    pub bias: Vec<f32>,
}

/// One head's forward on one pooled sample: its `[n, r]` slices of the
/// stacked projections and its raw `n×n` block logits.
struct HeadForward {
    q: Tensor,
    k: Tensor,
    logits: Tensor,
}

/// One sample's recall-weighted BCE over every head's causal blocks and its
/// gradients: what one SGD step of [`AttnPredictor::train_epoch`] applies.
pub struct AttnGrads {
    /// `[d, H·r]`, stacked like [`AttnPredictor::wq`].
    pub dwq: Tensor,
    pub dwk: Tensor,
    pub dbias: Vec<f32>,
    /// Sum of the weighted BCE terms, and how many there were.
    pub loss: f64,
    pub count: usize,
}

impl AttnPredictor {
    pub fn new(d_model: usize, n_heads: usize, rank: usize, seed: u64) -> Self {
        let mut p = Self::zeros(d_model, n_heads, rank);
        for h in 0..n_heads {
            let s = seed.wrapping_add(h as u64 * 7919);
            p.set_head(
                h,
                &Tensor::randn(&[d_model, rank], 0.2, s),
                &Tensor::randn(&[d_model, rank], 0.2, s + 1),
            );
        }
        p
    }

    /// All-zero projections and biases, no distance penalty: the shell a
    /// checkpoint load fills in.
    pub(crate) fn zeros(d_model: usize, n_heads: usize, rank: usize) -> Self {
        AttnPredictor {
            wq: Tensor::zeros(&[d_model, n_heads * rank]),
            wk: Tensor::zeros(&[d_model, n_heads * rank]),
            rank,
            distance_slopes: vec![0.0; n_heads],
            block_size: 1,
            bias: vec![0.0; n_heads],
        }
    }

    pub fn n_heads(&self) -> usize {
        self.bias.len()
    }

    /// Head `h`'s `(wq, wk)`, each `[d, r]`: the checkpoint's layout.
    pub fn head(&self, h: usize) -> (Tensor, Tensor) {
        (
            head_cols(&self.wq, h, self.rank),
            head_cols(&self.wk, h, self.rank),
        )
    }

    /// Overwrite head `h`'s `[d, r]` projections.
    pub fn set_head(&mut self, h: usize, wq: &Tensor, wk: &Tensor) {
        put_head_cols(&mut self.wq, h, wq);
        put_head_cols(&mut self.wk, h, wk);
    }

    /// Install the model's known positional score slopes.
    pub fn set_distance_slopes(&mut self, slopes: Vec<f32>, block_size: usize) {
        assert_eq!(slopes.len(), self.n_heads());
        self.distance_slopes = slopes;
        self.block_size = block_size;
    }

    /// Every head's forward on one pooled sample: `Q̂ = X̂·Ŵq` and
    /// `K̂ = X̂·Ŵk` are one product each for all heads; each head's logits
    /// are then its own `n×r·r×n` product plus bias and distance penalty.
    fn forward(&self, pooled: &Tensor) -> Vec<HeadForward> {
        let q_all = matmul(pooled, &self.wq, Layout::Normal, Epilogue::None); // [n, H·r]
        let k_all = matmul(pooled, &self.wk, Layout::Normal, Epilogue::None);
        let n = pooled.rows();
        (0..self.n_heads())
            .map(|h| {
                let q = head_cols(&q_all, h, self.rank);
                let k = head_cols(&k_all, h, self.rank);
                let mut logits = matmul(&q, &k, Layout::Transposed, Epilogue::None);
                let slope = self.distance_slopes[h] * self.block_size as f32;
                let bias = self.bias[h];
                for i in 0..n {
                    for j in 0..=i {
                        logits.row_mut(i)[j] += bias;
                        if slope != 0.0 && j < i {
                            logits.row_mut(i)[j] -= slope * (i - j) as f32;
                        }
                    }
                }
                HeadForward { q, k, logits }
            })
            .collect()
    }

    /// Raw block logits of every head for one pooled sample (`n×n` each).
    pub fn logits(&self, pooled: &Tensor) -> Vec<Tensor> {
        self.forward(pooled).into_iter().map(|h| h.logits).collect()
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
        let mut masks = vec![BlockMask::square(n); self.n_heads()];
        for sample in &pooled {
            for (mask, logits) in masks.iter_mut().zip(self.logits(sample)) {
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

    /// Recall-weighted BCE of one (already noised) pooled sample against
    /// its per-head targets, and its gradients. Per head, on causal blocks,
    /// `dL/dlogit = w·(σ − t)/m`; the weights are normalised by their mean
    /// so the step size stays stable regardless of `pos_weight` (only the
    /// pos/neg *ratio* matters for the recall-vs-precision trade). Then
    /// `dŴq = X̂ᵀ·(dL·K̂)` and `dŴk = X̂ᵀ·(dLᵀ·Q̂)` are one product each for
    /// all heads, and `dbias = Σ dL`.
    pub fn gradients(&self, x: &Tensor, targets: &[BlockMask], pos_weight: f32) -> AttnGrads {
        let n = x.rows();
        let m = (n * (n + 1) / 2) as f32;
        let width = self.n_heads() * self.rank;
        let mut dq_all = Tensor::scratch(&[n, width]);
        let mut dk_all = Tensor::scratch(&[n, width]);
        let mut dbias = Vec::with_capacity(self.n_heads());
        let mut loss = 0.0f64;
        for (h, HeadForward { q, k, logits }) in self.forward(x).into_iter().enumerate() {
            let target = |i: usize, j: usize| if targets[h].get(i, j) { 1.0 } else { 0.0 };
            let mut weight_sum = 0.0f32;
            for i in 0..n {
                for j in 0..=i {
                    weight_sum += if target(i, j) > 0.5 { pos_weight } else { 1.0 };
                }
            }
            let mean_w = (weight_sum / m).max(1e-6);
            let mut dlogits = Tensor::zeros(&[n, n]);
            for i in 0..n {
                for j in 0..=i {
                    let t = target(i, j);
                    let p = sigmoid(logits.row(i)[j]);
                    let w = (if t > 0.5 { pos_weight } else { 1.0 }) / mean_w;
                    loss += weighted_bce(p, t, w);
                    dlogits.row_mut(i)[j] = w * (p - t) / m;
                }
            }
            put_head_cols(
                &mut dq_all,
                h,
                &matmul(&dlogits, &k, Layout::Normal, Epilogue::None),
            );
            put_head_cols(&mut dk_all, h, &matmul_tn(&dlogits, &q));
            dbias.push(dlogits.sum());
        }
        AttnGrads {
            dwq: matmul_tn(x, &dq_all),
            dwk: matmul_tn(x, &dk_all),
            dbias,
            loss,
            count: self.n_heads() * n * (n + 1) / 2,
        }
    }

    /// One SGD pass over the samples with recall-weighted BCE, sample `si`
    /// shifted by `noise[si]` (noise augmentation; `noise` empty trains on
    /// the clean inputs). Returns the mean loss.
    pub fn train_epoch(
        &mut self,
        samples: &[AttnSample],
        noise: &[Vec<f32>],
        lr: f32,
        pos_weight: f32,
    ) -> f32 {
        assert!(noise.is_empty() || noise.len() == samples.len());
        let (mut total_loss, mut count) = (0.0f64, 0usize);
        for (si, sample) in samples.iter().enumerate() {
            let noisy = with_noise(&sample.pooled, noise, si);
            let g = self.gradients(&noisy, &sample.targets, pos_weight);
            self.wq.axpy(-lr, &g.dwq);
            self.wk.axpy(-lr, &g.dwk);
            for (b, db) in self.bias.iter_mut().zip(&g.dbias) {
                *b -= lr * db;
            }
            total_loss += g.loss;
            count += g.count;
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
            for (logits, target) in self.logits(&sample.pooled).iter().zip(&sample.targets) {
                for i in 0..n {
                    for j in 0..=i {
                        let pred = logits.row(i)[j] >= 0.0 || i == j;
                        match (pred, target.get(i, j)) {
                            (true, true) => tp += 1,
                            (false, true) => r#fn += 1,
                            (true, false) => fp += 1,
                            (false, false) => {}
                        }
                    }
                }
            }
        }
        recall_precision(tp, r#fn, fp)
    }
}

fn recall_precision(tp: usize, r#fn: usize, fp: usize) -> (f32, f32) {
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

/// One calibration sample for the MLP predictor of a layer.
pub struct MlpSample {
    /// Block-input rows `[rows, d]`.
    pub x: Tensor,
    /// Ground-truth *reduced* active set for this sample (stage two of the
    /// paper's design: the prediction is consolidated over the sequence
    /// before thresholding, so training targets the reduced statistic too).
    pub reduced: NeuronBlockSet,
}

/// Low-rank neuron-block importance predictor: `Ŝ = X·Ŵaᵀ`, reduced over the
/// sequence by a soft max, thresholded at logit 0.
pub struct MlpPredictor {
    /// Neuron-major `[n_blk, d]`: block `b`'s logits over a sequence are
    /// row `b` of `Ŵa·Xᵀ`.
    pub wa: Tensor,
    pub block_size: usize,
    pub n_blocks: usize,
}

impl MlpPredictor {
    pub fn new(d_model: usize, d_ff: usize, block_size: usize, seed: u64) -> Self {
        assert_eq!(d_ff % block_size, 0);
        let n_blocks = d_ff / block_size;
        MlpPredictor {
            wa: Tensor::randn(&[d_model, n_blocks], 0.2, seed).transposed_2d(),
            block_size,
            n_blocks,
        }
    }

    /// Block-major logits `Ŵa·Xᵀ` (`[n_blk, rows]`).
    fn block_logits(&self, x: &Tensor) -> Tensor {
        matmul(&self.wa, x, Layout::Transposed, Epilogue::None)
    }

    /// Stage two: every block's log-mean-exp over the rows,
    /// `ln Σ_r exp(s_rb) − ln rows`, one vector log-sum-exp per block row.
    /// A soft max keeps training gradients flowing to every contributing
    /// row (a hard max trains only the argmax row and converges poorly).
    /// With `softmax`, the same pass writes each block row's softmax there —
    /// `∂reduced_b/∂s_rb`, the stage-two gradient.
    fn reduce(&self, logits: &Tensor, softmax: Option<&mut [f32]>) -> Vec<f32> {
        let rows = logits.cols();
        let mut lse = ops::log_sum_exp_rows(logits.as_slice(), rows, softmax);
        let ln_rows = (rows as f32).ln();
        for v in &mut lse {
            *v -= ln_rows;
        }
        lse
    }

    /// The stage-two reduced logit of every neuron block for a batch of rows.
    pub fn block_scores(&self, x: &Tensor) -> Vec<f32> {
        self.reduce(&self.block_logits(x), None)
    }

    /// Predict the active neuron-block set for a batch of rows (stage two:
    /// soft-max reduction over rows, then threshold at logit 0).
    pub fn predict(&self, x: &Tensor) -> NeuronBlockSet {
        let best = self.block_scores(x);
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

    /// Recall-weighted BCE per block of the reduced prediction for one
    /// (already noised) sample against its reduced target set: the sum of
    /// the `n_blk` loss terms and `dŴa` (`[n_blk, d]`).
    pub fn gradients(&self, x: &Tensor, target: &NeuronBlockSet, pos_weight: f32) -> (Tensor, f64) {
        let rows = x.rows();
        let logits = self.block_logits(x);
        // Stage-two reduction first: the trained statistic is the
        // soft-max-reduced logit per block, matching `predict`. `dlogits`
        // starts as each block row's softmax over the rows.
        let mut dlogits = Tensor::scratch(&[self.n_blocks, rows]);
        let reduced = self.reduce(&logits, Some(dlogits.as_mut_slice()));
        let mut is_target = vec![false; self.n_blocks];
        for &a in &target.active {
            is_target[a as usize] = true;
        }
        let m = self.n_blocks as f32;
        let pos = target.active.len() as f32;
        let mean_w = ((pos * pos_weight + (m - pos)) / m).max(1e-6);
        let mut loss = 0.0f64;
        for (blk, &on) in is_target.iter().enumerate() {
            let t = if on { 1.0 } else { 0.0 };
            let p = sigmoid(reduced[blk]);
            let w = (if on { pos_weight } else { 1.0 }) / mean_w;
            loss += weighted_bce(p, t, w);
            // d(loss)/d(logit_{blk,r}) = dreduced_blk · softmax_r.
            let dreduced = w * (p - t) / m;
            for v in dlogits.row_mut(blk) {
                *v *= dreduced;
            }
        }
        let dwa = matmul(&dlogits, x, Layout::Normal, Epilogue::None);
        (dwa, loss)
    }

    /// One SGD pass (noise augmentation + recall-weighted BCE per block),
    /// sample `si` shifted by `noise[si]` (`noise` empty trains on the clean
    /// inputs). Returns the mean loss.
    pub fn train_epoch(
        &mut self,
        samples: &[MlpSample],
        noise: &[Vec<f32>],
        lr: f32,
        pos_weight: f32,
    ) -> f32 {
        assert!(noise.is_empty() || noise.len() == samples.len());
        let mut total_loss = 0.0f64;
        for (si, sample) in samples.iter().enumerate() {
            let noisy = with_noise(&sample.x, noise, si);
            let (dwa, loss) = self.gradients(&noisy, &sample.reduced, pos_weight);
            self.wa.axpy(-lr, &dwa);
            total_loss += loss;
        }
        let count = samples.len() * self.n_blocks;
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
        recall_precision(tp, r#fn, fp)
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
        for _ in 0..300 {
            last = pred.train_epoch(&samples, &[], 0.5, 2.0);
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
        for _ in 0..120 {
            balanced.train_epoch(&samples, &[], 0.3, 1.0);
            recall_first.train_epoch(&samples, &[], 0.3, 8.0);
        }
        let (rb, _pb) = balanced.evaluate(&samples);
        let (rr, _pr) = recall_first.evaluate(&samples);
        assert!(
            rr >= rb - 1e-3,
            "recall-weighted training must not lose recall: {rr} vs {rb}"
        );
    }

    #[test]
    fn stacked_heads_keep_each_heads_init_in_its_columns() {
        let (d, heads, r, seed) = (8, 3, 4, 11);
        let mut pred = AttnPredictor::new(d, heads, r, seed);
        assert_eq!(pred.wq.shape(), &[d, heads * r]);
        for h in 0..heads {
            let s = seed + h as u64 * 7919;
            let (wq, wk) = pred.head(h);
            assert_eq!(wq.as_slice(), Tensor::randn(&[d, r], 0.2, s).as_slice());
            assert_eq!(wk.as_slice(), Tensor::randn(&[d, r], 0.2, s + 1).as_slice());
        }
        let (wq, wk) = (Tensor::full(&[d, r], 1.0), Tensor::full(&[d, r], 2.0));
        pred.set_head(1, &wq, &wk);
        assert_eq!(pred.head(1).0.as_slice(), wq.as_slice());
        assert_eq!(pred.head(1).1.as_slice(), wk.as_slice());
        assert_eq!(pred.wq.row(0)[r..2 * r], [1.0; 4]);
        assert_eq!(pred.wk.row(d - 1)[r..2 * r], [2.0; 4]);
    }

    #[test]
    fn neuron_major_wa_is_the_transposed_init() {
        let pred = MlpPredictor::new(8, 16, 4, 9);
        let init = Tensor::randn(&[8, 4], 0.2, 9);
        assert_eq!(pred.wa.shape(), &[4, 8]);
        assert_eq!(pred.wa.as_slice(), init.transposed_2d().as_slice());
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
        for _ in 0..200 {
            pred.train_epoch(&samples, &[], 0.5, 2.0);
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
            let lens = samples.iter().map(|s| s.x.len());
            let noise = draw_noise(lens, 0.1, |si| e + 31 * si as u64);
            last = pred.train_epoch(&samples, &noise, 0.3, 2.0);
        }
        assert!(last < 1.0, "noisy training should still converge: {last}");
        let (recall, _) = pred.evaluate(&samples);
        assert!(recall > 0.8, "recall {recall}");
    }
}
