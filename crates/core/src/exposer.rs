//! Shadowy-sparsity Exposer (paper §IV).
//!
//! Ground-truth analysis of where sparsity hides during fine-tuning:
//!
//! * **Attention**: one uniform mask that covers *all* heads' significant
//!   scores (the "shadowy" view) is nearly dense, because each head is
//!   activated by some token in the sequence. Building a *separate* block
//!   mask per head exposes far more sparsity (Fig. 9a).
//! * **MLP**: the union of ReLU activation patterns across a whole sequence
//!   is scattered and weakly sparse. Ranking neuron blocks by importance and
//!   filtering those below a threshold (a % of the peak importance) converts
//!   it into structured block sparsity (Fig. 9b).
//!
//! [`Exposer::expose`] is the one source of ground truth: it runs a dense
//! capture pass and reads, in place, what the forward already holds — the
//! attention's block probabilities over its full-causal layout and the
//! ReLU activations. Its per-layer [`LayerExposure`]s are the training
//! targets for the [`crate::predictor`]s, the plans of the oracle policy
//! and the ground truth for the sparsity-ratio experiments.

use lx_model::{StepRequest, TransformerModel};
use lx_sparse::{BlockMask, MultiHeadLayout, NeuronBlockSet};
use lx_tensor::Tensor;

/// Threshold-driven sparsity analysis over calibration captures.
#[derive(Debug, Clone)]
pub struct Exposer {
    /// Score-block edge (attention) and neuron-block size (MLP).
    pub block_size: usize,
    /// A block of attention scores is *important* when its max probability
    /// reaches this value.
    pub attn_prob_threshold: f32,
    /// An MLP neuron block is *important* when its importance reaches this
    /// fraction of the layer's peak block importance.
    pub mlp_threshold: f32,
}

/// What one layer's dense capture pass exposes.
#[derive(Debug)]
pub struct LayerExposure {
    /// Input to the block, `[B·S, d]`: what the predictors see at runtime.
    pub block_input: Tensor,
    /// Per batch element, one important-block mask per head.
    pub head_masks: Vec<Vec<BlockMask>>,
    /// Per batch element, the MLP neuron-block importances; empty unless the
    /// model is ReLU.
    pub mlp_importance: Vec<Vec<f32>>,
    /// Post-ReLU activations `[B·S, d_ff]` (ReLU models): the raw union
    /// statistics of Fig. 9 read them.
    pub mlp_activations: Option<Tensor>,
}

impl LayerExposure {
    /// The batch's per-head masks: the OR of its elements' masks.
    pub fn batch_head_masks(&self) -> Vec<BlockMask> {
        let (first, rest) = self.head_masks.split_first().expect("batch of ≥ 1");
        let mut masks = first.clone();
        for element in rest {
            for (m, e) in masks.iter_mut().zip(element) {
                m.union_with(e);
            }
        }
        masks
    }

    /// The batch's MLP block importances: the max over its elements. `None`
    /// unless the model is ReLU.
    pub fn batch_mlp_importance(&self) -> Option<Vec<f32>> {
        let (first, rest) = self.mlp_importance.split_first()?;
        let mut imp = first.clone();
        for element in rest {
            for (v, &e) in imp.iter_mut().zip(element) {
                *v = v.max(e);
            }
        }
        Some(imp)
    }
}

impl Exposer {
    pub fn new(block_size: usize, attn_prob_threshold: f32, mlp_threshold: f32) -> Self {
        Exposer {
            block_size,
            attn_prob_threshold,
            mlp_threshold,
        }
    }

    /// One dense capture pass over `ids` (`batch × seq` tokens) and, per
    /// layer, its block input, each batch element's head masks and MLP block
    /// importances, and the raw activations.
    pub fn expose(
        &self,
        model: &mut TransformerModel,
        ids: &[u32],
        batch: usize,
        seq: usize,
    ) -> Vec<LayerExposure> {
        let eff = model.effective_seq(seq);
        let heads = model.config.n_heads;
        let out = model.execute(StepRequest::capture(ids, batch, seq));
        let captures = out.captures.expect("capture mode records captures");
        captures
            .into_iter()
            .map(|cap| {
                let layout = &cap.attn_layout;
                assert_eq!(
                    layout.n_heads(),
                    heads,
                    "layout heads must equal model heads"
                );
                assert_eq!(
                    cap.attn_probs.shape(),
                    [batch, layout.total_data_len],
                    "probs must be one row of block data per element"
                );
                let head_masks = cap
                    .attn_probs
                    .as_slice()
                    .chunks_exact(layout.total_data_len)
                    .map(|probs| self.attention_head_masks(layout, probs, eff))
                    .collect();
                let mlp_importance = cap.mlp_activations.as_ref().map_or(Vec::new(), |acts| {
                    let d_ff = acts.cols();
                    acts.as_slice()
                        .chunks_exact(eff * d_ff)
                        .map(|element| self.mlp_block_importance(element, d_ff))
                        .collect()
                });
                LayerExposure {
                    block_input: cap.block_input,
                    head_masks,
                    mlp_importance,
                    mlp_activations: cap.mlp_activations,
                }
            })
            .collect()
    }

    // ---------------- Attention ----------------

    /// Per-head important-block masks of one batch element: `probs` is its
    /// block data over `layout`, a full-causal layout over `seq` positions.
    /// Every element maps to the exposer block holding it, so any
    /// `block_size` dividing `seq` works, whatever the layout's block edge.
    /// A block is active if a probability ≥ threshold lies anywhere inside
    /// it.
    pub fn attention_head_masks(
        &self,
        layout: &MultiHeadLayout,
        probs: &[f32],
        seq: usize,
    ) -> Vec<BlockMask> {
        assert_eq!(
            probs.len(),
            layout.total_data_len,
            "probs must be one element's block data"
        );
        let blk = self.block_size;
        assert_eq!(seq % blk, 0, "seq must be block-aligned");
        let n = seq / blk;
        let masks = layout.heads.iter().enumerate().map(|(h, head)| {
            let e = head.block_size;
            assert_eq!(head.n_brows * e, seq, "layout grid must match seq");
            let data = &probs[layout.head_data_range(h)];
            let mut mask = BlockMask::square(n);
            for br in 0..head.n_brows {
                for k in head.row_entries(br) {
                    let col0 = head.col_idx[k] as usize * e;
                    let block = &data[k * e * e..(k + 1) * e * e];
                    for (i, row) in block.chunks_exact(e).enumerate() {
                        let r = (br * e + i) / blk;
                        for (j, &p) in row.iter().enumerate() {
                            if p >= self.attn_prob_threshold {
                                mask.set(r, (col0 + j) / blk, true);
                            }
                        }
                    }
                }
            }
            // A token always attends to itself: keep the diagonal so every
            // row has at least one block.
            for i in 0..n {
                mask.set(i, i, true);
            }
            mask.intersect_causal();
            mask
        });
        masks.collect()
    }

    /// The "shadowy" uniform mask: union over all heads (what a single
    /// shared mask would have to cover).
    pub fn attention_union_mask(head_masks: &[BlockMask]) -> BlockMask {
        let mut union = head_masks[0].clone();
        for m in &head_masks[1..] {
            union.union_with(m);
        }
        union
    }

    /// Mean sparsity of the causal-feasible region for a set of head masks.
    /// Reported relative to the full causal lower triangle (the attention
    /// work a dense implementation must do).
    pub fn causal_relative_sparsity(mask: &BlockMask) -> f32 {
        let n = mask.rows();
        let causal_blocks = n * (n + 1) / 2;
        let mut active_causal = 0;
        for (r, c) in mask.iter_active() {
            if c <= r {
                active_causal += 1;
            }
        }
        1.0 - active_causal as f32 / causal_blocks as f32
    }

    // ---------------- MLP ----------------

    /// Per-block importance: max |activation| over all rows and neurons in
    /// the block. `acts` is post-ReLU `[rows, d_ff]` rows — a whole capture
    /// or a row range of one.
    pub fn mlp_block_importance(&self, acts: &[f32], d_ff: usize) -> Vec<f32> {
        assert_eq!(d_ff % self.block_size, 0, "d_ff must be block-aligned");
        assert!(
            d_ff > 0 && acts.len().is_multiple_of(d_ff),
            "acts must be whole rows"
        );
        let n_blk = d_ff / self.block_size;
        let mut imp = vec![0.0f32; n_blk];
        for row in acts.chunks_exact(d_ff) {
            for (imp_v, blk) in imp.iter_mut().zip(row.chunks_exact(self.block_size)) {
                for &v in blk {
                    if v.abs() > *imp_v {
                        *imp_v = v.abs();
                    }
                }
            }
        }
        imp
    }

    /// Filter blocks below `mlp_threshold × peak importance`; always keeps at
    /// least one block so downstream kernels never degenerate.
    pub fn mlp_filter(&self, importance: &[f32]) -> NeuronBlockSet {
        let peak = importance.iter().copied().fold(0.0f32, f32::max);
        let cut = peak * self.mlp_threshold;
        let mut active: Vec<u32> = importance
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| (v >= cut && v > 0.0).then_some(i as u32))
            .collect();
        if active.is_empty() {
            // Degenerate capture (all zeros): keep the single most important
            // block (ties -> block 0).
            let best = importance
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i as u32)
                .unwrap_or(0);
            active.push(best);
        }
        NeuronBlockSet::from_indices(active, importance.len(), self.block_size)
    }

    /// The raw "shadowy" sparsity of the MLP: fraction of neurons that are
    /// zero across the *entire* capture (the union over the sequence).
    pub fn mlp_union_sparsity(acts: &Tensor) -> f32 {
        let d_ff = acts.cols();
        let mut ever_active = vec![false; d_ff];
        for r in 0..acts.rows() {
            for (n, &v) in acts.row(r).iter().enumerate() {
                if v != 0.0 {
                    ever_active[n] = true;
                }
            }
        }
        1.0 - ever_active.iter().filter(|&&a| a).count() as f32 / d_ff as f32
    }

    /// Mean per-token sparsity (what inference with one token would see) —
    /// the gap between this and [`Self::mlp_union_sparsity`] *is* shadowy
    /// sparsity.
    pub fn mlp_per_token_sparsity(acts: &Tensor) -> f32 {
        if acts.rows() == 0 {
            return 0.0;
        }
        let mut total = 0.0f32;
        for r in 0..acts.rows() {
            let zeros = acts.row(r).iter().filter(|&&v| v == 0.0).count();
            total += zeros as f32 / acts.cols() as f32;
        }
        total / acts.rows() as f32
    }
}

/// The dense scan that block-data scanning replaced, kept as the test
/// oracle.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use lx_model::Captures;
    use lx_sparse::attention::block_data_to_dense;

    /// The capture pass [`Exposer::expose`] runs, its records kept raw.
    pub(crate) fn capture(
        model: &mut TransformerModel,
        ids: &[u32],
        batch: usize,
        seq: usize,
    ) -> Captures {
        let out = model.execute(StepRequest::capture(ids, batch, seq));
        out.captures.expect("capture mode records captures")
    }

    /// Block probabilities `[B, layout.total_data_len]` expanded to dense
    /// head-major `[B·h·S, S]` (zeros outside the layout).
    pub(crate) fn dense_probs(layout: &MultiHeadLayout, probs: &Tensor) -> Tensor {
        let seq = layout.heads[0].n_brows * layout.heads[0].block_size;
        let dense: Vec<f32> = probs
            .as_slice()
            .chunks_exact(layout.total_data_len)
            .flat_map(|element| {
                layout.heads.iter().enumerate().flat_map(move |(h, head)| {
                    block_data_to_dense(&element[layout.head_data_range(h)], head)
                })
            })
            .collect();
        let rows = dense.len() / seq;
        Tensor::from_vec(dense, &[rows, seq])
    }

    /// Per-head masks from dense head-major `[batch·h·S, S]` probabilities:
    /// a block is active if any of the `batch` elements puts a probability
    /// ≥ threshold anywhere inside it.
    pub(crate) fn dense_head_masks(
        e: &Exposer,
        probs: &[f32],
        batch: usize,
        heads: usize,
        seq: usize,
    ) -> Vec<BlockMask> {
        let per_batch = heads * seq * seq;
        assert_eq!(
            probs.len(),
            batch * per_batch,
            "probs must be [batch·h·S, S]"
        );
        assert_eq!(seq % e.block_size, 0, "seq must be block-aligned");
        let n = seq / e.block_size;
        let mut masks = vec![BlockMask::square(n); heads];
        for element in probs.chunks_exact(per_batch) {
            for (mask, head) in masks.iter_mut().zip(element.chunks_exact(seq * seq)) {
                for (s, row) in head.chunks_exact(seq).enumerate() {
                    for (j, &p) in row.iter().enumerate() {
                        if p >= e.attn_prob_threshold {
                            mask.set(s / e.block_size, j / e.block_size, true);
                        }
                    }
                }
            }
        }
        for m in &mut masks {
            for i in 0..n {
                m.set(i, i, true);
            }
            m.intersect_causal();
        }
        masks
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{dense_head_masks, dense_probs};
    use super::*;
    use lx_sparse::attention::dense_to_block_data;
    use lx_sparse::{BlockCsr, PatternSpec};
    use std::sync::Arc;

    fn exposer() -> Exposer {
        Exposer::new(4, 0.1, 0.05)
    }

    /// The full-causal layout over `seq` at block edge `edge`, `heads` alike.
    fn causal(heads: usize, seq: usize, edge: usize) -> MultiHeadLayout {
        let csr = Arc::new(BlockCsr::from_mask(
            &PatternSpec::Causal.mask(seq / edge),
            edge,
        ));
        MultiHeadLayout::combine(vec![csr; heads])
    }

    /// Random probabilities `[B, total_data_len]` over `layout` the way a
    /// dense forward leaves them: values in `[0, 0.2)`, zeros past the
    /// diagonal.
    fn causal_block_data(layout: &MultiHeadLayout, batch: usize, seed: u64) -> Tensor {
        let mut data = Tensor::rand_uniform(&[batch, layout.total_data_len], 0.0, 0.2, seed);
        for element in data.as_mut_slice().chunks_exact_mut(layout.total_data_len) {
            for (h, head) in layout.heads.iter().enumerate() {
                let e = head.block_size;
                let head_data = &mut element[layout.head_data_range(h)];
                for br in 0..head.n_brows {
                    for k in head.row_entries(br) {
                        let bc = head.col_idx[k] as usize;
                        for i in 0..e {
                            for j in 0..e {
                                if bc * e + j > br * e + i {
                                    head_data[k * e * e + i * e + j] = 0.0;
                                }
                            }
                        }
                    }
                }
            }
        }
        data
    }

    /// Dense head-major `[h·S, S]` probabilities of one element gathered
    /// into its block data over `layout`.
    fn gather(layout: &MultiHeadLayout, dense: &Tensor) -> Vec<f32> {
        let seq = dense.cols();
        let heads = dense.as_slice().chunks_exact(seq * seq);
        heads
            .zip(&layout.heads)
            .flat_map(|(head, csr)| dense_to_block_data(head, csr))
            .collect()
    }

    /// Block-data masks equal the dense scan for capture edges 1, 4 and 16,
    /// exposer blocks smaller than, equal to and larger than the edge,
    /// thresholds 0, 0.05 and above 1, batch 1 and 2: per element, and as
    /// the OR over the batch.
    #[test]
    fn block_data_masks_match_the_dense_scan() {
        let heads = 3;
        let grids = [(32, 16, [4, 16, 32]), (16, 4, [2, 4, 8]), (8, 1, [1, 2, 4])];
        for (seq, edge, blocks) in grids {
            let layout = causal(heads, seq, edge);
            for batch in [1, 2] {
                let data = causal_block_data(&layout, batch, (seq + batch) as u64);
                let dense = dense_probs(&layout, &data);
                for blk in blocks {
                    for threshold in [0.0, 0.05, 1.5] {
                        let e = Exposer::new(blk, threshold, 0.05);
                        let cell =
                            format!("S={seq} edge={edge} block={blk} θ={threshold} B={batch}");
                        let per_element: Vec<Vec<BlockMask>> = data
                            .as_slice()
                            .chunks_exact(layout.total_data_len)
                            .map(|probs| e.attention_head_masks(&layout, probs, seq))
                            .collect();
                        let rows = dense.as_slice().chunks_exact(heads * seq * seq);
                        for (masks, element) in per_element.iter().zip(rows) {
                            assert_eq!(
                                masks,
                                &dense_head_masks(&e, element, 1, heads, seq),
                                "{cell}"
                            );
                        }
                        let exposure = LayerExposure {
                            block_input: Tensor::zeros(&[0, 1]),
                            head_masks: per_element,
                            mlp_importance: Vec::new(),
                            mlp_activations: None,
                        };
                        assert_eq!(
                            exposure.batch_head_masks(),
                            dense_head_masks(&e, dense.as_slice(), batch, heads, seq),
                            "{cell}: batch OR"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn head_masks_pick_up_heavy_blocks() {
        let (heads, seq) = (2, 8);
        let mut probs = Tensor::zeros(&[heads * seq, seq]);
        // Head 0: heavy score at (row 5, col 1) -> block (1, 0).
        probs.row_mut(5)[1] = 0.9;
        // Head 1: heavy score at (row 8+7, col 6) -> block (1, 1).
        probs.row_mut(8 + 7)[6] = 0.5;
        let layout = causal(heads, seq, 2);
        let masks = exposer().attention_head_masks(&layout, &gather(&layout, &probs), seq);
        assert!(masks[0].get(1, 0));
        assert!(!masks[1].get(1, 0));
        assert!(masks[1].get(1, 1));
        // Diagonal always kept.
        assert!(masks[0].get(0, 0) && masks[0].get(1, 1));
    }

    #[test]
    fn union_mask_is_denser_than_heads() {
        let (heads, seq) = (4, 16);
        let mut probs = Tensor::zeros(&[heads * seq, seq]);
        // Each head activates a different column stripe.
        for h in 0..heads {
            for s in 0..seq {
                let col = (h * 3) % (s + 1);
                probs.row_mut(h * seq + s)[col] = 0.8;
            }
        }
        let layout = causal(heads, seq, 16);
        let masks = exposer().attention_head_masks(&layout, &gather(&layout, &probs), seq);
        let union = Exposer::attention_union_mask(&masks);
        let mean_head: f32 = masks.iter().map(|m| m.count() as f32).sum::<f32>() / heads as f32;
        assert!(
            (union.count() as f32) > mean_head,
            "union {} vs mean head {mean_head}",
            union.count()
        );
    }

    /// Each element's masks and importances read from its range of the
    /// capture equal those of an owned copy of that range, and the batch's
    /// OR and max equal one scan over the whole batch.
    #[test]
    fn row_ranges_read_what_copies_read() {
        let (batch, heads, seq, d_ff) = (3, 2, 8, 12);
        let layout = causal(heads, seq, 4);
        let probs = causal_block_data(&layout, batch, 7);
        let acts = Tensor::rand_uniform(&[batch * seq, d_ff], 0.0, 1.0, 8);
        let e = exposer();
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        let mut head_masks = Vec::new();
        let mut mlp_importance = Vec::new();
        for b in 0..batch {
            let total = layout.total_data_len;
            let range = &probs.as_slice()[b * total..(b + 1) * total];
            let copy = range.to_vec();
            let masks = e.attention_head_masks(&layout, range, seq);
            assert_eq!(masks, e.attention_head_masks(&layout, &copy, seq));
            head_masks.push(masks);
            let rows = &acts.as_slice()[b * seq * d_ff..(b + 1) * seq * d_ff];
            let copy = Tensor::from_vec(rows.to_vec(), &[seq, d_ff]);
            let imp = e.mlp_block_importance(rows, d_ff);
            assert_eq!(
                bits(imp.clone()),
                bits(e.mlp_block_importance(copy.as_slice(), d_ff))
            );
            mlp_importance.push(imp);
        }
        let exposure = LayerExposure {
            block_input: Tensor::zeros(&[0, 1]),
            head_masks,
            mlp_importance,
            mlp_activations: None,
        };
        let dense = dense_probs(&layout, &probs);
        assert_eq!(
            exposure.batch_head_masks(),
            dense_head_masks(&e, dense.as_slice(), batch, heads, seq)
        );
        assert_eq!(
            bits(exposure.batch_mlp_importance().unwrap()),
            bits(e.mlp_block_importance(acts.as_slice(), d_ff))
        );
    }

    #[test]
    fn causal_relative_sparsity_of_diagonal() {
        let mut m = BlockMask::square(4);
        for i in 0..4 {
            m.set(i, i, true);
        }
        // 4 active of 10 causal blocks -> sparsity 0.6.
        assert!((Exposer::causal_relative_sparsity(&m) - 0.6).abs() < 1e-6);
    }

    #[test]
    fn mlp_importance_and_filter() {
        let e = exposer();
        // 3 blocks of 4 neurons: block 0 strong, block 1 weak, block 2 zero.
        let mut acts = Tensor::zeros(&[2, 12]);
        acts.row_mut(0)[1] = 10.0;
        acts.row_mut(1)[5] = 0.01;
        let imp = e.mlp_block_importance(acts.as_slice(), 12);
        assert_eq!(imp, vec![10.0, 0.01, 0.0]);
        let set = e.mlp_filter(&imp);
        // Threshold 5% of peak = 0.5: only block 0 survives.
        assert_eq!(set.active, vec![0]);
    }

    #[test]
    fn mlp_filter_keeps_at_least_one_block() {
        let e = exposer();
        let set = e.mlp_filter(&[0.0, 0.0, 0.0]);
        assert_eq!(set.n_active(), 1);
    }

    #[test]
    fn shadowy_gap_between_token_and_union_sparsity() {
        // Two tokens, each 50% sparse but on complementary neurons: per-token
        // sparsity 0.5, union sparsity 0 — the textbook shadowy effect.
        let mut acts = Tensor::zeros(&[2, 8]);
        for n in 0..4 {
            acts.row_mut(0)[n] = 1.0;
            acts.row_mut(1)[n + 4] = 1.0;
        }
        assert!((Exposer::mlp_per_token_sparsity(&acts) - 0.5).abs() < 1e-6);
        assert_eq!(Exposer::mlp_union_sparsity(&acts), 0.0);
    }

    #[test]
    fn lower_threshold_keeps_more_blocks() {
        let imp = vec![1.0, 0.04, 0.02, 0.009];
        let strict = Exposer::new(4, 0.1, 0.05).mlp_filter(&imp);
        let loose = Exposer::new(4, 0.1, 0.01).mlp_filter(&imp);
        assert!(loose.n_active() > strict.n_active());
        assert_eq!(strict.active, vec![0]);
        assert_eq!(loose.active, vec![0, 1, 2]);
    }
}
