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
//! The exposer runs on dense calibration captures; its outputs are the
//! training targets for the [`crate::predictor`]s and the ground truth for
//! the sparsity-ratio experiments.

use lx_sparse::{BlockMask, NeuronBlockSet};
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

impl Exposer {
    pub fn new(block_size: usize, attn_prob_threshold: f32, mlp_threshold: f32) -> Self {
        Exposer {
            block_size,
            attn_prob_threshold,
            mlp_threshold,
        }
    }

    // ---------------- Attention ----------------

    /// Per-head important-block masks from dense probabilities: `probs` is
    /// head-major `[batch·h·S, S]` — a capture's whole probabilities, or the
    /// row range of `batch` of its elements. A block is active if any of
    /// those elements puts a probability ≥ threshold anywhere inside it.
    pub fn attention_head_masks(
        &self,
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
        assert_eq!(seq % self.block_size, 0, "seq must be block-aligned");
        let n = seq / self.block_size;
        let mut masks = vec![BlockMask::square(n); heads];
        for element in probs.chunks_exact(per_batch) {
            for (mask, head) in masks.iter_mut().zip(element.chunks_exact(seq * seq)) {
                for (s, row) in head.chunks_exact(seq).enumerate() {
                    let br = s / self.block_size;
                    for (j, &p) in row.iter().enumerate() {
                        if p >= self.attn_prob_threshold {
                            mask.set(br, j / self.block_size, true);
                        }
                    }
                }
            }
        }
        for m in &mut masks {
            // A token always attends to itself: keep the diagonal so every
            // row has at least one block.
            for i in 0..n {
                m.set(i, i, true);
            }
            m.intersect_causal();
        }
        masks
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

#[cfg(test)]
mod tests {
    use super::*;

    fn exposer() -> Exposer {
        Exposer::new(4, 0.1, 0.05)
    }

    #[test]
    fn head_masks_pick_up_heavy_blocks() {
        let (batch, heads, seq) = (1, 2, 8);
        let mut probs = Tensor::zeros(&[batch * heads * seq, seq]);
        // Head 0: heavy score at (row 5, col 1) -> block (1, 0).
        probs.row_mut(5)[1] = 0.9;
        // Head 1: heavy score at (row 8+7, col 6) -> block (1, 1).
        probs.row_mut(8 + 7)[6] = 0.5;
        let masks = exposer().attention_head_masks(probs.as_slice(), batch, heads, seq);
        assert!(masks[0].get(1, 0));
        assert!(!masks[1].get(1, 0));
        assert!(masks[1].get(1, 1));
        // Diagonal always kept.
        assert!(masks[0].get(0, 0) && masks[0].get(1, 1));
    }

    #[test]
    fn union_mask_is_denser_than_heads() {
        let (batch, heads, seq) = (1, 4, 16);
        let mut probs = Tensor::zeros(&[batch * heads * seq, seq]);
        // Each head activates a different column stripe.
        for h in 0..heads {
            for s in 0..seq {
                let col = (h * 3) % (s + 1);
                probs.row_mut(h * seq + s)[col] = 0.8;
            }
        }
        let masks = exposer().attention_head_masks(probs.as_slice(), batch, heads, seq);
        let union = Exposer::attention_union_mask(&masks);
        let mean_head: f32 = masks.iter().map(|m| m.count() as f32).sum::<f32>() / heads as f32;
        assert!(
            (union.count() as f32) > mean_head,
            "union {} vs mean head {mean_head}",
            union.count()
        );
    }

    /// A batch's masks are the union of its elements' masks, and each
    /// element's masks and importances read from its row range of the
    /// capture equal those of an owned copy of those rows.
    #[test]
    fn row_ranges_read_what_copies_read() {
        let (batch, heads, seq, d_ff) = (3, 2, 8, 12);
        let probs = Tensor::rand_uniform(&[batch * heads * seq, seq], 0.0, 0.2, 7);
        let acts = Tensor::rand_uniform(&[batch * seq, d_ff], 0.0, 1.0, 8);
        let e = exposer();
        let mut union = vec![BlockMask::square(seq / 4); heads];
        for b in 0..batch {
            let range = b * heads * seq * seq..(b + 1) * heads * seq * seq;
            let copy = Tensor::from_vec(
                probs.as_slice()[range.clone()].to_vec(),
                &[heads * seq, seq],
            );
            let masks = e.attention_head_masks(&probs.as_slice()[range], 1, heads, seq);
            assert_eq!(
                masks,
                e.attention_head_masks(copy.as_slice(), 1, heads, seq)
            );
            for (u, m) in union.iter_mut().zip(&masks) {
                u.union_with(m);
            }
            let rows = &acts.as_slice()[b * seq * d_ff..(b + 1) * seq * d_ff];
            let copy = Tensor::from_vec(rows.to_vec(), &[seq, d_ff]);
            let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(e.mlp_block_importance(rows, d_ff)),
                bits(e.mlp_block_importance(copy.as_slice(), d_ff))
            );
        }
        assert_eq!(
            union,
            e.attention_head_masks(probs.as_slice(), batch, heads, seq)
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
