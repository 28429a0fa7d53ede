//! Multi-head attention over a per-head [`MultiHeadLayout`]: the paper's
//! Dynamic-aware Operator is the only implementation.
//!
//! Scores are computed only on active blocks (SDD), turned into probabilities
//! over the sparse rows, and contracted with V (DSD); the backward pass reuses
//! the cached layout so inactive blocks never contribute gradients — the
//! paper's §II-D invariant. Dense causal attention is the same path over the
//! full-causal layout, so the masked upper half is never computed. The fused
//! row kernels apply scale, ALiBi bias and the causal limit, and nothing past
//! the diagonal is ever exponentiated. A calibration capture takes a dense
//! forward's block probabilities together with their full-causal layout;
//! they are never expanded to a dense `[B·h·S, S]` tensor.

use crate::linear::Linear;
use crate::param::Param;
use lx_sparse::attention::{dsd, dsd_tn, probs_backward, scores_to_probs, sdd_nt, CausalFill};
use lx_sparse::{BlockCsr, MultiHeadLayout, PatternSpec};
use lx_tensor::Tensor;
use std::sync::Arc;

#[derive(Debug)]
pub struct MultiHeadAttention {
    pub wq: Linear,
    pub wk: Linear,
    pub wv: Linear,
    pub wo: Linear,
    pub n_heads: usize,
    pub head_dim: usize,
    /// Optional ALiBi slopes (one per head): `score[i,j] -= slope·(i−j)`.
    /// An additive positional bias, so the backward pass is unchanged.
    pub alibi_slopes: Option<Vec<f32>>,
    /// The full-causal layout dense forwards run over, with the `seq` it was
    /// built for; rebuilt only when `seq` changes.
    causal: Option<(usize, Arc<MultiHeadLayout>)>,
    cache: Option<AttnCache>,
}

/// Standard ALiBi slope schedule: head `h` of `n` gets `2^(−8(h+1)/n)`.
pub fn alibi_slopes(n_heads: usize) -> Vec<f32> {
    (0..n_heads)
        .map(|h| 2f32.powf(-8.0 * (h + 1) as f32 / n_heads as f32))
        .collect()
}

/// Block edge of the full-causal layout over `seq` positions: the largest
/// power of two ≤ 16 that divides `seq`. Sixteen rows are what the grouped
/// kernels' block tiles are built for; smaller edges multiply the tasks.
fn causal_block(seq: usize) -> usize {
    (seq & seq.wrapping_neg()).clamp(1, 16)
}

#[derive(Debug)]
struct AttnCache {
    batch: usize,
    seq: usize,
    /// The input of the q/k/v projections.
    x: Tensor,
    /// Head-major `[B·h·S, dh]` projections.
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// The layout the forward ran over (the full-causal one when dense).
    layout: Arc<MultiHeadLayout>,
    /// Block probabilities: per batch item, `layout.total_data_len` floats.
    probs: Tensor,
}

impl MultiHeadAttention {
    pub fn new(name: &str, d_model: usize, n_heads: usize, seed: u64) -> Self {
        assert_eq!(d_model % n_heads, 0);
        MultiHeadAttention {
            wq: Linear::new(&format!("{name}.wq"), d_model, d_model, true, seed),
            wk: Linear::new(&format!("{name}.wk"), d_model, d_model, true, seed + 1),
            wv: Linear::new(&format!("{name}.wv"), d_model, d_model, true, seed + 2),
            wo: Linear::new(&format!("{name}.wo"), d_model, d_model, true, seed + 3),
            n_heads,
            head_dim: d_model / n_heads,
            alibi_slopes: None,
            causal: None,
            cache: None,
        }
    }

    /// Enable ALiBi positional bias with the standard slope schedule.
    pub fn enable_alibi(&mut self) {
        self.alibi_slopes = Some(alibi_slopes(self.n_heads));
    }

    /// The full-causal layout over `seq`, every head alike, at the block
    /// edge [`causal_block`] derives from `seq`.
    fn causal_layout(&mut self, seq: usize) -> Arc<MultiHeadLayout> {
        match &self.causal {
            Some((s, layout)) if *s == seq => layout.clone(),
            _ => {
                let block = causal_block(seq);
                let csr = Arc::new(BlockCsr::from_mask(
                    &PatternSpec::Causal.mask(seq / block),
                    block,
                ));
                let layout = Arc::new(MultiHeadLayout::combine(vec![csr; self.n_heads]));
                self.causal = Some((seq, layout.clone()));
                layout
            }
        }
    }

    /// Forward. `layout = None` runs dense causal attention: the same block
    /// operators over the full-causal layout. `Some` runs the per-head
    /// block-sparse path (requires `seq` divisible by the block).
    pub fn forward(
        &mut self,
        x: &Tensor,
        batch: usize,
        seq: usize,
        layout: Option<&Arc<MultiHeadLayout>>,
    ) -> Tensor {
        let d = self.n_heads * self.head_dim;
        assert_eq!(x.rows(), batch * seq, "attention input rows");
        assert_eq!(x.cols(), d, "attention input width");
        let layout = match layout {
            Some(layout) => layout.clone(),
            None => self.causal_layout(seq),
        };
        assert_eq!(layout.n_heads(), self.n_heads, "layout heads");
        // One input, three projections: the cache keeps `x` once for all
        // three backward passes.
        let q = split_heads(&self.wq.project(x), batch, seq, self.n_heads, self.head_dim);
        let k = split_heads(&self.wk.project(x), batch, seq, self.n_heads, self.head_dim);
        let v = split_heads(&self.wv.project(x), batch, seq, self.n_heads, self.head_dim);
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        // One launch per operator covers every head of the layer: the stacked
        // layout addresses the head-major projections and the shared
        // block-data buffer directly.
        let stacked = stacked_layout(&layout, seq);
        let (total, span) = (layout.total_data_len, self.n_heads * seq);
        // Every active block is overwritten by the SDD, every context row by
        // the DSD.
        let mut probs = Tensor::scratch(&[batch, total]);
        let mut ctx = Tensor::scratch(&[batch * span, self.head_dim]);
        for b in 0..batch {
            let qs = rows(&q, b * span, span, self.head_dim);
            let ks = rows(&k, b * span, span, self.head_dim);
            let vs = rows(&v, b * span, span, self.head_dim);
            let p = &mut probs.as_mut_slice()[b * total..(b + 1) * total];
            // Raw products: scale, bias and the causal limit belong to the
            // fused pass.
            sdd_nt(
                qs,
                ks,
                span,
                self.head_dim,
                1.0,
                stacked,
                CausalFill::None,
                p,
            );
            scores_to_probs(p, stacked, scale, self.alibi_slopes.as_deref());
            let c = rows_mut(&mut ctx, b * span, span, self.head_dim);
            dsd(p, vs, span, self.head_dim, stacked, c);
        }
        let merged = merge_heads(&ctx, batch, seq, self.n_heads, self.head_dim);
        let y = self.wo.forward(&merged);
        self.cache = Some(AttnCache {
            batch,
            seq,
            x: x.clone(),
            q,
            k,
            v,
            layout,
            probs,
        });
        y
    }

    /// Backward; returns `dx`.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("attention backward without forward");
        let (batch, seq, dh, heads) = (cache.batch, cache.seq, self.head_dim, self.n_heads);
        let scale = 1.0 / (dh as f32).sqrt();
        let dmerged = self.wo.backward(dy);
        let dctx = split_heads(&dmerged, batch, seq, heads, dh);
        // Fully overwritten by the DSD launches, which zero the rows no block
        // touches.
        let mut dq = Tensor::scratch(&[batch * heads * seq, dh]);
        let mut dk = Tensor::scratch(&[batch * heads * seq, dh]);
        let mut dv = Tensor::scratch(&[batch * heads * seq, dh]);
        let stacked = stacked_layout(&cache.layout, seq);
        let (total, span) = (cache.layout.total_data_len, heads * seq);
        // Block-data scratch, fully overwritten per batch item: dP by the
        // SDD, turned into dS in place.
        let mut ds_t = Tensor::scratch(&[total]);
        for b in 0..batch {
            let qs = rows(&cache.q, b * span, span, dh);
            let ks = rows(&cache.k, b * span, span, dh);
            let vs = rows(&cache.v, b * span, span, dh);
            let dc = rows(&dctx, b * span, span, dh);
            let p = &cache.probs.as_slice()[b * total..(b + 1) * total];
            // dP on active blocks only; the fused backward never reads it
            // past the diagonal, so no fill.
            let ds = ds_t.as_mut_slice();
            sdd_nt(dc, vs, span, dh, 1.0, stacked, CausalFill::None, ds);
            probs_backward(p, ds, stacked, scale);
            let ds: &[f32] = ds;
            // dQ = dS · K ; dK = dSᵀ · Q ; dV = Pᵀ · dC
            dsd(
                ds,
                ks,
                span,
                dh,
                stacked,
                rows_mut(&mut dq, b * span, span, dh),
            );
            dsd_tn(
                ds,
                qs,
                span,
                dh,
                stacked,
                rows_mut(&mut dk, b * span, span, dh),
            );
            dsd_tn(
                p,
                dc,
                span,
                dh,
                stacked,
                rows_mut(&mut dv, b * span, span, dh),
            );
        }
        let dq_m = merge_heads(&dq, batch, seq, heads, dh);
        let dk_m = merge_heads(&dk, batch, seq, heads, dh);
        let dv_m = merge_heads(&dv, batch, seq, heads, dh);
        // One `dx`: the q projection writes it, k and v accumulate into it.
        let x = &cache.x;
        let mut dx = Tensor::scratch(x.shape());
        self.wq.backward_into(x, &dq_m, &mut dx, 0.0);
        self.wk.backward_into(x, &dk_m, &mut dx, 1.0);
        self.wv.backward_into(x, &dv_m, &mut dx, 1.0);
        dx
    }

    /// Take the block probabilities of the most recent forward, if it was
    /// dense: the full-causal layout it ran over and its block data, per
    /// batch element `layout.total_data_len` floats (zeros past the
    /// diagonal). Calibration capture reads them in place as exposer ground
    /// truth; the cache is consumed, so no backward can follow.
    pub(crate) fn take_dense_probs(&mut self) -> Option<(Arc<MultiHeadLayout>, Tensor)> {
        let (_, causal) = self.causal.as_ref()?;
        if !Arc::ptr_eq(&self.cache.as_ref()?.layout, causal) {
            return None;
        }
        let cache = self.cache.take()?;
        Some((cache.layout, cache.probs))
    }

    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.wq.for_each_param(f);
        self.wk.for_each_param(f);
        self.wv.for_each_param(f);
        self.wo.for_each_param(f);
    }
}

/// `[B·S, h·dh] → [B·h·S, dh]`, head-major so per-(batch, head) slices are
/// contiguous for the block kernels.
pub fn split_heads(x: &Tensor, batch: usize, seq: usize, heads: usize, dh: usize) -> Tensor {
    assert_eq!(x.rows(), batch * seq);
    assert_eq!(x.cols(), heads * dh);
    let mut out = Tensor::scratch(&[batch * heads * seq, dh]);
    if x.is_empty() {
        return out;
    }
    let (d, per_batch) = (heads * dh, seq * heads * dh);
    let batches = x.as_slice().chunks_exact(per_batch);
    for (src, dst) in batches.zip(out.as_mut_slice().chunks_exact_mut(per_batch)) {
        for (h, head) in dst.chunks_exact_mut(seq * dh).enumerate() {
            for (dst_row, src_row) in head.chunks_exact_mut(dh).zip(src.chunks_exact(d)) {
                dst_row.copy_from_slice(&src_row[h * dh..(h + 1) * dh]);
            }
        }
    }
    out
}

/// Inverse of [`split_heads`].
pub fn merge_heads(x: &Tensor, batch: usize, seq: usize, heads: usize, dh: usize) -> Tensor {
    assert_eq!(x.rows(), batch * heads * seq);
    assert_eq!(x.cols(), dh);
    let mut out = Tensor::scratch(&[batch * seq, heads * dh]);
    if x.is_empty() {
        return out;
    }
    let (d, per_batch) = (heads * dh, seq * heads * dh);
    let batches = x.as_slice().chunks_exact(per_batch);
    for (src, dst) in batches.zip(out.as_mut_slice().chunks_exact_mut(per_batch)) {
        for (h, head) in src.chunks_exact(seq * dh).enumerate() {
            for (src_row, dst_row) in head.chunks_exact(dh).zip(dst.chunks_exact_mut(d)) {
                dst_row[h * dh..(h + 1) * dh].copy_from_slice(src_row);
            }
        }
    }
    out
}

/// The per-layer launch layout of `layout`, checked against the sequence.
fn stacked_layout(layout: &MultiHeadLayout, seq: usize) -> &BlockCsr {
    let stacked = layout
        .stacked()
        .expect("attention heads must share one block size and grid");
    assert_eq!(
        stacked.n_brows * stacked.block_size,
        layout.n_heads() * seq,
        "layout grid must match seq"
    );
    stacked
}

fn rows(t: &Tensor, start_row: usize, n_rows: usize, width: usize) -> &[f32] {
    &t.as_slice()[start_row * width..(start_row + n_rows) * width]
}

fn rows_mut(t: &mut Tensor, start_row: usize, n_rows: usize, width: usize) -> &mut [f32] {
    &mut t.as_mut_slice()[start_row * width..(start_row + n_rows) * width]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lx_sparse::attention::block_data_to_dense;
    use lx_sparse::PatternPool;
    use lx_tensor::gemm::{gemm, gemm_nt, gemm_tn};
    use lx_tensor::ops::{causal_softmax_backward_rows, causal_softmax_rows};

    const B: usize = 2;
    const S: usize = 16;
    const D: usize = 8;
    const H: usize = 2;
    const BLK: usize = 4;

    /// `(batch, seq, alibi)` cells of the oracle comparisons: derived block
    /// edges 16, 4 and 1, ALiBi off and on, batch 1 and 2.
    const CELLS: [(usize, usize, bool); 5] = [
        (B, S, false),
        (1, 12, false),
        (1, 7, false),
        (B, S, true),
        (B, 12, true),
    ];

    fn mha() -> MultiHeadAttention {
        MultiHeadAttention::new("attn", D, H, 42)
    }

    fn mha_with(alibi: bool) -> MultiHeadAttention {
        let mut attn = mha();
        if alibi {
            attn.enable_alibi();
        }
        attn
    }

    /// The full-causal layout over `seq` at block edge `block`.
    fn causal_at(seq: usize, block: usize) -> Arc<MultiHeadLayout> {
        let csr = Arc::new(BlockCsr::from_mask(
            &PatternSpec::Causal.mask(seq / block),
            block,
        ));
        Arc::new(MultiHeadLayout::combine(vec![csr; H]))
    }

    fn full_layout() -> Arc<MultiHeadLayout> {
        causal_at(S, BLK)
    }

    /// The layouts checked against the oracle at `seq`: dense (`None`, the
    /// derived edge), and explicit full-causal layouts at edge 1 and, where
    /// it divides `seq`, at edge `BLK`.
    fn layouts(seq: usize) -> Vec<Option<Arc<MultiHeadLayout>>> {
        let mut all = vec![None, Some(causal_at(seq, 1))];
        if seq.is_multiple_of(BLK) {
            all.push(Some(causal_at(seq, BLK)));
        }
        all
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// What the reference forward keeps for its backward.
    struct Reference {
        batch: usize,
        seq: usize,
        x: Tensor,
        q: Tensor,
        k: Tensor,
        v: Tensor,
        /// Dense `[B·h·S, S]` probabilities.
        probs: Tensor,
    }

    /// The reference attention: per (batch, head), the full S×S scores GEMM,
    /// the fused causal softmax and the context GEMM, through `attn`'s own
    /// projections and parameters.
    fn reference_forward(
        attn: &mut MultiHeadAttention,
        x: &Tensor,
        batch: usize,
        seq: usize,
    ) -> (Tensor, Reference) {
        let (heads, dh) = (attn.n_heads, attn.head_dim);
        let q = split_heads(&attn.wq.project(x), batch, seq, heads, dh);
        let k = split_heads(&attn.wk.project(x), batch, seq, heads, dh);
        let v = split_heads(&attn.wv.project(x), batch, seq, heads, dh);
        let scale = 1.0 / (dh as f32).sqrt();
        let mut probs = Tensor::zeros(&[batch * heads * seq, seq]);
        let mut ctx = Tensor::zeros(&[batch * heads * seq, dh]);
        for b in 0..batch {
            for h in 0..heads {
                let off = (b * heads + h) * seq;
                let qs = rows(&q, off, seq, dh);
                let ks = rows(&k, off, seq, dh);
                let vs = rows(&v, off, seq, dh);
                let p = &mut probs.as_mut_slice()[off * seq..(off + seq) * seq];
                gemm_nt(seq, dh, seq, qs, ks, p, 0.0);
                let slope = attn.alibi_slopes.as_ref().map_or(0.0, |s| s[h]);
                causal_softmax_rows(p, seq, scale, slope);
                gemm(seq, seq, dh, p, vs, rows_mut(&mut ctx, off, seq, dh), 0.0);
            }
        }
        let y = attn.wo.forward(&merge_heads(&ctx, batch, seq, heads, dh));
        let r = Reference {
            batch,
            seq,
            x: x.clone(),
            q,
            k,
            v,
            probs,
        };
        (y, r)
    }

    /// Backward of [`reference_forward`]; returns `dx`.
    fn reference_backward(attn: &mut MultiHeadAttention, r: &Reference, dy: &Tensor) -> Tensor {
        let (batch, seq, heads, dh) = (r.batch, r.seq, attn.n_heads, attn.head_dim);
        let scale = 1.0 / (dh as f32).sqrt();
        let dctx = split_heads(&attn.wo.backward(dy), batch, seq, heads, dh);
        let mut dq = Tensor::zeros(&[batch * heads * seq, dh]);
        let mut dk = Tensor::zeros(&[batch * heads * seq, dh]);
        let mut dv = Tensor::zeros(&[batch * heads * seq, dh]);
        let mut ds = vec![0.0; seq * seq];
        for b in 0..batch {
            for h in 0..heads {
                let off = (b * heads + h) * seq;
                let qs = rows(&r.q, off, seq, dh);
                let ks = rows(&r.k, off, seq, dh);
                let vs = rows(&r.v, off, seq, dh);
                let dc = rows(&dctx, off, seq, dh);
                let p = &r.probs.as_slice()[off * seq..(off + seq) * seq];
                // dP = dC · Vᵀ, then dS = scale · P ⊙ (dP − ⟨P, dP⟩).
                gemm_nt(seq, dh, seq, dc, vs, &mut ds, 0.0);
                causal_softmax_backward_rows(p, &mut ds, seq, scale);
                // dQ = dS · K ; dK = dSᵀ · Q ; dV = Pᵀ · dC
                gemm(seq, seq, dh, &ds, ks, rows_mut(&mut dq, off, seq, dh), 0.0);
                gemm_tn(seq, seq, dh, &ds, qs, rows_mut(&mut dk, off, seq, dh), 0.0);
                gemm_tn(seq, seq, dh, p, dc, rows_mut(&mut dv, off, seq, dh), 0.0);
            }
        }
        let mut dx = Tensor::zeros(r.x.shape());
        attn.wq
            .backward_into(&r.x, &merge_heads(&dq, batch, seq, heads, dh), &mut dx, 0.0);
        attn.wk
            .backward_into(&r.x, &merge_heads(&dk, batch, seq, heads, dh), &mut dx, 1.0);
        attn.wv
            .backward_into(&r.x, &merge_heads(&dv, batch, seq, heads, dh), &mut dx, 1.0);
        dx
    }

    #[test]
    fn split_merge_roundtrip() {
        let x = Tensor::randn(&[B * S, D], 1.0, 1);
        let hm = split_heads(&x, B, S, H, D / H);
        let back = merge_heads(&hm, B, S, H, D / H);
        assert_eq!(back, x);
    }

    #[test]
    fn dense_attention_rows_are_convex_combinations() {
        for (batch, seq, alibi) in CELLS {
            let mut attn = mha_with(alibi);
            let x = Tensor::randn(&[batch * seq, D], 1.0, 2);
            let (y, r) = reference_forward(&mut attn, &x, batch, seq);
            assert_eq!(y.shape(), &[batch * seq, D]);
            for row in 0..batch * H * seq {
                let p = r.probs.row(row);
                let row_sum: f32 = p.iter().sum();
                assert!((row_sum - 1.0).abs() < 1e-4, "row {row} sums to {row_sum}");
                // Causality: position s attends only within [0, s].
                let s = row % seq;
                assert!(p[s + 1..].iter().all(|&v| v == 0.0), "row {row}");
            }
        }
    }

    #[test]
    fn sparse_full_causal_matches_dense_forward() {
        for (batch, seq, alibi) in CELLS {
            let x = Tensor::randn(&[batch * seq, D], 1.0, 3);
            let (yd, _) = reference_forward(&mut mha_with(alibi), &x, batch, seq);
            for layout in layouts(seq) {
                let ys = mha_with(alibi).forward(&x, batch, seq, layout.as_ref());
                for (a, b) in yd.as_slice().iter().zip(ys.as_slice()) {
                    assert!((a - b).abs() < 1e-4, "S={seq}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn sparse_full_causal_matches_dense_backward() {
        for (batch, seq, alibi) in CELLS {
            let x = Tensor::randn(&[batch * seq, D], 1.0, 4);
            let dy = Tensor::randn(&[batch * seq, D], 1.0, 5);
            // Make all projections trainable to compare weight grads too.
            let mut dense = mha_with(alibi);
            dense.for_each_param(&mut |p| p.trainable = true);
            let (_, r) = reference_forward(&mut dense, &x, batch, seq);
            let dxd = reference_backward(&mut dense, &r, &dy);
            let gd = dense.wq.weight.grad.as_ref().unwrap();
            for layout in layouts(seq) {
                let mut sparse = mha_with(alibi);
                sparse.for_each_param(&mut |p| p.trainable = true);
                let _ = sparse.forward(&x, batch, seq, layout.as_ref());
                let dxs = sparse.backward(&dy);
                for (a, b) in dxd.as_slice().iter().zip(dxs.as_slice()) {
                    assert!((a - b).abs() < 1e-3, "S={seq} dx: {a} vs {b}");
                }
                let gs = sparse.wq.weight.grad.as_ref().unwrap();
                for (a, b) in gd.as_slice().iter().zip(gs.as_slice()) {
                    assert!((a - b).abs() < 1e-3, "S={seq} dWq: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn dense_forward_is_the_full_causal_layout_bitwise() {
        for (seq, edge) in [(512, 16), (64, 16), (24, 8), (12, 4), (6, 2), (7, 1)] {
            assert_eq!(causal_block(seq), edge, "block edge for S={seq}");
        }
        for (batch, seq, alibi) in CELLS {
            let x = Tensor::randn(&[batch * seq, D], 1.0, 10);
            let dy = Tensor::randn(&[batch * seq, D], 1.0, 11);
            let explicit_layout = causal_at(seq, causal_block(seq));
            let mut dense = mha_with(alibi);
            let mut explicit = mha_with(alibi);
            dense.for_each_param(&mut |p| p.trainable = true);
            explicit.for_each_param(&mut |p| p.trainable = true);
            let yd = dense.forward(&x, batch, seq, None);
            let ye = explicit.forward(&x, batch, seq, Some(&explicit_layout));
            assert_eq!(bits(&yd), bits(&ye), "S={seq}: y");
            let dxd = dense.backward(&dy);
            let dxe = explicit.backward(&dy);
            assert_eq!(bits(&dxd), bits(&dxe), "S={seq}: dx");
            let gd = dense.wq.weight.grad.as_ref().unwrap();
            let ge = explicit.wq.weight.grad.as_ref().unwrap();
            assert_eq!(bits(gd), bits(ge), "S={seq}: dWq");
        }
    }

    #[test]
    fn captured_probs_match_the_oracle() {
        for (batch, seq, alibi) in CELLS {
            let x = Tensor::randn(&[batch * seq, D], 1.0, 12);
            let (_, r) = reference_forward(&mut mha_with(alibi), &x, batch, seq);
            let mut attn = mha_with(alibi);
            let _ = attn.forward(&x, batch, seq, None);
            let (layout, data) = attn.take_dense_probs().expect("dense forward");
            assert_eq!(layout.n_heads(), H);
            assert_eq!(data.len(), batch * layout.total_data_len);
            // Expanded head by head, the block data is the dense
            // `[B·h·S, S]` probabilities.
            let elements = data.as_slice().chunks_exact(layout.total_data_len);
            let probs: Vec<f32> = elements
                .flat_map(|element| {
                    layout.heads.iter().enumerate().flat_map(|(h, head)| {
                        block_data_to_dense(&element[layout.head_data_range(h)], head)
                    })
                })
                .collect();
            let probs = Tensor::from_vec(probs, &[batch * H * seq, seq]);
            assert_eq!(probs.shape(), r.probs.shape());
            for row in 0..batch * H * seq {
                let (got, want) = (probs.row(row), r.probs.row(row));
                let s = row % seq;
                for (j, (a, b)) in got.iter().zip(want).enumerate() {
                    if j > s {
                        assert_eq!(
                            a.to_bits(),
                            0,
                            "S={seq} row {row} col {j} past the diagonal"
                        );
                    } else {
                        assert!((a - b).abs() < 1e-6, "S={seq} row {row}: {a} vs {b}");
                    }
                }
            }
            // A forward over an explicit layout is not a dense capture.
            let _ = attn.forward(&x, batch, seq, Some(&causal_at(seq, 1)));
            assert!(attn.take_dense_probs().is_none());
        }
    }

    #[test]
    fn dense_layout_cache_follows_seq() {
        // One module through S = 16, 8, 16, 16: every step equals a fresh
        // module's, and the layout is rebuilt only when `seq` changes.
        let mut reused = mha();
        let mut previous: Option<(usize, Arc<MultiHeadLayout>)> = None;
        for (i, seq) in [16, 8, 16, 16].into_iter().enumerate() {
            let x = Tensor::randn(&[B * seq, D], 1.0, 20 + i as u64);
            let dy = Tensor::randn(&[B * seq, D], 1.0, 30 + i as u64);
            let mut fresh = mha();
            let yf = fresh.forward(&x, B, seq, None);
            let dxf = fresh.backward(&dy);
            let yr = reused.forward(&x, B, seq, None);
            let dxr = reused.backward(&dy);
            assert_eq!(bits(&yr), bits(&yf), "step {i} (S={seq}): y");
            assert_eq!(bits(&dxr), bits(&dxf), "step {i} (S={seq}): dx");
            let current = reused.causal.clone().expect("layout cached");
            if let Some((prev_seq, prev)) = previous {
                assert_eq!(Arc::ptr_eq(&prev, &current.1), prev_seq == seq, "step {i}");
            }
            previous = Some(current);
        }
    }

    #[test]
    fn head_specific_patterns_differ_from_uniform() {
        // Head 0 narrow window, head 1 full causal: output must differ from
        // both-all-causal in head 0's contribution but match in head 1's.
        let x = Tensor::randn(&[B * S, D], 1.0, 6);
        let pool = PatternPool::default_pool(BLK, &[S / BLK]);
        let mixed = Arc::new(pool.combine(
            S / BLK,
            &[PatternSpec::LocalWindow { w: 1 }, PatternSpec::Causal],
        ));
        let mut attn_mixed = mha();
        let mut attn_full = mha();
        let ym = attn_mixed.forward(&x, B, S, Some(&mixed));
        let yf = attn_full.forward(&x, B, S, Some(&full_layout()));
        let diff: f32 = ym
            .as_slice()
            .iter()
            .zip(yf.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-3, "narrow window must change the output");
    }

    #[test]
    fn dense_backward_matches_finite_difference_on_input() {
        let mut attn = MultiHeadAttention::new("attn", 4, 2, 7);
        let (b, s) = (1, 4);
        let x = Tensor::randn(&[b * s, 4], 0.5, 8);
        let dy = Tensor::randn(&[b * s, 4], 1.0, 9);
        let _ = attn.forward(&x, b, s, None);
        let dx = attn.backward(&dy);
        let loss = |attn: &mut MultiHeadAttention, x: &Tensor| -> f32 {
            let y = attn.forward(x, b, s, None);
            attn.cache = None;
            y.as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(u, v)| u * v)
                .sum()
        };
        let h = 1e-3;
        for idx in [0usize, 7, 13] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= h;
            let fd = (loss(&mut attn, &xp) - loss(&mut attn, &xm)) / (2.0 * h);
            assert!(
                (dx.as_slice()[idx] - fd).abs() < 5e-3,
                "dx[{idx}]: {} vs {fd}",
                dx.as_slice()[idx]
            );
        }
    }
}
