//! Multi-head attention with a dense path (baseline) and a block-sparse path
//! driven by a per-head [`MultiHeadLayout`] (the Long Exposure path).
//!
//! The sparse path computes scores only on active blocks (SDD), softmaxes
//! over the sparse rows, and contracts with V (DSD); the backward pass reuses
//! the cached layout so inactive blocks never contribute gradients — the
//! paper's §II-D invariant. Both paths turn scores into probabilities (and
//! `dP` into `dS`) with the same fused row kernels: scale, ALiBi bias, causal
//! limit, max, `exp` + sum and normalise are one pass family, and nothing past
//! the diagonal is ever exponentiated.

use crate::linear::Linear;
use crate::param::Param;
use lx_sparse::attention::{dsd, dsd_tn, probs_backward, scores_to_probs, sdd_nt, CausalFill};
use lx_sparse::MultiHeadLayout;
use lx_tensor::gemm::{gemm, gemm_nt, gemm_tn};
use lx_tensor::ops::{causal_softmax_backward_rows, causal_softmax_rows};
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
    cache: Option<AttnCache>,
}

/// Standard ALiBi slope schedule: head `h` of `n` gets `2^(−8(h+1)/n)`.
pub fn alibi_slopes(n_heads: usize) -> Vec<f32> {
    (0..n_heads)
        .map(|h| 2f32.powf(-8.0 * (h + 1) as f32 / n_heads as f32))
        .collect()
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
    mode: CacheMode,
}

#[derive(Debug)]
enum CacheMode {
    /// Dense probabilities `[B·h·S, S]`.
    Dense { probs: Tensor },
    /// Block-sparse probabilities: per batch, `layout.total_data_len` floats.
    Sparse {
        layout: Arc<MultiHeadLayout>,
        probs: Tensor,
    },
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
            cache: None,
        }
    }

    /// Enable ALiBi positional bias with the standard slope schedule.
    pub fn enable_alibi(&mut self) {
        self.alibi_slopes = Some(alibi_slopes(self.n_heads));
    }

    /// Forward. `layout = None` runs dense causal attention; `Some` runs the
    /// per-head block-sparse path (requires `seq` divisible by the block).
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
        // One input, three projections: the cache keeps `x` once for all
        // three backward passes.
        let q = split_heads(&self.wq.project(x), batch, seq, self.n_heads, self.head_dim);
        let k = split_heads(&self.wk.project(x), batch, seq, self.n_heads, self.head_dim);
        let v = split_heads(&self.wv.project(x), batch, seq, self.n_heads, self.head_dim);
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let (ctx, mode) = match layout {
            None => {
                // Every element of both is written per (batch, head): the
                // scores GEMM then the fused softmax, and the context GEMM.
                let mut probs = Tensor::scratch(&[batch * self.n_heads * seq, seq]);
                let mut ctx = Tensor::scratch(&[batch * self.n_heads * seq, self.head_dim]);
                for b in 0..batch {
                    for h in 0..self.n_heads {
                        let off = (b * self.n_heads + h) * seq;
                        let qs = rows(&q, off, seq, self.head_dim);
                        let ks = rows(&k, off, seq, self.head_dim);
                        let vs = rows(&v, off, seq, self.head_dim);
                        let p = &mut probs.as_mut_slice()[off * seq..(off + seq) * seq];
                        gemm_nt(seq, self.head_dim, seq, qs, ks, p, 0.0);
                        let slope = self.alibi_slopes.as_ref().map_or(0.0, |s| s[h]);
                        causal_softmax_rows(p, seq, scale, slope);
                        let c = &mut ctx.as_mut_slice()
                            [off * self.head_dim..(off + seq) * self.head_dim];
                        gemm(seq, seq, self.head_dim, p, vs, c, 0.0);
                    }
                }
                (ctx, CacheMode::Dense { probs })
            }
            Some(layout) => {
                assert_eq!(layout.n_heads(), self.n_heads, "layout heads");
                // One launch per operator covers every head of the layer:
                // the stacked layout addresses the head-major projections
                // and the shared block-data buffer directly.
                let stacked = stacked_layout(layout, seq);
                let (total, span) = (layout.total_data_len, self.n_heads * seq);
                // Every active block is overwritten by the SDD, every
                // context row by the DSD.
                let mut probs = Tensor::scratch(&[batch, total]);
                let mut ctx = Tensor::scratch(&[batch * span, self.head_dim]);
                for b in 0..batch {
                    let qs = rows(&q, b * span, span, self.head_dim);
                    let ks = rows(&k, b * span, span, self.head_dim);
                    let vs = rows(&v, b * span, span, self.head_dim);
                    let p = &mut probs.as_mut_slice()[b * total..(b + 1) * total];
                    // Raw products: scale, bias and the causal limit belong
                    // to the fused pass.
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
                (
                    ctx,
                    CacheMode::Sparse {
                        layout: layout.clone(),
                        probs,
                    },
                )
            }
        };
        let merged = merge_heads(&ctx, batch, seq, self.n_heads, self.head_dim);
        let y = self.wo.forward(&merged);
        self.cache = Some(AttnCache {
            batch,
            seq,
            x: x.clone(),
            q,
            k,
            v,
            mode,
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
        // Fully overwritten below: beta-0 GEMMs per (batch, head) on the
        // dense path, DSD launches (which zero the rows no block touches) on
        // the sparse one.
        let mut dq = Tensor::scratch(&[batch * heads * seq, dh]);
        let mut dk = Tensor::scratch(&[batch * heads * seq, dh]);
        let mut dv = Tensor::scratch(&[batch * heads * seq, dh]);
        match &cache.mode {
            CacheMode::Dense { probs } => {
                // Workspace-pooled scratch, recycled across (batch, head)
                // iterations and across steps: dP from the GEMM (beta 0
                // overwrites it), turned into dS in place.
                let mut ds_t = Tensor::scratch(&[seq, seq]);
                let ds = ds_t.as_mut_slice();
                for b in 0..batch {
                    for h in 0..heads {
                        let off = (b * heads + h) * seq;
                        let qs = rows(&cache.q, off, seq, dh);
                        let ks = rows(&cache.k, off, seq, dh);
                        let vs = rows(&cache.v, off, seq, dh);
                        let dc = rows(&dctx, off, seq, dh);
                        let p = &probs.as_slice()[off * seq..(off + seq) * seq];
                        // dP = dC · Vᵀ, then dS = scale · P ⊙ (dP − ⟨P, dP⟩).
                        gemm_nt(seq, dh, seq, dc, vs, ds, 0.0);
                        causal_softmax_backward_rows(p, ds, seq, scale);
                        // dQ = dS · K ; dK = dSᵀ · Q ; dV = Pᵀ · dC
                        let dqs = rows_mut(&mut dq, off, seq, dh);
                        gemm(seq, seq, dh, ds, ks, dqs, 0.0);
                        let dks = rows_mut(&mut dk, off, seq, dh);
                        gemm_tn(seq, seq, dh, ds, qs, dks, 0.0);
                        let dvs = rows_mut(&mut dv, off, seq, dh);
                        gemm_tn(seq, seq, dh, p, dc, dvs, 0.0);
                    }
                }
            }
            CacheMode::Sparse { layout, probs } => {
                let stacked = stacked_layout(layout, seq);
                let (total, span) = (layout.total_data_len, heads * seq);
                // Block-data scratch, fully overwritten per batch item: dP
                // by the SDD, turned into dS in place.
                let mut ds_t = Tensor::scratch(&[total]);
                for b in 0..batch {
                    let qs = rows(&cache.q, b * span, span, dh);
                    let ks = rows(&cache.k, b * span, span, dh);
                    let vs = rows(&cache.v, b * span, span, dh);
                    let dc = rows(&dctx, b * span, span, dh);
                    let p = &probs.as_slice()[b * total..(b + 1) * total];
                    // dP on active blocks only; the fused backward never
                    // reads it past the diagonal, so no fill.
                    let ds = ds_t.as_mut_slice();
                    sdd_nt(dc, vs, span, dh, 1.0, stacked, CausalFill::None, ds);
                    probs_backward(p, ds, stacked, scale);
                    let ds: &[f32] = ds;
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
            }
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

    /// Dense attention probabilities from the most recent forward, if dense.
    /// Used by calibration capture (ground truth for exposer/predictor).
    pub fn cached_dense_probs(&self) -> Option<&Tensor> {
        match &self.cache {
            Some(AttnCache {
                mode: CacheMode::Dense { probs },
                ..
            }) => Some(probs),
            _ => None,
        }
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
fn stacked_layout(layout: &MultiHeadLayout, seq: usize) -> &lx_sparse::BlockCsr {
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
    use lx_sparse::{BlockCsr, PatternPool, PatternSpec};

    const B: usize = 2;
    const S: usize = 16;
    const D: usize = 8;
    const H: usize = 2;
    const BLK: usize = 4;

    fn mha() -> MultiHeadAttention {
        MultiHeadAttention::new("attn", D, H, 42)
    }

    fn full_layout() -> Arc<MultiHeadLayout> {
        let csr = Arc::new(BlockCsr::from_mask(&PatternSpec::Causal.mask(S / BLK), BLK));
        Arc::new(MultiHeadLayout::combine(vec![csr.clone(), csr]))
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
        let mut attn = mha();
        let x = Tensor::randn(&[B * S, D], 1.0, 2);
        let y = attn.forward(&x, B, S, None);
        assert_eq!(y.shape(), &[B * S, D]);
        let probs = attn.cached_dense_probs().unwrap();
        for r in 0..B * H * S {
            let row_sum: f32 = probs.row(r).iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-4, "row {r} sums to {row_sum}");
            // Causality: position s attends only within [0, s].
            let s = r % S;
            for j in (s + 1)..S {
                assert_eq!(probs.row(r)[j], 0.0);
            }
        }
    }

    #[test]
    fn sparse_full_causal_matches_dense_forward() {
        let x = Tensor::randn(&[B * S, D], 1.0, 3);
        let mut dense = mha();
        let mut sparse = mha();
        let yd = dense.forward(&x, B, S, None);
        let ys = sparse.forward(&x, B, S, Some(&full_layout()));
        for (a, b) in yd.as_slice().iter().zip(ys.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn sparse_full_causal_matches_dense_backward() {
        let x = Tensor::randn(&[B * S, D], 1.0, 4);
        let dy = Tensor::randn(&[B * S, D], 1.0, 5);
        let mut dense = mha();
        let mut sparse = mha();
        // Make all projections trainable to compare weight grads too.
        dense.for_each_param(&mut |p| p.trainable = true);
        sparse.for_each_param(&mut |p| p.trainable = true);
        let _ = dense.forward(&x, B, S, None);
        let dxd = dense.backward(&dy);
        let _ = sparse.forward(&x, B, S, Some(&full_layout()));
        let dxs = sparse.backward(&dy);
        for (a, b) in dxd.as_slice().iter().zip(dxs.as_slice()) {
            assert!((a - b).abs() < 1e-3, "dx: {a} vs {b}");
        }
        let gd = dense.wq.weight.grad.as_ref().unwrap();
        let gs = sparse.wq.weight.grad.as_ref().unwrap();
        for (a, b) in gd.as_slice().iter().zip(gs.as_slice()) {
            assert!((a - b).abs() < 1e-3, "dWq: {a} vs {b}");
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
