//! SDD / DSD block-sparse attention kernels (paper §VI-A).
//!
//! Sparse attention decomposes into two block-sparse matmuls:
//! `S = Q·Kᵀ` where only masked blocks of S are produced (**SDD**: sparse =
//! dense × dense), and `O = P·V` where a block-sparse P multiplies a dense V
//! (**DSD**). The backward pass reuses the same layout: `dP = dO·Vᵀ` is
//! another SDD, `dV = Pᵀ·dO` and `dK = dSᵀ·Q` are transposed DSDs driven by
//! the CSC view of the lookup table.
//!
//! Block data convention: CSR entry `e` of a layout owns
//! `data[e·b² .. (e+1)·b²]`, row-major within the block. Entries of one
//! block-row are contiguous, so row-wise softmax touches a contiguous span.
//!
//! Each of the three matmuls is **one** grouped GEMM
//! ([`KernelBackend::gemm_grouped`](lx_kernels::KernelBackend::gemm_grouped))
//! over an offset table the layout built when it was constructed — the
//! paper's Dynamic-aware Operator: one launch over a pool of block tasks.
//!
//! ```text
//!   BlockCsr (built once per pattern)            one launch per operator
//!   ┌──────────────────────────────┐
//!   │ sdd     (br, bc, e )  × nnz  │──▶ S[e]   = Q[br] · K[bc]ᵀ    every block its own run
//!   │ dsd     (e,  bc, br)  by row │──▶ O[br] += P[e]  · V[bc]     one run per block-row
//!   │ dsd_tn  (e,  br, bc)  by col │──▶ O[bc] += P[e]ᵀ · X[br]     one run per block-column
//!   └──────────────────────────────┘
//!        window index × stride = element offset (b·dh for Q/K/V/O rows, b² for blocks)
//! ```
//!
//! The packed backend packs every Q/K/V block-row once per launch instead of
//! once per block that touches it, runs its register-tile microkernel off
//! those panels, and splits the runs across the pool by block count, so a
//! causal layout's heavy last rows do not serialise. Between the matmuls,
//! scores become probabilities — and `dP` becomes `dS` — in one fused pass
//! family each ([`scores_to_probs`], [`probs_backward`]) over the
//! ISA-dispatched row kernels of [`lx_kernels::rows`], split by the same
//! nnz-balanced block rows:
//!
//! ```text
//!   forward   S = Q·Kᵀ ──▶ scale·s − slope·(q−k), causal limit, max ──▶ exp + Σ ──▶ ·1/Σ ──▶ P
//!   backward  dP = dO·Vᵀ ──▶ ⟨P, dP⟩ per row ──▶ dS = scale · P ⊙ (dP − ⟨P, dP⟩)
//! ```
//!
//! A row of a block-row is `n_entries` segments of `b` floats at stride `b²`
//! (a dense row is the one-segment case of the same kernels); positions past
//! the diagonal are never exponentiated and come out as exact zeros, so the
//! SDD before them needs neither its scale nor its fill post-pass. Every
//! operator works unchanged on
//! [`MultiHeadLayout::stacked`](crate::MultiHeadLayout::stacked) — all heads
//! of a layer as one block-diagonal layout over head-major `Q`/`K`/`V` — so
//! a layer issues one launch per operator, not one per head.

use crate::layout::BlockCsr;
use lx_kernels::rows::{self, Band, Causal};
use lx_kernels::{active_isa, GemmGroup, GemmTable, Windows};
use lx_parallel::par_weighted;
use std::ops::Range;

/// What to write into causally-masked positions of diagonal blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CausalFill {
    /// `-∞`: for attention *scores*, so a softmax zeroes them.
    NegInf,
    /// Leave the raw products — what the fused [`scores_to_probs`] /
    /// [`probs_backward`] passes take, which stop at the diagonal themselves.
    None,
}

fn check_dims(layout: &BlockCsr, s: usize) {
    let b = layout.block_size;
    assert_eq!(
        s,
        layout.n_brows * b,
        "sequence length {s} != {} blocks × {b}",
        layout.n_brows
    );
    assert_eq!(
        layout.n_brows, layout.n_bcols,
        "attention layouts are square"
    );
}

/// Elements per task below which the SDD's scale/fill post-pass is not
/// worth a pool dispatch: at ~0.3 ns per element a task must be this large
/// to last the ~0.4 ms below which a second worker gains nothing (see
/// [`rows::PAR_GRAIN`], the same bound for the ~1.5 ns softmax family).
const ELEMENTWISE_GRAIN: usize = 1 << 20;

/// Run `body` over nnz-balanced runs of block-rows of CSR block `data`, at
/// least `grain` elements each (one run on a thread pinned by
/// [`lx_kernels::with_sequential`]): each task gets a block-row range and
/// the slice holding exactly those rows' blocks (entry `e` sits at `e·b²`
/// minus the first row's offset).
fn par_block_rows(
    data: &mut [f32],
    layout: &BlockCsr,
    grain: usize,
    body: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    let bb = layout.block_size * layout.block_size;
    let grain = if lx_kernels::sequential_mode() {
        usize::MAX
    } else {
        grain
    };
    let span = |brs: Range<usize>| {
        layout.row_ptr[brs.start] as usize * bb..layout.row_ptr[brs.end] as usize * bb
    };
    par_weighted(data, &layout.row_ptr, grain / bb.max(1), span, body);
}

/// SDD: `out_blocks = scale · A·Bᵀ` on active blocks only.
///
/// `a` and `b_mat` are `s×dh` row-major (Q and K for the forward scores;
/// dO and V for the `dP` backward). `out` must have `layout.data_len()`
/// elements. Masked positions of diagonal blocks get `fill`. The model runs
/// it with `scale = 1` and [`CausalFill::None`] — one launch, no post-pass —
/// and leaves scale and causal limit to the fused row passes; the post-pass
/// serves standalone callers that want finished scores.
#[allow(clippy::too_many_arguments)]
pub fn sdd_nt(
    a: &[f32],
    b_mat: &[f32],
    s: usize,
    dh: usize,
    scale: f32,
    layout: &BlockCsr,
    fill: CausalFill,
    out: &mut [f32],
) {
    check_dims(layout, s);
    let b = layout.block_size;
    assert_eq!(a.len(), s * dh, "SDD: A is s×dh");
    assert_eq!(b_mat.len(), s * dh, "SDD: B is s×dh");
    assert_eq!(out.len(), layout.data_len(), "SDD: out sized to layout");
    let bb = b * b;
    lx_kernels::backend().gemm_grouped(
        &GemmGroup {
            m: b,
            k: dh,
            n: b,
            a: Windows::normal(a, dh, b * dh),
            b: Windows::transposed(b_mat, dh, b * dh),
            ldc: b,
            c_stride: bb,
            beta: 0.0,
            table: &layout.sdd,
            bias: None,
        },
        out,
    );
    if scale == 1.0 && fill == CausalFill::None {
        return;
    }
    par_block_rows(out, layout, ELEMENTWISE_GRAIN, |brs, chunk| {
        let base = layout.row_ptr[brs.start] as usize * bb;
        for br in brs {
            for e in layout.row_entries(br) {
                let bc = layout.col_idx[e] as usize;
                let blk = &mut chunk[e * bb - base..(e + 1) * bb - base];
                if scale != 1.0 {
                    for v in blk.iter_mut() {
                        *v *= scale;
                    }
                }
                // Causal masking at element granularity: a block on the
                // diagonal computed the full b×b product and now overwrites
                // its masked part (empty for blocks below the diagonal).
                if fill == CausalFill::NegInf {
                    for i in 0..b {
                        let first_masked = (br * b + i + 1).saturating_sub(bc * b).min(b);
                        blk[i * b + first_masked..(i + 1) * b].fill(f32::NEG_INFINITY);
                    }
                }
            }
        }
    });
}

/// One launch of `out[s×dh] = Σ P-block · X-rows` over `table`, whose runs
/// each own `b` output rows; rows no run writes are zeroed.
fn dsd_launch(
    p: Windows<&[f32]>,
    x: &[f32],
    dh: usize,
    b: usize,
    table: &GemmTable,
    out: &mut [f32],
) {
    for (run, rows) in table.runs().windows(2).zip(out.chunks_exact_mut(b * dh)) {
        if run[0] == run[1] {
            rows.fill(0.0);
        }
    }
    lx_kernels::backend().gemm_grouped(
        &GemmGroup {
            m: b,
            k: b,
            n: dh,
            a: p,
            b: Windows::normal(x, dh, b * dh),
            ldc: dh,
            c_stride: b * dh,
            beta: 0.0,
            table,
            bias: None,
        },
        out,
    );
}

/// DSD: `out[s×dh] = P · V` where P is block-sparse data over `layout`.
pub fn dsd(p: &[f32], v: &[f32], s: usize, dh: usize, layout: &BlockCsr, out: &mut [f32]) {
    check_dims(layout, s);
    let b = layout.block_size;
    assert_eq!(p.len(), layout.data_len(), "DSD: P sized to layout");
    assert_eq!(v.len(), s * dh, "DSD: V is s×dh");
    assert_eq!(out.len(), s * dh, "DSD: out is s×dh");
    dsd_launch(Windows::normal(p, b, b * b), v, dh, b, &layout.dsd, out);
}

/// Transposed DSD: `out[s×dh] = Pᵀ · X` via the CSC view
/// (`dV = Pᵀ·dO`, `dK = dSᵀ·Q`).
pub fn dsd_tn(p: &[f32], x: &[f32], s: usize, dh: usize, layout: &BlockCsr, out: &mut [f32]) {
    check_dims(layout, s);
    let b = layout.block_size;
    assert_eq!(p.len(), layout.data_len(), "DSD-T: P sized to layout");
    assert_eq!(x.len(), s * dh, "DSD-T: X is s×dh");
    assert_eq!(out.len(), s * dh, "DSD-T: out is s×dh");
    // The stored block is P[br, bc]; read transposed it is exactly the
    // window of `Pᵀ` that block-column `bc` needs.
    dsd_launch(
        Windows::transposed(p, b, b * b),
        x,
        dh,
        b,
        &layout.dsd_tn,
        out,
    );
}

/// The band and causal geometry of block-row `br`: `b` rows of one segment
/// per entry, queries `br·b ..`, keys by block column. `slopes` holds one
/// ALiBi slope per equal run of block rows (one per head of a stacked
/// layout); `None` is no bias.
fn block_row_band<'a>(
    layout: &'a BlockCsr,
    br: usize,
    slopes: Option<&[f32]>,
) -> (Band, Causal<'a>) {
    let entries = layout.row_entries(br);
    let slope = slopes.map_or(0.0, |s| s[br * s.len() / layout.n_brows]);
    (
        Band::block_row(layout.block_size, entries.len()),
        Causal {
            q0: br * layout.block_size,
            cols: &layout.col_idx[entries],
            slope,
        },
    )
}

/// Causal scores → probabilities in place over block-sparse score data
/// (what [`sdd_nt`] leaves with `scale = 1` and `CausalFill::None`), one
/// pass family: `scale·s − slope·(q−k)` up to the diagonal, row max, `exp` +
/// sum, normalise. Positions past the diagonal become exact zeros without
/// being read; rows with no active blocks stay empty. `slopes` is one ALiBi
/// slope per head of a stacked layout (`slopes.len()` equal runs of block
/// rows), `None` for no bias.
pub fn scores_to_probs(data: &mut [f32], layout: &BlockCsr, scale: f32, slopes: Option<&[f32]>) {
    let bb = layout.block_size * layout.block_size;
    assert_eq!(data.len(), layout.data_len());
    if let Some(s) = slopes {
        assert!(
            !s.is_empty() && layout.n_brows.is_multiple_of(s.len()),
            "one slope per equal run of block rows"
        );
    }
    let isa = active_isa();
    par_block_rows(data, layout, rows::PAR_GRAIN, |brs, chunk| {
        let base = layout.row_ptr[brs.start] as usize * bb;
        for br in brs {
            let entries = layout.row_entries(br);
            let (band, causal) = block_row_band(layout, br, slopes);
            let span = &mut chunk[entries.start * bb - base..entries.end * bb - base];
            rows::softmax_forward(isa, span, band, scale, Some(causal));
        }
    });
}

/// Backward of [`scores_to_probs`], in place on `grad` (`dP` in, `dS` out):
/// `dS = scale · P ⊙ (dP − ⟨P, dP⟩_row)` up to the diagonal, zeros past it —
/// `dP` there is never read, so the SDD that produced it needs no fill.
pub fn probs_backward(p: &[f32], grad: &mut [f32], layout: &BlockCsr, scale: f32) {
    let bb = layout.block_size * layout.block_size;
    assert_eq!(p.len(), layout.data_len());
    assert_eq!(grad.len(), layout.data_len());
    let isa = active_isa();
    par_block_rows(grad, layout, rows::PAR_GRAIN, |brs, chunk| {
        let base = layout.row_ptr[brs.start] as usize * bb;
        for br in brs {
            let entries = layout.row_entries(br);
            let (band, causal) = block_row_band(layout, br, None);
            let span = entries.start * bb..entries.end * bb;
            let g = &mut chunk[span.start - base..span.end - base];
            rows::softmax_backward(isa, &p[span], g, band, scale, Some(causal));
        }
    });
}

/// Expand block data to a dense `s×s` matrix, zeros outside the active
/// blocks. Calibration capture builds its dense attention probabilities with
/// it, one head at a time; tests and visualisation use it too.
pub fn block_data_to_dense(data: &[f32], layout: &BlockCsr) -> Vec<f32> {
    let b = layout.block_size;
    let s = layout.n_brows * b;
    let mut dense = vec![0.0; s * s];
    for br in 0..layout.n_brows {
        for e in layout.row_entries(br) {
            let bc = layout.col_idx[e] as usize;
            for i in 0..b {
                for j in 0..b {
                    dense[(br * b + i) * s + (bc * b + j)] = data[e * b * b + i * b + j];
                }
            }
        }
    }
    dense
}

/// Gather a dense `s×s` matrix into block data over `layout` (tests).
pub fn dense_to_block_data(dense: &[f32], layout: &BlockCsr) -> Vec<f32> {
    let b = layout.block_size;
    let s = layout.n_brows * b;
    assert_eq!(dense.len(), s * s);
    let mut data = vec![0.0; layout.data_len()];
    for br in 0..layout.n_brows {
        for e in layout.row_entries(br) {
            let bc = layout.col_idx[e] as usize;
            for i in 0..b {
                for j in 0..b {
                    data[e * b * b + i * b + j] = dense[(br * b + i) * s + (bc * b + j)];
                }
            }
        }
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::PatternSpec;
    use lx_tensor::ops::{apply_causal_mask, softmax_rows};
    use lx_tensor::rng::randn_vec;

    const B: usize = 4;
    const S: usize = 16; // 4 block rows
    const DH: usize = 8;

    fn dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn layout(spec: PatternSpec) -> BlockCsr {
        BlockCsr::from_mask(&spec.mask(S / B), B)
    }

    fn dense_reference(
        q: &[f32],
        k: &[f32],
        v: &[f32],
        mask: &crate::BlockMask,
    ) -> (Vec<f32>, Vec<f32>) {
        // Dense path with block-mask + causal applied as -inf.
        let scale = 1.0 / (DH as f32).sqrt();
        let mut scores = vec![0.0f32; S * S];
        for i in 0..S {
            for j in 0..S {
                scores[i * S + j] = scale * dot(&q[i * DH..(i + 1) * DH], &k[j * DH..(j + 1) * DH]);
                if !mask.get(i / B, j / B) {
                    scores[i * S + j] = f32::NEG_INFINITY;
                }
            }
        }
        apply_causal_mask(&mut scores, S);
        softmax_rows(&mut scores, S);
        let mut out = vec![0.0f32; S * DH];
        for i in 0..S {
            for j in 0..S {
                let p = scores[i * S + j];
                for t in 0..DH {
                    out[i * DH + t] += p * v[j * DH + t];
                }
            }
        }
        (scores, out)
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "idx {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn sparse_attention_matches_dense_on_causal_pattern() {
        let q = randn_vec(S * DH, 1.0, 1);
        let k = randn_vec(S * DH, 1.0, 2);
        let v = randn_vec(S * DH, 1.0, 3);
        for spec in [
            PatternSpec::Causal,
            PatternSpec::LocalWindow { w: 2 },
            PatternSpec::LocalGlobal { w: 1, g: 1 },
            PatternSpec::Strided { w: 1, stride: 2 },
        ] {
            let lay = layout(spec);
            let scale = 1.0 / (DH as f32).sqrt();
            let mut p = vec![0.0; lay.data_len()];
            sdd_nt(&q, &k, S, DH, 1.0, &lay, CausalFill::None, &mut p);
            scores_to_probs(&mut p, &lay, scale, None);
            let mut out = vec![0.0; S * DH];
            dsd(&p, &v, S, DH, &lay, &mut out);

            let (dense_scores, dense_out) = dense_reference(&q, &k, &v, &lay.to_mask());
            let sparse_scores = block_data_to_dense(&p, &lay);
            assert_close(&sparse_scores, &dense_scores, 1e-4);
            assert_close(&out, &dense_out, 1e-4);
        }
    }

    #[test]
    fn dsd_tn_is_transpose_of_dsd() {
        let lay = layout(PatternSpec::LocalGlobal { w: 2, g: 1 });
        let p = randn_vec(lay.data_len(), 1.0, 4);
        let x = randn_vec(S * DH, 1.0, 5);
        let mut out = vec![0.0; S * DH];
        dsd_tn(&p, &x, S, DH, &lay, &mut out);
        // Oracle: dense transpose multiply.
        let dense_p = block_data_to_dense(&p, &lay);
        let mut expect = vec![0.0; S * DH];
        for i in 0..S {
            for j in 0..S {
                let pv = dense_p[i * S + j];
                for t in 0..DH {
                    expect[j * DH + t] += pv * x[i * DH + t];
                }
            }
        }
        assert_close(&out, &expect, 1e-4);
    }

    #[test]
    fn softmax_backward_matches_dense_reference() {
        let lay = layout(PatternSpec::LocalWindow { w: 2 });
        let q = randn_vec(S * DH, 1.0, 6);
        let k = randn_vec(S * DH, 1.0, 7);
        let mut y = vec![0.0; lay.data_len()];
        sdd_nt(&q, &k, S, DH, 1.0, &lay, CausalFill::None, &mut y);
        scores_to_probs(&mut y, &lay, 0.5, None);
        let dy = randn_vec(lay.data_len(), 1.0, 8);
        let mut dx = dy.clone();
        probs_backward(&y, &mut dx, &lay, 1.0);

        // Dense reference row by row.
        let dense_y = block_data_to_dense(&y, &lay);
        let dense_dy = block_data_to_dense(&dy, &lay);
        let mut dense_dx = vec![0.0; S * S];
        for r in 0..S {
            // Only positions active in the layout participate.
            let mut dot = 0.0;
            for c in 0..S {
                if lay.to_mask().get(r / B, c / B) {
                    dot += dense_y[r * S + c] * dense_dy[r * S + c];
                }
            }
            for c in 0..S {
                if lay.to_mask().get(r / B, c / B) {
                    dense_dx[r * S + c] = dense_y[r * S + c] * (dense_dy[r * S + c] - dot);
                }
            }
        }
        let sparse_dx = block_data_to_dense(&dx, &lay);
        assert_close(&sparse_dx, &dense_dx, 1e-4);
    }

    #[test]
    fn causal_fill_none_computes_masked_positions() {
        // With `None`, the kernel must fill the whole block with real
        // products (the pattern is trusted to handle masking downstream).
        let lay = layout(PatternSpec::Causal);
        let a = randn_vec(S * DH, 1.0, 20);
        let b = randn_vec(S * DH, 1.0, 21);
        let mut out = vec![f32::NAN; lay.data_len()];
        sdd_nt(&a, &b, S, DH, 1.0, &lay, CausalFill::None, &mut out);
        let dense = block_data_to_dense(&out, &lay);
        for br in 0..S / B {
            for e in lay.row_entries(br) {
                let bc = lay.col_idx[e] as usize;
                for i in 0..B {
                    for j in 0..B {
                        let (gi, gj) = (br * B + i, bc * B + j);
                        let expect = dot(&a[gi * DH..(gi + 1) * DH], &b[gj * DH..(gj + 1) * DH]);
                        assert!((dense[gi * S + gj] - expect).abs() < 1e-4 * (1.0 + expect.abs()));
                    }
                }
            }
        }
    }

    #[test]
    fn block_data_dense_roundtrip() {
        let lay = layout(PatternSpec::LocalGlobal { w: 1, g: 1 });
        let data = randn_vec(lay.data_len(), 1.0, 11);
        let dense = block_data_to_dense(&data, &lay);
        let back = dense_to_block_data(&dense, &lay);
        assert_eq!(data, back);
    }

    #[test]
    fn empty_layout_noops() {
        let mask = crate::BlockMask::square(S / B);
        let lay = BlockCsr::from_mask(&mask, B);
        let q = randn_vec(S * DH, 1.0, 12);
        let mut p: Vec<f32> = vec![];
        sdd_nt(&q, &q, S, DH, 1.0, &lay, CausalFill::NegInf, &mut p);
        scores_to_probs(&mut p, &lay, 1.0, None);
        let mut out = vec![7.0; S * DH];
        dsd(&p, &q, S, DH, &lay, &mut out);
        assert!(out.iter().all(|&v| v == 0.0), "no blocks -> zero output");
    }

    #[test]
    fn flops_scale_with_active_blocks() {
        // Not a timing test: verify data_len (proxy for work) is linear in
        // active blocks, the Fig. 12 premise.
        let full = layout(PatternSpec::Causal);
        let narrow = layout(PatternSpec::LocalWindow { w: 1 });
        assert!(full.data_len() > 2 * narrow.data_len());
    }
}
