//! Neuron-centric block-sparse MLP kernels (paper §VI-B).
//!
//! When a ReLU MLP neuron is inactive for a whole batch, the corresponding
//! *column* of FC1 and *row* of FC2 drop out of both the forward and the
//! backward pass. Long Exposure filters neurons at block granularity, so the
//! kernels here operate on a sorted list of active neuron *blocks*:
//!
//! * FC1 weights are stored **neuron-major** (`w1t[d_out, d_in]`, i.e.
//!   column-major relative to the conventional `d_in × d_out` matrix) so an
//!   active output-neuron block is a contiguous `block·d_in` slab;
//! * FC2 weights stay **row-major** so an active input-neuron block is a
//!   contiguous `block·d_out` slab.
//!
//! This mirrors the paper's memory-coalescing layout choice and means the
//! kernels never convert data formats at runtime — the property that makes
//! them "dynamic-aware". The weight of the four operators that read one
//! ([`active_cols`], [`fc1_forward`], [`fc2_forward`],
//! [`fc1_backward_input`]) is any [`BOperand`]: an f16 or NF4 backbone is
//! read where it lies, each active slab decoded as the grouped launch packs
//! it, so the products equal those over the decoded f32 weight bit for bit.
//! Because each active slab is contiguous, each of the kernels below is
//! **one** [`launch`]: one grouped GEMM
//! ([`KernelBackend::gemm_grouped`](lx_kernels::KernelBackend::gemm_grouped))
//! over an offset table the [`NeuronBlockSet`] built when it was
//! constructed, picked by which operand the blocks do not span. With `ai`
//! the position of active block `blk` in the set:
//!
//! ```text
//!   table   (A, B, C) window    used by                                 shape
//!   cols    (0,  blk, ai)       active_cols (fc1_forward, FC2's dA)     C[:, ai] = A · W_blkᵀ
//!   sum     (ai, blk, 0 )       fc2_forward, fc1_backward_input         C += A[:, ai] · W_blk
//!   slabs   (ai, 0,   blk)      fc1_grad_weights, fc2_grad_weights      dW_blk += A[:, ai]ᵀ · B
//! ```
//!
//! The same launch runs every product of `lx_model::linear`, over the same
//! tables: attention's heads are [`NeuronBlockSet::all`]`(heads, d/heads)`,
//! whose `cols` / `sum` / `slabs` tables are the per-head write, the
//! K-merged read and the per-head weight gradient, and a LoRA pair's
//! rank-r products run over the set of the side they touch.
//!
//! The compact activation matrix is addressed with `ld = active_width` and
//! window stride `block`, a weight slab with its natural leading dimension
//! and stride `block · ld`. The packed backend runs a `cols` launch whose
//! windows lie side by side as one wide product that reads the activation
//! panel in place; otherwise it packs the shared panel once per row chunk
//! (not once per slab). Slabs whose packed panels are adjacent collapse
//! into one deeper microkernel call. The
//! forward biases ride the same launch ([`Bias`]): each `cols` run takes
//! its neuron block's window of FC1's bias (stride `block`), and the one
//! `sum` run takes all of FC2's (stride 0), added by the worker that
//! finishes the run's rows. The dense MLP is the same operators over
//! [`NeuronBlockSet::all`]`(1, d_ff)`: one block of every neuron, whose
//! one-task launches are the plain products.

use lx_kernels::{BOperand, Bias, GemmGroup, GemmOp, GemmTable, Windows};

/// Sorted set of active neuron blocks out of `n_blocks_total`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeuronBlockSet {
    pub block_size: usize,
    pub n_blocks_total: usize,
    /// Sorted, deduplicated active block indices. The offset tables below
    /// are derived from it at construction: build a new set rather than
    /// editing this in place.
    pub active: Vec<u32>,
    /// `(0, blk, ai)`, every task its own run: column windows of a compact
    /// `rows × active` output.
    cols: GemmTable,
    /// `(ai, blk, 0)`, one run: every slab accumulates into one output.
    sum: GemmTable,
    /// `(ai, 0, blk)`, every task its own run: one weight-gradient slab each.
    slabs: GemmTable,
}

impl NeuronBlockSet {
    /// `active` must be sorted, deduplicated and in range.
    fn new(active: Vec<u32>, n_blocks_total: usize, block_size: usize) -> Self {
        let blocks = || (0u32..).zip(active.iter().copied());
        let n = active.len() as u32;
        NeuronBlockSet {
            block_size,
            n_blocks_total,
            cols: GemmTable::each(blocks().map(|(ai, blk)| (0, blk, ai))),
            sum: GemmTable::new(blocks().map(|(ai, blk)| (ai, blk, 0)), vec![0, n]),
            slabs: GemmTable::each(blocks().map(|(ai, blk)| (ai, 0, blk))),
            active,
        }
    }

    /// All blocks active (the dense case).
    pub fn all(n_blocks_total: usize, block_size: usize) -> Self {
        Self::new(
            (0..n_blocks_total as u32).collect(),
            n_blocks_total,
            block_size,
        )
    }

    /// From a boolean per-block mask.
    pub fn from_mask(mask: &[bool], block_size: usize) -> Self {
        let active = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| a.then_some(i as u32))
            .collect();
        Self::new(active, mask.len(), block_size)
    }

    /// From an arbitrary (possibly unsorted) index list.
    pub fn from_indices(mut indices: Vec<u32>, n_blocks_total: usize, block_size: usize) -> Self {
        indices.sort_unstable();
        indices.dedup();
        assert!(
            indices
                .last()
                .is_none_or(|&l| (l as usize) < n_blocks_total),
            "active block out of range"
        );
        Self::new(indices, n_blocks_total, block_size)
    }

    pub fn n_active(&self) -> usize {
        self.active.len()
    }

    /// Active neurons (blocks × block size).
    pub fn active_neurons(&self) -> usize {
        self.active.len() * self.block_size
    }

    /// Total neurons covered by the grid.
    pub fn total_neurons(&self) -> usize {
        self.n_blocks_total * self.block_size
    }

    pub fn density(&self) -> f32 {
        if self.n_blocks_total == 0 {
            return 0.0;
        }
        self.active.len() as f32 / self.n_blocks_total as f32
    }

    pub fn sparsity(&self) -> f32 {
        1.0 - self.density()
    }

    /// Number of active blocks present in both sets (merge walk over the
    /// sorted index lists).
    pub fn intersection_count(&self, other: &NeuronBlockSet) -> usize {
        let (a, b) = (&self.active, &other.active);
        let (mut i, mut j, mut inter) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        inter
    }

    /// Jaccard similarity `|A ∩ B| / |A ∪ B|` of the active block sets
    /// (1.0 when both are empty). The shadowy-sparsity drift signal: plans
    /// drift slowly, so consecutive steps' sets overlap highly.
    pub fn overlap(&self, other: &NeuronBlockSet) -> f32 {
        assert_eq!(
            self.n_blocks_total, other.n_blocks_total,
            "overlap needs matching block grids"
        );
        let inter = self.intersection_count(other);
        let union = self.active.len() + other.active.len() - inter;
        if union == 0 {
            1.0
        } else {
            inter as f32 / union as f32
        }
    }
}

/// One grouped launch over the blocks of `set`, through the table it picks:
/// `C = beta·C + op(A)·op(B)` on `m×k×n` windows, then the [`Bias`], where
/// window `i` of an operand starts `i·stride` on. The operand that does not
/// span the blocks — the one with stride 0 — names the table:
///
/// * a shared C: `sum`, one run K-merged across the blocks in order (bit for
///   bit the uncut product while its depth fits one k-block);
/// * else a shared A: `cols`, one run per block, each writing its C window;
/// * else (a shared B): `slabs`, likewise one run per block.
///
/// The tables index the compact operand by `ai` and the full one by `blk`
/// (module table); over [`NeuronBlockSet::all`] the two are one index, so any
/// operand may take either role, and one block has one table whatever the
/// strides. An empty set still writes its K-merged output: a `k = 0`
/// product, which scales C by `beta` and adds the bias.
#[allow(clippy::too_many_arguments)]
pub fn launch(
    set: &NeuronBlockSet,
    (m, k, n): (usize, usize, usize),
    a: Windows<&[f32]>,
    b: Windows<BOperand<'_>>,
    c: &mut [f32],
    (ldc, c_stride): (usize, usize),
    beta: f32,
    bias: Option<Bias<'_>>,
) {
    let table = if c_stride == 0 {
        if set.active.is_empty() {
            let op = GemmOp {
                bias: bias.map(|b| b.data),
                ..GemmOp::nn(m, 0, n, &[], 0, BOperand::F32(&[]), n.max(1))
            };
            return lx_kernels::backend().gemm(&op, c, ldc.max(1), beta);
        }
        &set.sum
    } else if a.stride == 0 {
        &set.cols
    } else {
        &set.slabs
    };
    let g = GemmGroup {
        m,
        k,
        n,
        a,
        b,
        ldc,
        c_stride,
        beta,
        table,
        bias,
    };
    lx_kernels::backend().gemm_grouped(&g, c);
}

/// FC1 forward: `z[r, a·b+t] = ⟨x_r, w1t[active[a]·b+t]⟩ (+ bias)`.
///
/// `z` is *compact*: `rows × active_neurons`, holding only active columns.
/// Each active block is `Z_a = X · W_aᵀ` against the contiguous column slab
/// `W_a`; `X` is one shared window. `bias` has one value per neuron; block
/// `a` takes its window after its complete product.
pub fn fc1_forward<'w>(
    x: &[f32],
    rows: usize,
    w1t: impl Into<BOperand<'w>>,
    d_in: usize,
    bias: Option<&[f32]>,
    set: &NeuronBlockSet,
    z: &mut [f32],
) {
    if let Some(bias) = bias {
        assert_eq!(bias.len(), set.total_neurons(), "fc1: one bias per neuron");
    }
    let bias = bias.map(|data| Bias {
        data,
        stride: set.block_size,
    });
    cols(x, rows, w1t.into(), d_in, set, bias, z);
}

/// FC2 forward: `y[r,:] = Σ_active a[r, blk]·w2_row(neuron) (+ bias)`.
///
/// `w2` is row-major `h × d_out`; `a` is compact `rows × active_neurons`.
/// Every active block accumulates `Y += A_blk · W2_blk` into the one output,
/// which takes `bias` (`d_out` long) after its last block.
pub fn fc2_forward<'w>(
    a: &[f32],
    rows: usize,
    w2: impl Into<BOperand<'w>>,
    d_out: usize,
    bias: Option<&[f32]>,
    set: &NeuronBlockSet,
    y: &mut [f32],
) {
    let w2 = w2.into();
    assert_eq!(
        a.len(),
        rows * set.active_neurons(),
        "fc2: a is rows×active"
    );
    assert_eq!(w2.len(), set.total_neurons() * d_out, "fc2: w2 is h×d_out");
    assert_eq!(y.len(), rows * d_out, "fc2: y is rows×d_out");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), d_out, "fc2: bias is d_out long");
    }
    active_sum(a, rows, w2, d_out, set, bias, y);
}

/// `out = Σ_active A[:, ai] · W_blk (+ bias)` over the compact `rows ×
/// active` `a` and a `total_neurons × d` row-major `w`: one run of the `sum`
/// table, its first task writing `out` (beta 0), the `d`-long bias added
/// after its last.
fn active_sum(
    a: &[f32],
    rows: usize,
    w: BOperand<'_>,
    d: usize,
    set: &NeuronBlockSet,
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    let b = set.block_size;
    launch(
        set,
        (rows, b, d),
        Windows::normal(a, set.active_neurons(), b),
        Windows::normal(w, d, b * d),
        out,
        (d, 0),
        0.0,
        bias.map(|data| Bias { data, stride: 0 }),
    );
}

/// The active columns of `X · Wᵀ` for a neuron-major `W` (`total_neurons ×
/// d`, row `n` belonging to neuron `n`): `out[r, a·b+t] = ⟨x_r,
/// w[active[a]·b+t]⟩` over a compact `rows × active_neurons` output, one
/// shared `X` window against each active slab. This is FC1's forward
/// product (`W = W1ᵀ`) and FC2's input gradient (`dA = dY · W2_activeᵀ`).
pub fn active_cols<'w>(
    x: &[f32],
    rows: usize,
    w: impl Into<BOperand<'w>>,
    d: usize,
    set: &NeuronBlockSet,
    out: &mut [f32],
) {
    cols(x, rows, w.into(), d, set, None, out)
}

/// [`active_cols`] with each block's [`Bias`] window added after its
/// complete product.
fn cols(
    x: &[f32],
    rows: usize,
    w: BOperand<'_>,
    d: usize,
    set: &NeuronBlockSet,
    bias: Option<Bias<'_>>,
    out: &mut [f32],
) {
    let (b, width) = (set.block_size, set.active_neurons());
    assert_eq!(x.len(), rows * d, "active cols: x is rows×d");
    debug_assert_eq!(
        w.len(),
        set.total_neurons() * d,
        "active cols: w is neurons×d"
    );
    assert_eq!(out.len(), rows * width, "active cols: out is rows×active");
    launch(
        set,
        (rows, d, b),
        Windows::normal(x, d, 0),
        Windows::transposed(w, d, b * d),
        out,
        (width, b),
        0.0,
        bias,
    );
}

/// FC1 backward w.r.t. its input: `dx[r,:] = Σ_active dz[r, blk]·w1t[neuron]`.
/// Every active block accumulates `dX += dZ_blk · W_blk` into the one output.
pub fn fc1_backward_input<'w>(
    dz: &[f32],
    rows: usize,
    w1t: impl Into<BOperand<'w>>,
    d_in: usize,
    set: &NeuronBlockSet,
    dx: &mut [f32],
) {
    let w1t = w1t.into();
    debug_assert_eq!(w1t.len(), set.total_neurons() * d_in);
    assert_eq!(dz.len(), rows * set.active_neurons());
    assert_eq!(dx.len(), rows * d_in);
    active_sum(dz, rows, w1t, d_in, set, None, dx);
}

/// `dW_blk += G_blkᵀ · X` for every active block: `g` is the compact
/// `rows × active` gradient, `x` the shared `rows × d` operand, and block
/// `blk` owns the contiguous `b × d` slab of `dw`.
fn grad_slabs(g: &[f32], x: &[f32], rows: usize, d: usize, set: &NeuronBlockSet, dw: &mut [f32]) {
    let b = set.block_size;
    launch(
        set,
        (b, rows, d),
        Windows::transposed(g, set.active_neurons(), b),
        Windows::normal(x, d, 0),
        dw,
        (d, b * d),
        1.0,
        None,
    );
}

/// Accumulate FC1 weight gradients for *active columns only*:
/// `dw1t[neuron] += Σ_r x_r · dz[r, compact(neuron)]`.
/// Per block: `dW_blk += dZ_blkᵀ · X` into the block's contiguous column
/// slab; active slabs are disjoint, so blocks parallelise.
pub fn fc1_grad_weights(
    x: &[f32],
    dz: &[f32],
    rows: usize,
    d_in: usize,
    set: &NeuronBlockSet,
    dw1t: &mut [f32],
) {
    debug_assert_eq!(dw1t.len(), set.total_neurons() * d_in);
    assert_eq!(x.len(), rows * d_in);
    assert_eq!(dz.len(), rows * set.active_neurons());
    grad_slabs(dz, x, rows, d_in, set, dw1t);
}

/// Accumulate the FC1 bias gradient of the *active neurons only*:
/// `dbias[neuron] += Σ_r dz[r, compact(neuron)]`, row by row. Separate from
/// [`fc1_grad_weights`] because BitFit trains the bias of a frozen FC1.
pub fn fc1_grad_bias(dz: &[f32], set: &NeuronBlockSet, dbias: &mut [f32]) {
    let b = set.block_size;
    let width = set.active_neurons();
    assert_eq!(dbias.len(), set.total_neurons());
    if width == 0 {
        return;
    }
    for dz_row in dz.chunks_exact(width) {
        for (dz_blk, &blk) in dz_row.chunks_exact(b).zip(&set.active) {
            let dbias_blk = &mut dbias[blk as usize * b..(blk as usize + 1) * b];
            for (g, &v) in dbias_blk.iter_mut().zip(dz_blk) {
                *g += v;
            }
        }
    }
}

/// Accumulate FC2 weight gradients for *active rows only*:
/// `dw2_row(neuron) += Σ_r a[r, compact(neuron)] · dy_r`.
/// Per block: `dW2_blk += A_blkᵀ · dY` into the block's contiguous row slab.
pub fn fc2_grad_weights(
    a: &[f32],
    dy: &[f32],
    rows: usize,
    d_out: usize,
    set: &NeuronBlockSet,
    dw2: &mut [f32],
) {
    assert_eq!(a.len(), rows * set.active_neurons());
    assert_eq!(dy.len(), rows * d_out);
    assert_eq!(dw2.len(), set.total_neurons() * d_out);
    grad_slabs(a, dy, rows, d_out, set, dw2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lx_tensor::gemm::{gemm, gemm_nt};
    use lx_tensor::rng::randn_vec;

    const ROWS: usize = 6;
    const D_IN: usize = 10;
    const H: usize = 16; // 4 blocks of 4
    const D_OUT: usize = 12;
    const B: usize = 4;

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "idx {i}: {x} vs {y}"
            );
        }
    }

    /// Neuron-major FC1 weight `w1t[H, D_IN]`: row `n` is neuron `n`'s slab.
    fn w1t(seed: u64) -> Vec<f32> {
        randn_vec(H * D_IN, 1.0, seed)
    }

    fn dense_fc1(x: &[f32], w1t: &[f32], bias: &[f32]) -> Vec<f32> {
        let mut z = vec![0.0; ROWS * H];
        gemm_nt(ROWS, D_IN, H, x, w1t, &mut z, 0.0);
        for r in 0..ROWS {
            for c in 0..H {
                z[r * H + c] += bias[c];
            }
        }
        z
    }

    #[test]
    fn block_set_constructors() {
        let all = NeuronBlockSet::all(4, 8);
        assert_eq!(all.density(), 1.0);
        assert_eq!(all.active_neurons(), 32);
        let m = NeuronBlockSet::from_mask(&[true, false, true, false], 8);
        assert_eq!(m.active, vec![0, 2]);
        assert!((m.sparsity() - 0.5).abs() < 1e-6);
        let i = NeuronBlockSet::from_indices(vec![3, 1, 1], 4, 8);
        assert_eq!(i.active, vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_set_range_check() {
        NeuronBlockSet::from_indices(vec![4], 4, 8);
    }

    #[test]
    fn fc1_dense_set_matches_gemm() {
        let x = randn_vec(ROWS * D_IN, 1.0, 2);
        let w1t = w1t(3);
        let bias = randn_vec(H, 0.5, 4);
        let set = NeuronBlockSet::all(H / B, B);
        let mut z = vec![0.0; ROWS * H];
        fc1_forward(&x, ROWS, &w1t, D_IN, Some(&bias), &set, &mut z);
        assert_close(&z, &dense_fc1(&x, &w1t, &bias), 1e-4);
    }

    #[test]
    fn fc1_sparse_set_selects_columns() {
        let x = randn_vec(ROWS * D_IN, 1.0, 5);
        let w1t = w1t(6);
        let bias = vec![0.0; H];
        let set = NeuronBlockSet::from_indices(vec![0, 2], H / B, B);
        let mut z = vec![0.0; ROWS * set.active_neurons()];
        fc1_forward(&x, ROWS, &w1t, D_IN, Some(&bias), &set, &mut z);
        let dense = dense_fc1(&x, &w1t, &bias);
        for r in 0..ROWS {
            for (ai, &blk) in set.active.iter().enumerate() {
                for t in 0..B {
                    let neuron = blk as usize * B + t;
                    assert!(
                        (z[r * 8 + ai * B + t] - dense[r * H + neuron]).abs() < 1e-4,
                        "row {r} neuron {neuron}"
                    );
                }
            }
        }
    }

    #[test]
    fn fc2_dense_set_matches_gemm() {
        let a = randn_vec(ROWS * H, 1.0, 7);
        let w2 = randn_vec(H * D_OUT, 1.0, 8);
        let bias = randn_vec(D_OUT, 0.5, 9);
        let set = NeuronBlockSet::all(H / B, B);
        let mut y = vec![0.0; ROWS * D_OUT];
        fc2_forward(&a, ROWS, &w2, D_OUT, Some(&bias), &set, &mut y);
        let mut expect = vec![0.0; ROWS * D_OUT];
        gemm(ROWS, H, D_OUT, &a, &w2, &mut expect, 0.0);
        for r in 0..ROWS {
            for c in 0..D_OUT {
                expect[r * D_OUT + c] += bias[c];
            }
        }
        assert_close(&y, &expect, 1e-4);
    }

    #[test]
    fn fc2_bias_follows_the_complete_product() {
        // The bias is added once the active blocks have all accumulated:
        // bitwise the bias-free product followed by a bias pass, never the
        // bias folded in ahead of the first block.
        // Blocks of 288 neurons span more than one kc block, so the kernel
        // carries C between k-blocks, where the order would show.
        let (b, blocks) = (288, 3);
        let set = NeuronBlockSet::from_indices(vec![0, 2], blocks, b);
        let a = randn_vec(ROWS * set.active_neurons(), 1.0, 24);
        let w2 = randn_vec(blocks * b * D_OUT, 1.0, 25);
        let bias = randn_vec(D_OUT, 3.0, 26);
        let mut y = vec![f32::NAN; ROWS * D_OUT];
        fc2_forward(&a, ROWS, &w2, D_OUT, Some(&bias), &set, &mut y);
        let mut expect = vec![f32::NAN; ROWS * D_OUT];
        fc2_forward(&a, ROWS, &w2, D_OUT, None, &set, &mut expect);
        for row in expect.chunks_exact_mut(D_OUT) {
            for (v, &bv) in row.iter_mut().zip(&bias) {
                *v += bv;
            }
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y), bits(&expect));
    }

    #[test]
    fn fc1_bias_follows_the_complete_product() {
        // Each active block takes its own bias window once its product is
        // complete: bitwise the bias-free product followed by a bias pass.
        // `d_in` spans two kc blocks, so C is carried between k-blocks.
        let d_in = 300;
        let set = NeuronBlockSet::from_indices(vec![0, 2, 3], H / B, B);
        let width = set.active_neurons();
        let x = randn_vec(ROWS * d_in, 1.0, 27);
        let w1t = randn_vec(H * d_in, 1.0, 28);
        let bias = randn_vec(H, 3.0, 29);
        let mut z = vec![f32::NAN; ROWS * width];
        fc1_forward(&x, ROWS, &w1t, d_in, Some(&bias), &set, &mut z);
        let mut expect = vec![f32::NAN; ROWS * width];
        fc1_forward(&x, ROWS, &w1t, d_in, None, &set, &mut expect);
        for row in expect.chunks_exact_mut(width) {
            for (blk, &a) in row.chunks_exact_mut(B).zip(&set.active) {
                for (v, &bv) in blk.iter_mut().zip(&bias[a as usize * B..]) {
                    *v += bv;
                }
            }
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&z), bits(&expect));
    }

    /// A bias covering only the active blocks is still the wrong length.
    #[test]
    #[should_panic(expected = "fc1: one bias per neuron")]
    fn fc1_rejects_a_bias_shorter_than_every_neuron() {
        let set = NeuronBlockSet::from_indices(vec![0], H / B, B);
        let x = randn_vec(ROWS * D_IN, 1.0, 30);
        let mut z = vec![0.0; ROWS * B];
        fc1_forward(&x, ROWS, &w1t(31), D_IN, Some(&[0.0; B]), &set, &mut z);
    }

    #[test]
    #[should_panic(expected = "fc2: bias is d_out long")]
    fn fc2_rejects_a_short_bias() {
        let set = NeuronBlockSet::all(H / B, B);
        let a = randn_vec(ROWS * H, 1.0, 32);
        let w2 = randn_vec(H * D_OUT, 1.0, 33);
        let mut y = vec![0.0; ROWS * D_OUT];
        fc2_forward(&a, ROWS, &w2, D_OUT, Some(&[0.0; D_OUT - 1]), &set, &mut y);
    }

    #[test]
    fn fc2_sparse_equals_dense_with_zeroed_inactive() {
        let set = NeuronBlockSet::from_indices(vec![1, 3], H / B, B);
        let a_compact = randn_vec(ROWS * set.active_neurons(), 1.0, 10);
        let w2 = randn_vec(H * D_OUT, 1.0, 11);
        let mut y = vec![0.0; ROWS * D_OUT];
        fc2_forward(&a_compact, ROWS, &w2, D_OUT, None, &set, &mut y);
        // Expand compact A to full H with zeros in inactive blocks.
        let mut a_full = vec![0.0; ROWS * H];
        for r in 0..ROWS {
            for (ai, &blk) in set.active.iter().enumerate() {
                for t in 0..B {
                    a_full[r * H + blk as usize * B + t] = a_compact[r * 8 + ai * B + t];
                }
            }
        }
        let mut expect = vec![0.0; ROWS * D_OUT];
        gemm(ROWS, H, D_OUT, &a_full, &w2, &mut expect, 0.0);
        assert_close(&y, &expect, 1e-4);
    }

    #[test]
    fn backward_input_paths_match_dense() {
        let set = NeuronBlockSet::from_indices(vec![0, 3], H / B, B);
        let width = set.active_neurons();
        let w1t = w1t(12);
        let w2 = randn_vec(H * D_OUT, 1.0, 13);
        let dy = randn_vec(ROWS * D_OUT, 1.0, 14);
        let dz = randn_vec(ROWS * width, 1.0, 15);

        let mut da = vec![0.0; ROWS * width];
        active_cols(&dy, ROWS, &w2, D_OUT, &set, &mut da);
        // Oracle: dY · W2ᵀ then gather active columns.
        let mut da_full = vec![0.0; ROWS * H];
        for r in 0..ROWS {
            for n in 0..H {
                let mut acc = 0.0;
                for c in 0..D_OUT {
                    acc += dy[r * D_OUT + c] * w2[n * D_OUT + c];
                }
                da_full[r * H + n] = acc;
            }
        }
        for r in 0..ROWS {
            for (ai, &blk) in set.active.iter().enumerate() {
                for t in 0..B {
                    assert!(
                        (da[r * width + ai * B + t] - da_full[r * H + blk as usize * B + t]).abs()
                            < 1e-4
                    );
                }
            }
        }

        let mut dx = vec![0.0; ROWS * D_IN];
        fc1_backward_input(&dz, ROWS, &w1t, D_IN, &set, &mut dx);
        // Oracle: scatter dz to full width then dZ · W1ᵀ.
        let mut dz_full = vec![0.0; ROWS * H];
        for r in 0..ROWS {
            for (ai, &blk) in set.active.iter().enumerate() {
                for t in 0..B {
                    dz_full[r * H + blk as usize * B + t] = dz[r * width + ai * B + t];
                }
            }
        }
        let mut expect = vec![0.0; ROWS * D_IN];
        for r in 0..ROWS {
            for n in 0..H {
                let g = dz_full[r * H + n];
                for i in 0..D_IN {
                    expect[r * D_IN + i] += g * w1t[n * D_IN + i];
                }
            }
        }
        assert_close(&dx, &expect, 1e-4);
    }

    #[test]
    fn weight_gradients_touch_only_active_blocks() {
        let set = NeuronBlockSet::from_indices(vec![2], H / B, B);
        let width = set.active_neurons();
        let x = randn_vec(ROWS * D_IN, 1.0, 16);
        let dz = randn_vec(ROWS * width, 1.0, 17);
        let mut dw1t = vec![0.0; H * D_IN];
        let mut dbias = vec![0.0f32; H];
        fc1_grad_weights(&x, &dz, ROWS, D_IN, &set, &mut dw1t);
        fc1_grad_bias(&dz, &set, &mut dbias);
        let slab = |n: usize| &dw1t[n * D_IN..(n + 1) * D_IN];
        #[allow(clippy::needless_range_loop)]
        for n in 0..H {
            let in_active = (8..12).contains(&n);
            let col_nonzero = slab(n).iter().any(|&v| v != 0.0);
            assert_eq!(col_nonzero, in_active, "neuron {n}");
            assert_eq!(dbias[n] != 0.0, in_active, "bias {n}");
        }
        // Check one value against the naive sum.
        let n = 9;
        let t = n - 8;
        let mut expect = vec![0.0; D_IN];
        for r in 0..ROWS {
            let g = dz[r * width + t];
            for i in 0..D_IN {
                expect[i] += g * x[r * D_IN + i];
            }
        }
        assert_close(slab(n), &expect, 1e-4);

        let dy = randn_vec(ROWS * D_OUT, 1.0, 18);
        let a = randn_vec(ROWS * width, 1.0, 19);
        let mut dw2 = vec![0.0; H * D_OUT];
        fc2_grad_weights(&a, &dy, ROWS, D_OUT, &set, &mut dw2);
        for n in 0..H {
            let in_active = (8..12).contains(&n);
            let row_nonzero = dw2[n * D_OUT..(n + 1) * D_OUT].iter().any(|&v| v != 0.0);
            assert_eq!(row_nonzero, in_active, "w2 row {n}");
        }
    }

    #[test]
    fn overlap_tracks_drift() {
        let a = NeuronBlockSet::from_indices(vec![0, 1, 2], 8, B);
        let b = NeuronBlockSet::from_indices(vec![1, 2, 5], 8, B);
        assert_eq!(a.intersection_count(&b), 2);
        assert!((a.overlap(&b) - 0.5).abs() < 1e-6); // 2 / 4
                                                     // Identity and disjoint extremes.
        assert_eq!(a.overlap(&a), 1.0);
        let c = NeuronBlockSet::from_indices(vec![6, 7], 8, B);
        assert_eq!(a.overlap(&c), 0.0);
        // Empty ↔ full transitions.
        let empty = NeuronBlockSet::from_indices(vec![], 8, B);
        let full = NeuronBlockSet::all(8, B);
        assert_eq!(empty.overlap(&empty), 1.0);
        assert_eq!(empty.overlap(&full), 0.0);
    }

    #[test]
    fn empty_active_set_is_harmless() {
        let set = NeuronBlockSet::from_indices(vec![], H / B, B);
        let x = randn_vec(ROWS * D_IN, 1.0, 22);
        let mut z: Vec<f32> = vec![];
        fc1_forward(&x, ROWS, &vec![0.0; H * D_IN], D_IN, None, &set, &mut z);
        let bias = randn_vec(D_OUT, 1.0, 23);
        let mut y = vec![0.0; ROWS * D_OUT];
        fc2_forward(
            &[],
            ROWS,
            &vec![0.0; H * D_OUT],
            D_OUT,
            Some(&bias),
            &set,
            &mut y,
        );
        for r in 0..ROWS {
            assert_close(&y[r * D_OUT..(r + 1) * D_OUT], &bias, 1e-6);
        }
        let mut dw1 = vec![0.0; H * D_IN];
        fc1_grad_weights(&x, &[], ROWS, D_IN, &set, &mut dw1);
        assert!(dw1.iter().all(|&v| v == 0.0));
    }
}
