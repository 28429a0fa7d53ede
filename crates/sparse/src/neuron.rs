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
//! them "dynamic-aware". Because each active slab is contiguous, each of the
//! kernels below is **one** grouped GEMM
//! ([`KernelBackend::gemm_grouped`](lx_kernels::KernelBackend::gemm_grouped))
//! over an offset table the [`NeuronBlockSet`] built when it was
//! constructed. With `ai` the position of active block `blk` in the set:
//!
//! ```text
//!   table   (A, B, C) window    used by                                 shape
//!   cols    (0,  blk, ai)       active_cols (fc1_forward, FC2's dA)     C[:, ai] = A · W_blkᵀ
//!   sum     (ai, blk, 0 )       fc2_forward, fc1_backward_input         C += A[:, ai] · W_blk
//!   slabs   (ai, 0,   blk)      fc1_grad_weights, fc2_grad_weights      dW_blk += A[:, ai]ᵀ · B
//! ```
//!
//! The compact activation matrix is addressed with `ld = active_width` and
//! window stride `block`, a weight slab with its natural leading dimension
//! and stride `block · ld`. The packed backend packs the shared activation
//! panel once per row chunk (not once per slab), and slabs whose packed
//! panels are adjacent collapse into one deeper microkernel call, so sparse
//! MLP work runs at the efficiency of the dense path it replaces.

use lx_kernels::{GemmGroup, GemmTable, Windows};

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

    /// The same active blocks renumbered to `0..n_active` over a grid that
    /// contains only them — the coordinate system of a weight buffer holding
    /// just the active slabs (gathered in `active` order). Used by the
    /// mixed-precision MLP path, which decodes only the active slabs of a
    /// half-stored weight to f32.
    pub fn compacted(&self) -> NeuronBlockSet {
        Self::all(self.n_active(), self.block_size)
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

    /// Blocks activated and deactivated going from `prev` to `self`:
    /// `added` are active here but not in `prev` (must be decoded fresh),
    /// `removed` were active in `prev` but not here (evicted). Blocks in
    /// both can be carried over — the incremental-slab-decode contract.
    pub fn diff(&self, prev: &NeuronBlockSet) -> BlockSetDiff {
        assert_eq!(
            self.n_blocks_total, prev.n_blocks_total,
            "diff needs matching block grids"
        );
        let (a, b) = (&self.active, &prev.active);
        let mut added = Vec::new();
        let mut removed = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                }
                (Some(&x), Some(&y)) if x < y => {
                    added.push(x);
                    i += 1;
                }
                (Some(_), Some(&y)) => {
                    removed.push(y);
                    j += 1;
                }
                (Some(&x), None) => {
                    added.push(x);
                    i += 1;
                }
                (None, Some(&y)) => {
                    removed.push(y);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        BlockSetDiff { added, removed }
    }
}

/// Result of [`NeuronBlockSet::diff`]: block indices newly activated and
/// newly deactivated relative to a previous set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlockSetDiff {
    pub added: Vec<u32>,
    pub removed: Vec<u32>,
}

/// FC1 forward: `z[r, a·b+t] = ⟨x_r, w1t[active[a]·b+t]⟩ (+ bias)`.
///
/// `z` is *compact*: `rows × active_neurons`, holding only active columns.
/// Each active block is `Z_a = X · W_aᵀ` against the contiguous column slab
/// `W_a`; `X` is one shared window.
pub fn fc1_forward(
    x: &[f32],
    rows: usize,
    w1t: &[f32],
    d_in: usize,
    bias: Option<&[f32]>,
    set: &NeuronBlockSet,
    z: &mut [f32],
) {
    active_cols(x, rows, w1t, d_in, set, 0.0, z);
    let (b, width) = (set.block_size, set.active_neurons());
    if let (Some(bias), true) = (bias, width > 0) {
        // After the complete product, like a fused bias epilogue.
        for z_row in z.chunks_exact_mut(width) {
            for (z_blk, &blk) in z_row.chunks_exact_mut(b).zip(&set.active) {
                let bias_blk = &bias[blk as usize * b..(blk as usize + 1) * b];
                for (v, &bv) in z_blk.iter_mut().zip(bias_blk) {
                    *v += bv;
                }
            }
        }
    }
}

/// FC2 forward: `y[r,:] = Σ_active a[r, blk]·w2_row(neuron) (+ bias)`.
///
/// `w2` is row-major `h × d_out`; `a` is compact `rows × active_neurons`.
/// Every active block accumulates `Y += A_blk · W2_blk` into the one output.
pub fn fc2_forward(
    a: &[f32],
    rows: usize,
    w2: &[f32],
    d_out: usize,
    bias: Option<&[f32]>,
    set: &NeuronBlockSet,
    y: &mut [f32],
) {
    let b = set.block_size;
    let width = set.active_neurons();
    assert_eq!(a.len(), rows * width, "fc2: a is rows×active");
    assert_eq!(w2.len(), set.total_neurons() * d_out, "fc2: w2 is h×d_out");
    assert_eq!(y.len(), rows * d_out, "fc2: y is rows×d_out");
    match bias {
        Some(bias) if d_out > 0 => {
            for y_row in y.chunks_exact_mut(d_out) {
                y_row.copy_from_slice(bias);
            }
        }
        _ => y.fill(0.0),
    }
    lx_kernels::backend().gemm_grouped(
        &GemmGroup {
            m: rows,
            k: b,
            n: d_out,
            a: Windows::normal(a, width, b),
            b: Windows::normal(w2, d_out, b * d_out),
            ldc: d_out,
            c_stride: 0,
            beta: 1.0,
            table: &set.sum,
        },
        y,
    );
}

/// The active columns of `X · Wᵀ` for a neuron-major `W` (`total_neurons ×
/// d`, row `n` belonging to neuron `n`): `out[r, a·b+t] = beta·out +
/// ⟨x_r, w[active[a]·b+t]⟩` over a compact `rows × active_neurons` output,
/// one shared `X` window against each active slab. This is FC1's forward
/// product (`W = W1ᵀ`), FC2's input gradient (`dA = dY · W2_activeᵀ`) and,
/// with `beta = 1`, the rank-r LoRA updates into those compact buffers.
pub fn active_cols(
    x: &[f32],
    rows: usize,
    w: &[f32],
    d: usize,
    set: &NeuronBlockSet,
    beta: f32,
    out: &mut [f32],
) {
    let b = set.block_size;
    let width = set.active_neurons();
    assert_eq!(x.len(), rows * d, "active cols: x is rows×d");
    debug_assert_eq!(
        w.len(),
        set.total_neurons() * d,
        "active cols: w is neurons×d"
    );
    assert_eq!(out.len(), rows * width, "active cols: out is rows×active");
    lx_kernels::backend().gemm_grouped(
        &GemmGroup {
            m: rows,
            k: d,
            n: b,
            a: Windows::normal(x, d, 0),
            b: Windows::transposed(w, d, b * d),
            ldc: width,
            c_stride: b,
            beta,
            table: &set.cols,
        },
        out,
    );
}

/// FC1 backward w.r.t. its input: `dx[r,:] = Σ_active dz[r, blk]·w1t[neuron]`.
/// Every active block accumulates `dX += dZ_blk · W_blk` into the one output.
pub fn fc1_backward_input(
    dz: &[f32],
    rows: usize,
    w1t: &[f32],
    d_in: usize,
    set: &NeuronBlockSet,
    dx: &mut [f32],
) {
    debug_assert_eq!(w1t.len(), set.total_neurons() * d_in);
    let b = set.block_size;
    let width = set.active_neurons();
    assert_eq!(dz.len(), rows * width);
    assert_eq!(dx.len(), rows * d_in);
    dx.fill(0.0);
    lx_kernels::backend().gemm_grouped(
        &GemmGroup {
            m: rows,
            k: b,
            n: d_in,
            a: Windows::normal(dz, width, b),
            b: Windows::normal(w1t, d_in, b * d_in),
            ldc: d_in,
            c_stride: 0,
            beta: 1.0,
            table: &set.sum,
        },
        dx,
    );
}

/// `dW_blk += G_blkᵀ · X` for every active block: `g` is the compact
/// `rows × active` gradient, `x` the shared `rows × d` operand, and block
/// `blk` owns the contiguous `b × d` slab of `dw`.
fn grad_slabs(g: &[f32], x: &[f32], rows: usize, d: usize, set: &NeuronBlockSet, dw: &mut [f32]) {
    let b = set.block_size;
    lx_kernels::backend().gemm_grouped(
        &GemmGroup {
            m: b,
            k: rows,
            n: d,
            a: Windows::transposed(g, set.active_neurons(), b),
            b: Windows::normal(x, d, 0),
            ldc: d,
            c_stride: b * d,
            beta: 1.0,
            table: &set.slabs,
        },
        dw,
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
        active_cols(&dy, ROWS, &w2, D_OUT, &set, 0.0, &mut da);
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
    fn overlap_and_diff_track_drift() {
        let a = NeuronBlockSet::from_indices(vec![0, 1, 2], 8, B);
        let b = NeuronBlockSet::from_indices(vec![1, 2, 5], 8, B);
        assert_eq!(a.intersection_count(&b), 2);
        assert!((a.overlap(&b) - 0.5).abs() < 1e-6); // 2 / 4
        let d = b.diff(&a);
        assert_eq!(d.added, vec![5]);
        assert_eq!(d.removed, vec![0]);
        // Identity and disjoint extremes.
        assert_eq!(a.overlap(&a), 1.0);
        assert!(a.diff(&a).added.is_empty() && a.diff(&a).removed.is_empty());
        let c = NeuronBlockSet::from_indices(vec![6, 7], 8, B);
        assert_eq!(a.overlap(&c), 0.0);
        // Empty ↔ full transitions.
        let empty = NeuronBlockSet::from_indices(vec![], 8, B);
        let full = NeuronBlockSet::all(8, B);
        assert_eq!(empty.overlap(&empty), 1.0);
        assert_eq!(empty.overlap(&full), 0.0);
        let up = full.diff(&empty);
        assert_eq!(up.added.len(), 8);
        assert!(up.removed.is_empty());
        let down = empty.diff(&full);
        assert!(down.added.is_empty());
        assert_eq!(down.removed.len(), 8);
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
