//! Neuron-centric block sets and the one block launch (paper §VI-B).
//!
//! When a ReLU MLP neuron is inactive for a whole batch, the corresponding
//! *column* of FC1 and *row* of FC2 drop out of both the forward and the
//! backward pass. Long Exposure filters neurons at block granularity, so a
//! [`NeuronBlockSet`] is a sorted list of active neuron *blocks*, and the
//! MLP stores a neuron dimension as the row dimension of each matrix:
//!
//! * FC1 weights are stored **neuron-major** (`w1t[d_out, d_in]`, i.e.
//!   column-major relative to the conventional `d_in × d_out` matrix) so an
//!   active output-neuron block is a contiguous `block·d_in` slab;
//! * FC2 weights stay **row-major** so an active input-neuron block is a
//!   contiguous `block·d_out` slab.
//!
//! This mirrors the paper's memory-coalescing layout choice and means the
//! kernels never convert data formats at runtime — the property that makes
//! them "dynamic-aware". A weight read by a launch is any [`BOperand`]: an
//! f16 or NF4 backbone is read where it lies, each active slab decoded as
//! the grouped launch packs it, so the products equal those over the
//! decoded f32 weight bit for bit. Because each active slab is contiguous,
//! every product is **one** [`launch`]: one grouped GEMM
//! ([`KernelBackend::gemm_grouped`](lx_kernels::KernelBackend::gemm_grouped))
//! over an offset table the [`NeuronBlockSet`] built when it was
//! constructed, picked by which operand the blocks do not span. With `ai`
//! the position of active block `blk` in the set, and the MLP's products
//! (`lx_model::linear::Linear` over the plan's compact columns):
//!
//! ```text
//!   table   (A, B, C) window    MLP products                         shape
//!   cols    (0,  blk, ai)       FC1 forward, FC2's dA                C[:, ai] = A · W_blkᵀ
//!   sum     (ai, blk, 0 )       FC2 forward, FC1's dX                C += A[:, ai] · W_blk
//!   slabs   (ai, 0,   blk)      dW1, dW2, FC1's LoRA dB, FC2's dA    dW_blk += A[:, ai]ᵀ · B
//! ```
//!
//! The same launch runs every product of `lx_model::linear`, over the same
//! tables: attention's heads are [`NeuronBlockSet::all`]`(heads, d/heads)`,
//! whose `cols` / `sum` / `slabs` tables are the per-head write, the
//! K-merged read and the per-head weight gradient, and a LoRA pair's
//! rank-r products run over the set of the side they touch. [`fc1_forward`]
//! and [`fc2_forward`] are the two forward launches over raw slices, for
//! operator benchmarks.
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
//! finishes the run's rows. The dense MLP is the same launches over
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
/// Each active block is `Z_a = X · W_aᵀ` against the contiguous neuron-major
/// slab `W_a` (`w1t` is `total_neurons × d_in`); `X` is one shared window.
/// `bias` has one value per neuron; block `a` takes its window after its
/// complete product.
pub fn fc1_forward<'w>(
    x: &[f32],
    rows: usize,
    w1t: impl Into<BOperand<'w>>,
    d_in: usize,
    bias: Option<&[f32]>,
    set: &NeuronBlockSet,
    z: &mut [f32],
) {
    let (w1t, b, width) = (w1t.into(), set.block_size, set.active_neurons());
    assert_eq!(x.len(), rows * d_in, "fc1: x is rows×d_in");
    debug_assert_eq!(w1t.len(), set.total_neurons() * d_in, "fc1: w1t is h×d_in");
    assert_eq!(z.len(), rows * width, "fc1: z is rows×active");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), set.total_neurons(), "fc1: one bias per neuron");
    }
    launch(
        set,
        (rows, d_in, b),
        Windows::normal(x, d_in, 0),
        Windows::transposed(w1t, d_in, b * d_in),
        z,
        (width, b),
        0.0,
        bias.map(|data| Bias { data, stride: b }),
    );
}

/// FC2 forward: `y[r,:] = Σ_active a[r, blk]·w2_row(neuron) (+ bias)`.
///
/// `w2` is row-major `h × d_out`; `a` is compact `rows × active_neurons`.
/// Every active block accumulates `Y += A_blk · W2_blk` into the one output
/// (one run of the `sum` table, its first task writing `y`), which takes
/// `bias` (`d_out` long) after its last block.
pub fn fc2_forward<'w>(
    a: &[f32],
    rows: usize,
    w2: impl Into<BOperand<'w>>,
    d_out: usize,
    bias: Option<&[f32]>,
    set: &NeuronBlockSet,
    y: &mut [f32],
) {
    let (w2, b, width) = (w2.into(), set.block_size, set.active_neurons());
    assert_eq!(a.len(), rows * width, "fc2: a is rows×active");
    assert_eq!(w2.len(), set.total_neurons() * d_out, "fc2: w2 is h×d_out");
    assert_eq!(y.len(), rows * d_out, "fc2: y is rows×d_out");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), d_out, "fc2: bias is d_out long");
    }
    launch(
        set,
        (rows, b, d_out),
        Windows::normal(a, width, b),
        Windows::normal(w2, d_out, b * d_out),
        y,
        (d_out, 0),
        0.0,
        bias.map(|data| Bias { data, stride: 0 }),
    );
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
}
