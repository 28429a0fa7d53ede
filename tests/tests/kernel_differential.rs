//! Differential property tests, table-driven through the single
//! [`KernelBackend::gemm`] entry point: one grid over B-operand storage kind
//! × B layout × epilogue × backend × (contiguous | strided) C. The `Packed`
//! backend (including its runtime-detected SIMD microkernel, when the host
//! has one) must match the `Reference` scalar oracle bit-tolerantly (≤1e-4
//! relative) on every cell, across odd and degenerate shapes; each
//! backend's reduced-storage cells against its own f32 kernel on the decoded
//! B, fused-vs-unfused epilogues and parallel-vs-sequential runs must match
//! **bitwise**. The grouped entry point
//! ([`KernelBackend::gemm_grouped`]) has its own grid: `Packed` grouped vs
//! the `Reference` per-task loop over the six offset-table shapes the sparse
//! crate launches (≤1e-4), every arm **bitwise** against the per-task chain
//! definition written out as scalar code (in-place A windows, the 16×16
//! tile, K-merged runs, the folded beta), and bitwise equality of one group
//! across sequential mode, private pools of 1, 2 and 4 threads, and every
//! FMA microkernel arm. The
//! block-sparse / neuron-sparse operators themselves ride along at the
//! bottom.
//!
//! Shape axes are seeded sweeps, not proptest: the workspace is offline, and
//! deterministic sweeps reproduce exactly in CI.

use lx_kernels::{
    BOperand, Epilogue, GemmGroup, GemmOp, GemmTable, Isa, KernelBackend, Layout, Observed,
    Windows, AUTO, MR, NR, PACKED, REFERENCE,
};
use lx_parallel::ThreadPool;
use lx_sparse::attention::{block_data_to_dense, dsd, dsd_tn, sdd_nt, CausalFill};
use lx_sparse::neuron::{fc1_forward, fc2_forward, NeuronBlockSet};
use lx_sparse::patterns::PatternSpec;
use lx_sparse::BlockCsr;
use lx_tensor::rng::randn_vec;
use lx_tensor::{BRef, Dtype, Reduced, Tensor};

const TOL: f32 = 1e-4;

fn assert_close(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert!(
            (x - y).abs() <= TOL * (1.0 + y.abs()),
            "{what}: idx {i}: {x} vs {y}"
        );
    }
}

fn assert_bits(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: idx {i}: {x} vs {y} (bitwise)"
        );
    }
}

/// The sweep axis: degenerate, around both register tiles, around the KC
/// cache block, and a larger-than-one-block size.
fn interesting_sizes() -> Vec<usize> {
    let mut v = vec![0, 1, 3, MR - 1, MR, MR + 1, NR - 1, NR, NR + 1, 40];
    v.sort_unstable();
    v.dedup();
    v
}

/// The reduced grid the non-f32 storage kinds sweep where the f32 kind takes
/// the full [`interesting_sizes`] cube.
const REDUCED_SIZES: [usize; 5] = [0, 1, MR, NR + 1, 40];

const BACKENDS: [&dyn KernelBackend; 2] = [&REFERENCE, &PACKED];
const LAYOUTS: [Layout; 2] = [Layout::Normal, Layout::Transposed];

/// Storage kinds of the B operand — one per [`BOperand`] variant.
const KINDS: [Dtype; 3] = [Dtype::F32, Dtype::F16, Dtype::Nf4Block];

/// An owned `rows × cols` B matrix stored at one [`Dtype`].
struct BMat {
    dense: Tensor,
    /// `None` for f32: the operand is `dense` itself.
    reduced: Option<Reduced>,
}

impl BMat {
    fn encode(kind: Dtype, dense: &[f32], rows: usize, cols: usize) -> Self {
        let dense = Tensor::from_vec(dense.to_vec(), &[rows, cols]);
        let reduced = (kind != Dtype::F32).then(|| Reduced::from_tensor(&dense, kind));
        BMat { dense, reduced }
    }

    /// Random B for a `k×n` product stored in `layout`.
    fn random(kind: Dtype, layout: Layout, k: usize, n: usize, seed: u64) -> Self {
        let (rows, cols) = match layout {
            Layout::Normal => (k, n),
            Layout::Transposed => (n, k),
        };
        Self::encode(kind, &randn_vec(rows * cols, 1.0, seed), rows, cols)
    }

    fn operand(&self) -> BOperand<'_> {
        match &self.reduced {
            Some(r) => BRef::from(r).operand(),
            None => BRef::from(&self.dense).operand(),
        }
    }

    /// The exact f32 values the storage holds — the decode-up-front oracle B
    /// (read through the elementwise accessor, independent of the row
    /// decoders under test).
    fn decoded(&self) -> Vec<f32> {
        let operand = self.operand();
        (0..operand.len()).map(|i| operand.get(i)).collect()
    }
}

/// Contiguous `A·op(B)` with `beta`/`ep` into a copy of `c0`.
#[allow(clippy::too_many_arguments)]
fn product<'a>(
    be: &dyn KernelBackend,
    (m, k, n): (usize, usize, usize),
    a: &'a [f32],
    b: impl Into<BOperand<'a>>,
    b_layout: Layout,
    c0: &[f32],
    beta: f32,
    ep: Epilogue<'_>,
) -> Vec<f32> {
    let mut c = c0.to_vec();
    let op = GemmOp::contiguous(m, k, n, a, Layout::Normal, b, b_layout);
    be.gemm(&op, &mut c, n.max(1), beta, ep);
    c
}

/// Apply `ep` to an `m×n` window of `c` (row stride `ldc`) the way the
/// pre-fusion model code did: a full bias pass, then a full activation pass.
/// The fused write-back must reproduce this bit-for-bit — per element the
/// same scalar ops in the same order.
fn manual_epilogue(c: &mut [f32], m: usize, n: usize, ldc: usize, ep: Epilogue<'_>) {
    let (Epilogue::Bias(bias) | Epilogue::BiasGelu(bias)) = ep else {
        return;
    };
    for r in 0..m {
        for (v, b) in c[r * ldc..r * ldc + n].iter_mut().zip(bias) {
            *v += b;
        }
    }
    if matches!(ep, Epilogue::BiasGelu(_)) {
        for r in 0..m {
            for v in &mut c[r * ldc..r * ldc + n] {
                *v = lx_kernels::gelu(*v);
            }
        }
    }
}

/// Every storage kind × B layout over the shape cube: both backends' fused
/// path (pack-time decode in `Packed`, on-load decode in `Reference`) must
/// match the oracle of "decode all of B to f32, then run the reference f32
/// kernel". Decoding is exact, so each backend must additionally be
/// **bit-identical** to its own f32 kernel on the decoded B — `Reference`
/// via its on-load row decode, `Packed` via the pack-time decode. The f32
/// rows also cover the `Aᵀ·B` shape.
#[test]
fn packed_matches_reference_on_operand_grid() {
    let sizes = interesting_sizes();
    let mut seed = 0u64;
    for &m in &sizes {
        for &k in &sizes {
            for &n in &sizes {
                seed += 1;
                let dims = (m, k, n);
                let a = randn_vec(m * k, 1.0, seed);
                let c0 = randn_vec(m * n, 1.0, seed + 2000);
                for kind in KINDS {
                    for layout in LAYOUTS {
                        // Normal runs with beta = 0.5 to check both the
                        // product and the C pre-scaling; Transposed
                        // overwrites.
                        let beta = if layout == Layout::Normal { 0.5 } else { 0.0 };
                        let b = BMat::random(kind, layout, k, n, seed + 1000);
                        let dec = b.decoded();
                        let what = format!("{kind:?} {layout:?} {m}x{k}x{n}");
                        let run = |be: &dyn KernelBackend, b: BOperand<'_>| {
                            product(be, dims, &a, b, layout, &c0, beta, Epilogue::None)
                        };
                        let want = run(&REFERENCE, BOperand::F32(&dec));
                        for be in BACKENDS {
                            let got = run(be, b.operand());
                            assert_close(&format!("{} {what}", be.name()), &got, &want);
                            if kind != Dtype::F32 {
                                let own = run(be, BOperand::F32(&dec));
                                assert_bits(&format!("{} {what}", be.name()), &got, &own);
                            }
                        }
                    }
                }
                let a_tn = randn_vec(k * m, 1.0, seed + 3000);
                let b_tn = randn_vec(k * n, 1.0, seed + 4000);
                let op = GemmOp::tn(m, k, n, &a_tn, m.max(1), &b_tn[..], n.max(1));
                let (mut c_ref, mut c_packed) = (c0.clone(), c0.clone());
                REFERENCE.gemm(&op, &mut c_ref, n.max(1), 1.0, Epilogue::None);
                PACKED.gemm(&op, &mut c_packed, n.max(1), 1.0, Epilogue::None);
                assert_close(&format!("tn {m}x{k}x{n}"), &c_packed, &c_ref);
            }
        }
    }
}

#[test]
fn packed_matches_reference_on_strided_views() {
    // The exact window shapes the sparse operators issue: compact activation
    // matrices addressed with lda = width, C written into a strided slab.
    let (rows, width, b, d) = (23, 3 * NR, NR, 37);
    let act = randn_vec(rows * width, 1.0, 7);
    let w = randn_vec(b * d, 1.0, 8);
    let wt = randn_vec(b * d, 1.0, 9);
    for block in 0..width / b {
        // Strided A: one block column of the compact activations.
        let strided_a = GemmOp::nn(rows, b, d, &act[block * b..], width, &w[..], d);
        let mut c_ref = vec![0.0; rows * d];
        let mut c_packed = vec![0.0; rows * d];
        REFERENCE.gemm(&strided_a, &mut c_ref, d, 0.0, Epilogue::None);
        PACKED.gemm(&strided_a, &mut c_packed, d, 0.0, Epilogue::None);
        assert_close(&format!("strided block {block}"), &c_packed, &c_ref);

        // Strided C: write one block column of a wide output.
        let mut y_ref = vec![0.0; rows * width];
        let mut y_packed = vec![0.0; rows * width];
        let op_ref = GemmOp::nt(rows, d, b, &c_ref, d, &wt[..], d);
        let op_packed = GemmOp::nt(rows, d, b, &c_packed, d, &wt[..], d);
        REFERENCE.gemm(&op_ref, &mut y_ref[block * b..], width, 0.0, Epilogue::None);
        PACKED.gemm(
            &op_packed,
            &mut y_packed[block * b..],
            width,
            0.0,
            Epilogue::None,
        );
        assert_close(&format!("strided C block {block}"), &y_packed, &y_ref);
    }
}

#[test]
fn large_shape_stays_within_tolerance() {
    // One shape big enough to traverse several KC blocks and NC panels, where
    // f32 summation-order differences accumulate the most.
    let dims = (70, 600, 70);
    let a = randn_vec(70 * 600, 1.0, 11);
    let b = randn_vec(600 * 70, 1.0, 12);
    let c0 = vec![0.0; 70 * 70];
    let run = |be| {
        product(
            be,
            dims,
            &a,
            &b[..],
            Layout::Normal,
            &c0,
            0.0,
            Epilogue::None,
        )
    };
    assert_close("large gemm", &run(&PACKED), &run(&REFERENCE));
}

/// Fused epilogue oracle over the whole operand grid: for every backend,
/// storage kind, B layout, shape and epilogue kind, the fused call must equal
/// "same backend, same operand, no epilogue, then the unfused bias/GELU
/// passes" — bitwise. The f32 kind sweeps the full shape cube, the
/// mixed-precision kinds a reduced one.
#[test]
fn fused_epilogues_match_unfused_composition_bitwise() {
    let full = interesting_sizes();
    let mut seed = 200_000u64;
    for kind in KINDS {
        let sizes: &[usize] = if kind == Dtype::F32 {
            &full
        } else {
            &REDUCED_SIZES
        };
        for &m in sizes {
            for &k in sizes {
                for &n in sizes {
                    seed += 1;
                    let dims = (m, k, n);
                    let a = randn_vec(m * k, 1.0, seed);
                    let bias = randn_vec(n, 1.0, seed + 3000);
                    let c0 = randn_vec(m * n, 1.0, seed + 4000);
                    for layout in LAYOUTS {
                        // beta = 0.5 on the Normal layout: the epilogue must
                        // apply after the pre-scale *and* the accumulation,
                        // never between.
                        let beta = if layout == Layout::Normal { 0.5 } else { 0.0 };
                        let b = BMat::random(kind, layout, k, n, seed + 1000);
                        for be in BACKENDS {
                            for ep in [Epilogue::Bias(&bias), Epilogue::BiasGelu(&bias)] {
                                let mut want = product(
                                    be,
                                    dims,
                                    &a,
                                    b.operand(),
                                    layout,
                                    &c0,
                                    beta,
                                    Epilogue::None,
                                );
                                manual_epilogue(&mut want, m, n, n, ep);
                                let got = product(be, dims, &a, b.operand(), layout, &c0, beta, ep);
                                assert_bits(
                                    &format!(
                                        "{} {kind:?} {layout:?} {m}x{k}x{n} {ep:?}",
                                        be.name()
                                    ),
                                    &got,
                                    &want,
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Every storage kind into a strided C window (one block column of a wide
/// slab, the layout the sparse FC1 writes), with and without a fused
/// epilogue, through both the parallel and the forced-sequential driver: the
/// write — and the epilogue — must stay inside the window, index the bias by
/// the GEMM's own columns (not the slab's), and match the unfused
/// composition on the decoded-dense B bit for bit.
#[test]
fn strided_c_views_are_respected_bitwise_on_both_paths() {
    let (rows, width, b, d) = (13, 3 * NR, NR, 24);
    let act = randn_vec(rows * d, 1.0, 61);
    let bias = randn_vec(b, 1.0, 63);
    for kind in KINDS {
        let w = BMat::encode(kind, &randn_vec(b * d, 1.0, 62), b, d);
        let dec = w.decoded();
        for be in BACKENDS {
            for block in 0..width / b {
                let window = |operand: BOperand<'_>, ep: Epilogue<'_>| {
                    let mut slab = vec![1.0f32; rows * width];
                    let op = GemmOp::nt(rows, d, b, &act, d, operand, d);
                    be.gemm(&op, &mut slab[block * b..], width, 0.0, ep);
                    slab
                };
                for ep in [Epilogue::None, Epilogue::BiasGelu(&bias)] {
                    let what = format!("{} {kind:?} block {block} {ep:?}", be.name());
                    // Oracle: the same backend's f32 kernel on the decoded
                    // B, then the unfused passes. The fused decode hands the
                    // kernel the very same f32 operand values, so this is
                    // bitwise for every kind.
                    let mut want = window(BOperand::F32(&dec), Epilogue::None);
                    manual_epilogue(&mut want[block * b..], rows, b, width, ep);
                    let got_seq = lx_kernels::with_sequential(|| window(w.operand(), ep));
                    assert_bits(&format!("{what} seq"), &got_seq, &want);
                    let got_par = window(w.operand(), ep);
                    assert_bits(&format!("{what} par"), &got_par, &want);
                }
            }
        }
    }
}

/// The parallel macro-kernel must be bit-identical to the single-threaded
/// driver for every storage kind, B layout and epilogue: workers own disjoint
/// row panels of C and each panel's summation order is unchanged, so this is
/// exact equality, not a tolerance. The grid includes shapes smaller than one
/// worker panel (a single register tile of rows) and shapes big enough to
/// actually split.
#[test]
fn parallel_packed_is_bit_identical_to_sequential() {
    let mut m_sizes = interesting_sizes();
    m_sizes.push(97); // several MR panels: splits across workers when pooled
    let k_sizes = [1usize, 7, NR, 40, 96];
    let n_sizes = [1usize, NR - 1, 40, 97];
    let mut seed = 400_000u64;
    for &m in &m_sizes {
        for &k in &k_sizes {
            for &n in &n_sizes {
                seed += 1;
                let a = randn_vec(m * k, 1.0, seed);
                let bias = randn_vec(n, 1.0, seed + 2000);
                let c0 = vec![0.25f32; m * n];
                for kind in KINDS {
                    for layout in LAYOUTS {
                        let b = BMat::random(kind, layout, k, n, seed + 1000);
                        for ep in [Epilogue::None, Epilogue::BiasGelu(&bias)] {
                            let run = || {
                                product(&PACKED, (m, k, n), &a, b.operand(), layout, &c0, 0.5, ep)
                            };
                            let c_seq = lx_kernels::with_sequential(run);
                            let c_par = run();
                            assert_bits(
                                &format!("par vs seq {kind:?} {layout:?} {m}x{k}x{n} {ep:?}"),
                                &c_par,
                                &c_seq,
                            );
                        }
                    }
                }
            }
        }
    }
}

/// `f(i)` for every `i < tasks`, each run as its own task on the global
/// pool and written to its own result slot; results in index order.
fn pool_tasks<R: Send>(tasks: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let mut slots: Vec<Option<R>> = (0..tasks).map(|_| None).collect();
    let f = &f;
    let jobs = slots
        .iter_mut()
        .enumerate()
        .map(|(i, slot)| Box::new(move || *slot = Some(f(i))) as Box<dyn FnOnce() + Send + '_>);
    lx_parallel::pool().run_scoped(jobs.collect());
    slots
        .into_iter()
        .map(|slot| slot.expect("every task fills its slot"))
        .collect()
}

/// Regression: a GEMM issued from inside every pool worker simultaneously
/// (any kernel nested in a pool task does exactly this) must fall back to the sequential
/// driver instead of re-entering the pool — no deadlock, no oversubscribed
/// nested parallelism, and the same bits as the top-level sequential run.
#[test]
fn gemm_inside_every_worker_takes_the_sequential_path() {
    let tasks = (lx_parallel::pool().threads() * 2).max(4);
    let dims = (MR + 3, 33, NR + 5);
    let inputs = |i: usize| {
        let seed = 500_000 + i as u64;
        (
            randn_vec(dims.0 * dims.1, 1.0, seed),
            randn_vec(dims.1 * dims.2, 1.0, seed + 1),
        )
    };
    let gemm = |i: usize| {
        let (a, b) = inputs(i);
        let c0 = vec![0.0f32; dims.0 * dims.2];
        product(
            &PACKED,
            dims,
            &a,
            &b[..],
            Layout::Normal,
            &c0,
            0.0,
            Epilogue::None,
        )
    };
    // One pool task per index, so every worker gets GEMM work.
    for (i, got) in pool_tasks(tasks, gemm).into_iter().enumerate() {
        let want = lx_kernels::with_sequential(|| gemm(i));
        assert_bits(&format!("worker gemm {i}"), &got, &want);
    }
}

/// A transposed `A` is the gradient-of-weights shape and only ever meets a
/// plain f32, non-transposed `B`: every other combination is rejected up
/// front, by every backend, rather than silently computing something.
#[test]
fn transposed_a_with_non_f32_or_transposed_b_is_rejected() {
    let (m, k, n) = (8, 8, 8);
    let a = randn_vec(k * m, 1.0, 801);
    let backends: [&dyn KernelBackend; 4] = [&REFERENCE, &PACKED, &AUTO, lx_kernels::backend()];
    for kind in KINDS {
        for layout in LAYOUTS {
            if kind == Dtype::F32 && layout == Layout::Normal {
                continue; // the one supported combination
            }
            let b = BMat::random(kind, layout, k, n, 802);
            for be in backends {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let op =
                        GemmOp::contiguous(m, k, n, &a, Layout::Transposed, b.operand(), layout);
                    be.gemm(&op, &mut vec![0.0; m * n], n, 0.0, Epilogue::None);
                }));
                let payload = result.expect_err("unsupported combination must panic");
                let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
                assert!(
                    msg.contains("transposed A requires an f32, non-transposed B"),
                    "{} {kind:?} {layout:?}: {msg}",
                    be.name()
                );
            }
        }
    }
}

/// The `Observed` wrapper derives the `dtype` label from the operand: one
/// call per storage kind must bump exactly its own
/// `kernel.gemm.calls{backend,class,dtype,isa,threads}` counter and none of
/// the others. The labels are the tensor-level [`Dtype::name`]s, so a kernel
/// label drifting from its dtype name fails here. The shape is large-class
/// on the reference backend — a bucket no concurrently running test
/// dispatches into — so the deltas are exact.
#[test]
fn observed_attributes_every_dtype_label_from_the_operand() {
    static OBSERVED: Observed = Observed::new(&REFERENCE);
    let labels = KINDS.map(Dtype::name);
    let (m, k, n) = (256, 256, 256); // 2·256³ = 2^25 FLOPs: first large shape
    let isa = lx_kernels::active_isa().name();
    let threads = lx_parallel::pool().threads().to_string();
    let counters = labels.map(|dtype| {
        lx_obs::registry().counter_labeled(
            "kernel.gemm.calls",
            &[
                ("backend", "reference"),
                ("class", "large"),
                ("dtype", dtype),
                ("isa", isa),
                ("threads", &threads),
            ],
        )
    });
    let a = randn_vec(m * k, 1.0, 901);
    let c0 = vec![0.0; m * n];
    for (i, kind) in KINDS.into_iter().enumerate() {
        let b = BMat::random(kind, Layout::Normal, k, n, 902);
        let before = counters.each_ref().map(|c| c.get());
        let _ = product(
            &OBSERVED,
            (m, k, n),
            &a,
            b.operand(),
            Layout::Normal,
            &c0,
            0.0,
            Epilogue::None,
        );
        for (j, counter) in counters.iter().enumerate() {
            assert_eq!(
                counter.get() - before[j],
                u64::from(i == j),
                "{kind:?} call vs dtype={} counter",
                labels[j]
            );
        }
    }
}

// ---- Grouped GEMM --------------------------------------------------------

/// One grouped launch: the operand buffers, the offset table, and an initial
/// C, in one of the six forms the sparse operators issue.
struct Group {
    what: String,
    m: usize,
    k: usize,
    n: usize,
    a: Vec<f32>,
    a_win: (usize, usize, Layout), // (ld, stride, layout)
    b: Vec<f32>,
    b_win: (usize, usize, Layout),
    ldc: usize,
    c_stride: usize,
    c_len: usize,
    table: GemmTable,
}

impl Group {
    fn view(&self, beta: f32) -> GemmGroup<'_> {
        let windows = |data, (ld, stride, layout)| Windows {
            data,
            ld,
            stride,
            layout,
        };
        GemmGroup {
            m: self.m,
            k: self.k,
            n: self.n,
            a: windows(&self.a[..], self.a_win),
            b: windows(&self.b[..], self.b_win),
            ldc: self.ldc,
            c_stride: self.c_stride,
            beta,
            table: &self.table,
        }
    }

    /// Launch over a C pre-filled with NaN (`beta = 0` must not leak it) or
    /// with 0.5 (accumulated with `beta`).
    fn run(&self, beta: f32, launch: impl FnOnce(&GemmGroup<'_>, &mut [f32])) -> Vec<f32> {
        let mut c = vec![if beta == 0.0 { f32::NAN } else { 0.5 }; self.c_len];
        launch(&self.view(beta), &mut c);
        // Windows no task writes keep their NaN; compare them as a sentinel.
        c.iter_mut().filter(|v| v.is_nan()).for_each(|v| *v = -7.0);
        c
    }
}

/// The `(block-row, block-col)` coordinates of a seeded block mask over a
/// `grid × grid` block matrix, in CSR order. Row 1 is always empty.
fn block_coords(grid: usize, seed: u64) -> Vec<(u32, u32)> {
    let dice = lx_tensor::rng::uniform_vec(grid * grid, 0.0, 1.0, seed);
    (0..grid * grid)
        .filter(|i| i / grid != 1 && dice[*i] < 0.45)
        .map(|i| ((i / grid) as u32, (i % grid) as u32))
        .collect()
}

/// Prefix-sum run table of `major(coord)` over `0..grid`.
fn run_table(coords: &[(u32, u32)], grid: usize, major: impl Fn(&(u32, u32)) -> u32) -> Vec<u32> {
    let mut runs = vec![0u32; grid + 1];
    for c in coords {
        runs[major(c) as usize + 1] += 1;
    }
    for i in 0..grid {
        runs[i + 1] += runs[i];
    }
    runs
}

/// The three block-sparse attention forms over block size `b`, head dim
/// `dh`: SDD (`nt`, every block its own C), DSD (`nn`, one run per block-row)
/// and transposed DSD (`tn`, one run per block-column, CSC order).
fn attention_groups(b: usize, dh: usize, coords: &[(u32, u32)], seed: u64) -> Vec<Group> {
    const GRID: usize = 5;
    let s = GRID * b;
    let dense = |seed| randn_vec(s * dh, 1.0, seed);
    let blocks = randn_vec(coords.len() * b * b, 1.0, seed + 2);
    let csr = || (0u32..).zip(coords.iter().copied());
    let mut csc: Vec<_> = csr().collect();
    csc.sort_by_key(|&(_, (br, bc))| (bc, br));
    vec![
        Group {
            what: format!("sdd b={b} dh={dh}"),
            m: b,
            k: dh,
            n: b,
            a: dense(seed),
            a_win: (dh, b * dh, Layout::Normal),
            b: dense(seed + 1),
            b_win: (dh, b * dh, Layout::Transposed),
            ldc: b,
            c_stride: b * b,
            c_len: coords.len() * b * b,
            table: GemmTable::each(csr().map(|(e, (br, bc))| (br, bc, e))),
        },
        Group {
            what: format!("dsd b={b} dh={dh}"),
            m: b,
            k: b,
            n: dh,
            a: blocks.clone(),
            a_win: (b, b * b, Layout::Normal),
            b: dense(seed + 3),
            b_win: (dh, b * dh, Layout::Normal),
            ldc: dh,
            c_stride: b * dh,
            c_len: s * dh,
            table: GemmTable::new(
                csr().map(|(e, (br, bc))| (e, bc, br)),
                run_table(coords, GRID, |c| c.0),
            ),
        },
        Group {
            what: format!("dsd_tn b={b} dh={dh}"),
            m: b,
            k: b,
            n: dh,
            a: blocks,
            a_win: (b, b * b, Layout::Transposed),
            b: dense(seed + 4),
            b_win: (dh, b * dh, Layout::Normal),
            ldc: dh,
            c_stride: b * dh,
            c_len: s * dh,
            table: GemmTable::new(
                csc.iter().map(|&(e, (br, bc))| (e, br, bc)),
                run_table(coords, GRID, |c| c.1),
            ),
        },
    ]
}

/// The three neuron-slab forms over `rows` activations, slab width `b` and
/// model width `d`, with `active` of `total` slabs: shared-A column windows
/// (`cols`), one accumulating run (`sum`), and shared-B gradient slabs
/// (`slabs`).
fn neuron_groups(rows: usize, b: usize, d: usize, active: &[u32], seed: u64) -> Vec<Group> {
    let total = *active.iter().max().expect("active slabs") as usize + 1;
    let width = active.len() * b;
    let blocks = || (0u32..).zip(active.iter().copied());
    let x = randn_vec(rows * d, 1.0, seed);
    let w = randn_vec(total * b * d, 0.5, seed + 1);
    let compact = randn_vec(rows * width, 1.0, seed + 2);
    vec![
        Group {
            what: format!("cols rows={rows} b={b} d={d}"),
            m: rows,
            k: d,
            n: b,
            a: x.clone(),
            a_win: (d, 0, Layout::Normal),
            b: w.clone(),
            b_win: (d, b * d, Layout::Transposed),
            ldc: width,
            c_stride: b,
            c_len: rows * width,
            table: GemmTable::each(blocks().map(|(ai, blk)| (0, blk, ai))),
        },
        Group {
            what: format!("sum rows={rows} b={b} d={d}"),
            m: rows,
            k: b,
            n: d,
            a: compact.clone(),
            a_win: (width, b, Layout::Normal),
            b: w,
            b_win: (d, b * d, Layout::Normal),
            ldc: d,
            c_stride: 0,
            c_len: rows * d,
            table: GemmTable::new(
                blocks().map(|(ai, blk)| (ai, blk, 0)),
                vec![0, active.len() as u32],
            ),
        },
        Group {
            what: format!("slabs rows={rows} b={b} d={d}"),
            m: b,
            k: rows,
            n: d,
            a: compact,
            a_win: (width, b, Layout::Transposed),
            b: x,
            b_win: (d, 0, Layout::Normal),
            ldc: d,
            c_stride: b * d,
            c_len: total * b * d,
            table: GemmTable::each(blocks().map(|(ai, blk)| (ai, 0, blk))),
        },
    ]
}

/// The microkernel arms this host can run, `None` being the launch's own
/// choice.
fn arms() -> Vec<Option<Isa>> {
    let mut arms = vec![None, Some(Isa::Scalar)];
    arms.extend(
        [Isa::Avx2, Isa::Avx512, Isa::Neon]
            .into_iter()
            .filter(|isa| isa.supported())
            .map(Some),
    );
    arms
}

/// `Packed`'s grouped path — every arm, including the forced-scalar one —
/// against the `Reference` per-task loop, over tile-edge and non-multiple
/// block shapes, all three layout combinations, overwrite and accumulate,
/// empty block rows and shared-A / shared-B tables.
#[test]
fn packed_grouped_matches_the_reference_per_task_loop() {
    let pool = lx_parallel::pool();
    let mut seed = 600_000u64;
    let mut groups = Vec::new();
    for b in [4usize, 8, 16, 32] {
        for dh in [8usize, 16, 32, 64, 100] {
            seed += 10;
            groups.extend(attention_groups(b, dh, &block_coords(5, seed), seed));
            groups.extend(neuron_groups(37, b, dh, &[0, 2, 3, 6], seed + 5));
        }
    }
    // A single block, and a contiguous slab set (every panel adjacent).
    groups.extend(attention_groups(16, 32, &[(2, 1)], 1));
    groups.extend(neuron_groups(64, 16, 48, &[0, 1, 2, 3, 4], 2));
    for g in &groups {
        for beta in [0.0f32, 1.0, 0.5] {
            let want = g.run(beta, |view, c| REFERENCE.gemm_grouped(view, c));
            for isa in arms() {
                let got = g.run(beta, |view, c| PACKED.gemm_grouped_on(pool, isa, view, c));
                assert_close(&format!("{} beta={beta} {isa:?}", g.what), &got, &want);
            }
            let auto = g.run(beta, |view, c| AUTO.gemm_grouped(view, c));
            assert_close(&format!("{} beta={beta} auto", g.what), &auto, &want);
        }
    }
}

/// The grouped contract as plain scalar code — the per-task loop with the
/// packed path's accumulation order written out. Within a run, tasks whose A
/// *and* B slots are consecutive form one K-merged chain; every C element
/// takes one multiply-add chain from `+0` per merged group (`mul_add` when
/// `fused`, else a product then a sum), and the run's first group folds
/// `beta` (`C = chain` under `beta = 0`, `beta·C + chain` otherwise) where
/// later groups add. Holds for `k` within one k-block.
fn chain_oracle(g: &Group, beta: f32, fused: bool) -> Vec<f32> {
    assert!(g.k <= lx_kernels::current_policy().tiles.kc);
    let view = g.view(beta);
    let table = &g.table;
    let at = |w: &Windows<'_>, window: u32, row: usize, col: usize| {
        let base = window as usize * w.stride;
        match w.layout {
            Layout::Normal => w.data[base + row * w.ld + col],
            Layout::Transposed => w.data[base + col * w.ld + row],
        }
    };
    g.run(beta, |_, c| {
        for run in table.runs().windows(2) {
            let tasks = &table.tasks()[run[0] as usize..run[1] as usize];
            let mut t = 0;
            while t < tasks.len() {
                let (a0, b0) = (tasks[t].a, tasks[t].b);
                let mut depth = 1;
                while tasks
                    .get(t + depth)
                    .is_some_and(|next| next.a == a0 + depth as u32 && next.b == b0 + depth as u32)
                {
                    depth += 1;
                }
                let c0 = tasks[t].c as usize * view.c_stride;
                for i in 0..g.m {
                    for j in 0..g.n {
                        let mut acc = 0.0f32;
                        for d in 0..depth as u32 {
                            let aw = table.a_windows()[(a0 + d) as usize];
                            let bw = table.b_windows()[(b0 + d) as usize];
                            for p in 0..g.k {
                                let (x, y) = (at(&view.a, aw, i, p), at(&view.b, bw, p, j));
                                acc = if fused {
                                    x.mul_add(y, acc)
                                } else {
                                    acc + x * y
                                };
                            }
                        }
                        let cv = &mut c[c0 + i * g.ldc + j];
                        *cv = match (t, beta) {
                            (0, 0.0) => acc,
                            (0, _) => *cv * beta + acc,
                            _ => *cv + acc,
                        };
                    }
                }
                t += depth;
            }
        }
    })
}

/// `Packed`'s grouped path on every arm against [`chain_oracle`], bit for
/// bit: A windows read once (the DSD P / dS blocks, both layouts, over
/// K-merged block rows) come straight from their buffer, the 16×16 tile
/// takes 16-row blocks, f32 B rows are read in place, and `beta` folds into
/// the first write-back — over b ∈ {4, 8, 16, 32}, dh ∈ {8, 16, 32, 64,
/// 100} and beta 0 (NaN-poisoned C), 1 and 0.5. The scalar arm is the
/// unfused definition; every other arm the fused one.
#[test]
fn packed_grouped_matches_the_chain_definition_bitwise() {
    let pool = lx_parallel::pool();
    let mut seed = 900_000u64;
    let mut groups = Vec::new();
    for b in [4usize, 8, 16, 32] {
        for dh in [8usize, 16, 32, 64, 100] {
            seed += 10;
            groups.extend(attention_groups(b, dh, &block_coords(5, seed), seed));
            groups.extend(neuron_groups(37, b, dh, &[0, 2, 3, 6], seed + 5));
        }
    }
    // Every block of every row active: the longest K-merged runs.
    let dense: Vec<(u32, u32)> = (0..25u32).map(|i| (i / 5, i % 5)).collect();
    groups.extend(attention_groups(16, 32, &dense, 1));
    let fused = |isa: Option<Isa>| isa.unwrap_or_else(lx_kernels::active_isa) != Isa::Scalar;
    for g in &groups {
        for beta in [0.0f32, 1.0, 0.5] {
            for isa in arms() {
                let got = g.run(beta, |view, c| PACKED.gemm_grouped_on(pool, isa, view, c));
                let want = chain_oracle(g, beta, fused(isa));
                assert_bits(&format!("{} beta={beta} {isa:?}", g.what), &got, &want);
            }
        }
    }
}

/// An empty table is a no-op on every backend — even over empty operand
/// buffers — and a zero-depth group only applies `beta`.
#[test]
fn empty_and_degenerate_groups_are_harmless() {
    let empty = GemmTable::each([]);
    let none: &[f32] = &[];
    let group = |k, table| GemmGroup {
        m: 4,
        k,
        n: 4,
        a: Windows::normal(none, k, 4 * k),
        b: Windows::transposed(none, k, 4 * k),
        ldc: 4,
        c_stride: 16,
        beta: 0.5,
        table,
    };
    let one = GemmTable::each([(0, 0, 1)]);
    for be in [&REFERENCE as &dyn KernelBackend, &PACKED, &AUTO] {
        let mut c = vec![3.0f32; 32];
        be.gemm_grouped(&group(8, &empty), &mut c);
        assert_eq!(c, vec![3.0; 32], "{}: empty table", be.name());
        be.gemm_grouped(&group(0, &one), &mut c);
        assert_eq!(c[..16], [3.0; 16], "{}: untouched window", be.name());
        assert_eq!(c[16..], [1.5; 16], "{}: k = 0 scales by beta", be.name());
    }
}

/// One group, one answer: the grouped path fixes the accumulation order of
/// every C tile from the table alone, so sequential mode, private pools of 1,
/// 2 and 4 threads (each cuts the runs — or the rows — into different
/// C-disjoint chunks) and every FMA arm produce the same bits.
#[test]
fn grouped_results_are_bitwise_independent_of_threads_partition_and_fma_arm() {
    let fma: Vec<Option<Isa>> = [Isa::Avx2, Isa::Avx512, Isa::Neon]
        .into_iter()
        .filter(|isa| isa.supported())
        .map(Some)
        .collect();
    let pools: Vec<ThreadPool> = [1, 2, 4].into_iter().map(ThreadPool::new).collect();
    let mut groups = Vec::new();
    // Enough blocks and rows that every pool size really splits the launch.
    let dense: Vec<(u32, u32)> = (0..25u32).map(|i| (i / 5, i % 5)).collect();
    groups.extend(attention_groups(16, 32, &dense, 701));
    groups.extend(attention_groups(8, 100, &block_coords(5, 702), 702));
    groups.extend(neuron_groups(200, 16, 64, &[0, 1, 2, 5, 6, 9], 703));
    for g in &groups {
        for beta in [0.0f32, 1.0] {
            let launch = |pool: &ThreadPool, isa| {
                g.run(beta, |view, c| PACKED.gemm_grouped_on(pool, isa, view, c))
            };
            // Per arm (`None` = the launch's own pick, scalar under
            // LX_KERNEL_ISA=scalar): every pool matches the inline run.
            let mut wants = Vec::new();
            for isa in std::iter::once(None).chain(fma.iter().copied()) {
                let want = lx_kernels::with_sequential(|| launch(&pools[0], isa));
                for pool in &pools {
                    let what = format!("{} beta={beta} {isa:?} threads={}", g.what, pool.threads());
                    assert_bits(&what, &launch(pool, isa), &want);
                }
                wants.push(want);
            }
            // The FMA arms agree with each other.
            for pair in wants[1..].windows(2) {
                assert_bits(
                    &format!("{} beta={beta} fma arms", g.what),
                    &pair[1],
                    &pair[0],
                );
            }
            let want = &wants[0];
            // The process-wide entry point takes the same path.
            let global = g.run(beta, |view, c| PACKED.gemm_grouped(view, c));
            assert_bits(
                &format!("{} beta={beta} global pool", g.what),
                &global,
                want,
            );
        }
    }
}

/// Sequential mode never touches the pool: a grouped launch issued from
/// inside every worker at once completes (no nested dispatch to deadlock on)
/// with the top-level bits.
#[test]
fn grouped_launch_inside_every_worker_runs_inline() {
    let dense: Vec<(u32, u32)> = (0..25u32).map(|i| (i / 5, i % 5)).collect();
    let groups = attention_groups(16, 32, &dense, 711);
    let run = |i: usize| groups[i % 3].run(0.0, |view, c| PACKED.gemm_grouped(view, c));
    let tasks = (lx_parallel::pool().threads() * 2).max(4);
    for (i, got) in pool_tasks(tasks, run).into_iter().enumerate() {
        assert_bits(&format!("worker launch {i}"), &got, &run(i));
    }
}

/// The table contract is checked when the table is built and the buffers
/// when it is launched, before anything is written.
#[test]
fn malformed_tables_and_short_buffers_are_rejected() {
    let panics = |f: &dyn Fn()| std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err();
    assert!(
        panics(&|| drop(GemmTable::new([(0, 0, 0)], vec![0, 2]))),
        "runs past the tasks"
    );
    assert!(
        panics(&|| drop(GemmTable::new([(0, 0, 0), (1, 1, 1)], vec![0, 2]))),
        "run mixing C windows"
    );
    fn group<'a>(a: &'a [f32], table: &'a GemmTable) -> GemmGroup<'a> {
        GemmGroup {
            m: 4,
            k: 4,
            n: 4,
            a: Windows::normal(a, 4, 16),
            b: Windows::normal(a, 4, 16),
            ldc: 4,
            c_stride: 16,
            beta: 0.0,
            table,
        }
    }
    // A windows 0 and 3, C windows 0 and 1.
    let table = GemmTable::each([(0, 0, 0), (3, 1, 1)]);
    let buf = vec![0.0f32; 4 * 16];
    for be in [&REFERENCE as &dyn KernelBackend, &PACKED] {
        let short_a = group(&buf[..48], &table);
        assert!(
            panics(&|| be.gemm_grouped(&short_a, &mut [0.0; 32])),
            "short A"
        );
        let fits = group(&buf, &table);
        assert!(
            panics(&|| be.gemm_grouped(&fits, &mut [0.0; 31])),
            "short C"
        );
        be.gemm_grouped(&fits, &mut [0.0; 32]);
    }
}

/// Force the packed backend under the block-sparse attention ops by running
/// the per-block shapes they issue through both backends directly.
#[test]
fn attention_block_shapes_match() {
    for (b, dh) in [(4usize, 8usize), (16, 32), (32, 64), (32, 80)] {
        let q = randn_vec(b * dh, 1.0, 21);
        let k = randn_vec(b * dh, 1.0, 22);
        let p = randn_vec(b * b, 1.0, 23);
        let v = randn_vec(b * dh, 1.0, 24);
        for (what, op, ldc, beta) in [
            ("scores", GemmOp::nt(b, dh, b, &q, dh, &k[..], dh), b, 0.0),
            ("context", GemmOp::nn(b, b, dh, &p, b, &v[..], dh), dh, 1.0),
            (
                "transposed",
                GemmOp::tn(b, b, dh, &p, b, &v[..], dh),
                dh,
                1.0,
            ),
        ] {
            let mut c_ref = vec![0.0; b * ldc];
            let mut c_packed = vec![0.0; b * ldc];
            REFERENCE.gemm(&op, &mut c_ref, ldc, beta, Epilogue::None);
            PACKED.gemm(&op, &mut c_packed, ldc, beta, Epilogue::None);
            assert_close(&format!("{what} block b={b} dh={dh}"), &c_packed, &c_ref);
        }
    }
}

/// End-to-end sparse attention against a dense matmul oracle, whatever
/// backend the dispatcher picks — the routed pipeline must stay exact.
#[test]
fn sparse_attention_pipeline_matches_dense_oracle() {
    let (b, s, dh) = (8usize, 64usize, 16usize);
    let lay = BlockCsr::from_mask(&PatternSpec::LocalGlobal { w: 2, g: 1 }.mask(s / b), b);
    let q = randn_vec(s * dh, 1.0, 31);
    let k = randn_vec(s * dh, 1.0, 32);
    let mut blocks = vec![0.0; lay.data_len()];
    sdd_nt(&q, &k, s, dh, 0.25, &lay, CausalFill::None, &mut blocks);
    let dense_scores = block_data_to_dense(&blocks, &lay);
    for i in 0..s {
        for j in 0..s {
            if !lay.to_mask().get(i / b, j / b) {
                continue;
            }
            let expect: f32 = 0.25
                * q[i * dh..(i + 1) * dh]
                    .iter()
                    .zip(&k[j * dh..(j + 1) * dh])
                    .map(|(x, y)| x * y)
                    .sum::<f32>();
            let got = dense_scores[i * s + j];
            assert!(
                (got - expect).abs() <= TOL * (1.0 + expect.abs()),
                "scores ({i},{j}): {got} vs {expect}"
            );
        }
    }
    // DSD and its transpose agree with the dense expansion.
    let x = randn_vec(s * dh, 1.0, 33);
    let mut out = vec![0.0; s * dh];
    dsd(&blocks, &x, s, dh, &lay, &mut out);
    let mut expect = vec![0.0; s * dh];
    for i in 0..s {
        for j in 0..s {
            let pv = dense_scores[i * s + j];
            for t in 0..dh {
                expect[i * dh + t] += pv * x[j * dh + t];
            }
        }
    }
    assert_close("dsd", &out, &expect);
    let mut out_t = vec![0.0; s * dh];
    dsd_tn(&blocks, &x, s, dh, &lay, &mut out_t);
    let mut expect_t = vec![0.0; s * dh];
    for i in 0..s {
        for j in 0..s {
            let pv = dense_scores[i * s + j];
            for t in 0..dh {
                expect_t[j * dh + t] += pv * x[i * dh + t];
            }
        }
    }
    assert_close("dsd_tn", &out_t, &expect_t);
}

/// The neuron-sparse MLP forward path against an explicit gather/scatter
/// oracle at a width that exercises multi-panel packing.
#[test]
fn neuron_mlp_matches_oracle_at_packing_widths() {
    let (rows, d_in, h, block) = (33, 48, 8 * NR, NR);
    let set = NeuronBlockSet::from_indices(vec![0, 2, 3, 7], h / block, block);
    let width = set.active_neurons();
    let x = randn_vec(rows * d_in, 1.0, 41);
    let w1t = randn_vec(h * d_in, 0.2, 42); // neuron-major: row n is neuron n
    let mut z = vec![0.0; rows * width];
    fc1_forward(&x, rows, &w1t, d_in, None, &set, &mut z);
    for r in 0..rows {
        for (ai, &blk) in set.active.iter().enumerate() {
            for t in 0..block {
                let neuron = blk as usize * block + t;
                let expect: f32 = (0..d_in)
                    .map(|i| x[r * d_in + i] * w1t[neuron * d_in + i])
                    .sum();
                let got = z[r * width + ai * block + t];
                assert!(
                    (got - expect).abs() <= TOL * (1.0 + expect.abs()),
                    "fc1 r={r} neuron={neuron}: {got} vs {expect}"
                );
            }
        }
    }
    let d_out = 29;
    let w2 = randn_vec(h * d_out, 0.2, 43);
    let mut y = vec![0.0; rows * d_out];
    fc2_forward(&z, rows, &w2, d_out, None, &set, &mut y);
    let mut expect = vec![0.0; rows * d_out];
    for r in 0..rows {
        for (ai, &blk) in set.active.iter().enumerate() {
            for t in 0..block {
                let neuron = blk as usize * block + t;
                let av = z[r * width + ai * block + t];
                for c in 0..d_out {
                    expect[r * d_out + c] += av * w2[neuron * d_out + c];
                }
            }
        }
    }
    assert_close("fc2", &y, &expect);
}
