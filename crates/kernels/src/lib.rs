//! # lx-kernels — runtime-dispatched GEMM microkernel backends and row kernels
//!
//! Every dense and block-sparse hot path in this workspace bottoms out in one
//! operator: `C = op(A)·op(B) + beta·C`, row-major with leading dimensions,
//! described by a [`GemmOp`] — the f32 `A` view, a [`BOperand`] in whatever
//! storage the weights live in (f32, f16 bits, block NF4), a [`Layout`]
//! per side and an optional bias, added inside the write-back while output
//! tiles are cache-hot, bit-identically to a separate bias pass. The
//! block-sparse operators launch the *grouped* form of the same operator: a
//! [`GemmGroup`] is many equally-shaped products over windows of three
//! shared buffers, addressed through a [`GemmTable`] — the offset table a
//! sparse layout builds once and every forward and backward launch reuses
//! (the paper's Dynamic-aware Operator) — each run of which may take its own
//! [`Bias`] window. This crate owns the kernels behind
//! the [`KernelBackend`] trait ([`gemm`] and [`gemm_grouped`], the latter
//! defaulting to the per-task loop):
//!
//! [`gemm`]: KernelBackend::gemm
//! [`gemm_grouped`]: KernelBackend::gemm_grouped
//!
//! * [`Packed`] — cache-blocked, panel-packed microkernels (`MR×NR` register
//!   tiles, B-panel reuse across A row blocks, runtime-selected
//!   scalar/AVX2/AVX-512/NEON `std::arch` inner loops — see [`Isa`] and
//!   [`active_isa`]) with the macro-kernel parallelised over the
//!   `lx-parallel` pool (worker-disjoint C row panels, shared packed B). A
//!   grouped launch packs each distinct window once, runs the same
//!   microkernel off the shared panels for every task in table order, and
//!   splits the table's runs across the pool by task count — bitwise
//!   independent of thread count and partition. It runs every product the
//!   program issues, whatever its shape, under the installed
//!   [`KernelPolicy`]'s tiles (see `lx_runtime::kernel_policy` for the
//!   cache model they come from);
//! * [`Reference`] — the original scalar `i-k-j` loops and the default
//!   per-task grouped loop, kept as the correctness oracle of the
//!   differential tests and the base column of `kernel_bench`. No runtime
//!   path runs it.
//!
//! Callers outside tests and benchmarks route through the process-wide
//! [`backend`], the observed [`Packed`]: `lx-tensor::gemm` builds contiguous
//! ops from tensors, the sparse operators in `lx-sparse` launch one group
//! each over their layout's table so block and neuron-slab products hit the
//! same microkernels. The contiguous free functions below are conveniences
//! over the single-product entry point.
//!
//! What a step does per row *outside* a GEMM — softmax forward/backward,
//! LayerNorm, ReLU, the log-sum-exp of cross-entropy — lives in [`rows`]:
//! one polynomial `exp` and passes defined over 16 virtual lanes, run on the
//! same [`active_isa`] arm as the microkernels and bit-identical across arms.

/// Declare a kernel `name(isa, args…)` as three instantiations of the
/// `#[inline(always)]` definition `def::<L>(args…)`: over the defining
/// `Scalar` type, and over the register types `x86::Avx2` / `x86::Avx512`
/// inside wrappers that enable AVX2+FMA+F16C / AVX-512F (the definition and
/// its intrinsics inline into the wrapper, which is what makes them legal to
/// execute). The three types are resolved in the invoking module. An arm the
/// host cannot execute, and `Isa::Scalar` / `Isa::Neon`, run the definition.
macro_rules! arms {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $def:ident;) => {
        $(#[$meta])*
        $vis fn $name(isa: Isa, $($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                #[allow(clippy::too_many_arguments)]
                #[target_feature(enable = "avx512f")]
                fn avx512($($arg: $ty),*) $(-> $ret)? {
                    $def::<x86::Avx512>($($arg),*)
                }
                #[allow(clippy::too_many_arguments)]
                #[target_feature(enable = "avx2,fma,f16c")]
                fn avx2($($arg: $ty),*) $(-> $ret)? {
                    $def::<x86::Avx2>($($arg),*)
                }
                match isa {
                    // SAFETY: `supported()` has just confirmed that this CPU
                    // executes every feature the wrapper enables.
                    Isa::Avx512 if isa.supported() => return unsafe { avx512($($arg),*) },
                    // SAFETY: as above, for AVX2 + FMA + F16C.
                    Isa::Avx2 if isa.supported() => return unsafe { avx2($($arg),*) },
                    _ => {}
                }
            }
            let _ = isa;
            $def::<Scalar>($($arg),*)
        }
    };
}

mod backend;
pub mod decode;
mod dispatch;
pub mod half;
mod isa;
mod observe;
mod op;
mod packed;
pub mod rows;

pub use backend::{KernelBackend, Reference};
pub use dispatch::{
    auto_choice, autotune, backend, current_policy, install_policy, KernelPolicy, TileConfig,
    PACKED, REFERENCE,
};
pub use isa::{active_isa, detected_isa, Isa};
pub use observe::{gemm_call_total, observe_fused, Observed};
pub use op::{BOperand, Bias, Dtype, GemmGroup, GemmOp, GemmTable, GemmTask, Layout, Windows};
pub use packed::{Packed, Staged, MR, NR};
// Quantized-B operands are passed as lx-quant views; re-exported so kernel
// callers need no direct lx-quant dependency.
pub use lx_quant::Q4View;

std::thread_local! {
    static FORCE_SEQ: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether GEMMs issued from the current thread must run without spawning
/// onto the pool: either the caller asked for it via [`with_sequential`], or
/// this thread *is* a pool worker (a nested GEMM dispatching back onto the
/// pool it is running on would oversubscribe or deadlock — this is how
/// GEMMs issued inside `par_rows` tasks stay safe).
pub fn sequential_mode() -> bool {
    FORCE_SEQ.with(|f| f.get()) || lx_parallel::in_worker()
}

/// Run `f` with every GEMM on this thread pinned to the single-threaded
/// path (packing and macro-kernel both stay on the calling thread). Used by
/// benches to measure the 1-thread leg of the parallel scaling gate without
/// re-exec'ing under a different `LX_THREADS`.
pub fn with_sequential<R>(f: impl FnOnce() -> R) -> R {
    FORCE_SEQ.with(|flag| {
        let prev = flag.replace(true);
        let out = f();
        flag.set(prev);
        out
    })
}

/// Contiguous `A·op(B)` into a contiguous `C` on the process-wide backend.
#[allow(clippy::too_many_arguments)]
fn contiguous<'a>(
    m: usize,
    k: usize,
    n: usize,
    a: &'a [f32],
    b: impl Into<BOperand<'a>>,
    b_layout: Layout,
    c: &mut [f32],
    beta: f32,
) {
    let op = GemmOp::contiguous(m, k, n, a, Layout::Normal, b, b_layout);
    backend().gemm(&op, c, n.max(1), beta)
}

/// `C[m,n] = A[m,k]·B[k,n] + beta·C`, contiguous rows.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], beta: f32) {
    contiguous(m, k, n, a, b, Layout::Normal, c, beta)
}

/// `C[m,n] = A[m,k]·B[n,k]ᵀ + beta·C`, contiguous rows.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], beta: f32) {
    contiguous(m, k, n, a, b, Layout::Transposed, c, beta)
}

/// [`gemm`] with B stored as f16 bits.
pub fn gemm_f16(m: usize, k: usize, n: usize, a: &[f32], b: &[u16], c: &mut [f32], beta: f32) {
    contiguous(m, k, n, a, b, Layout::Normal, c, beta)
}

/// [`gemm_nt`] with B stored as f16 bits.
pub fn gemm_nt_f16(m: usize, k: usize, n: usize, a: &[f32], b: &[u16], c: &mut [f32], beta: f32) {
    contiguous(m, k, n, a, b, Layout::Transposed, c, beta)
}

/// [`gemm`] with B stored NF4.
pub fn gemm_q4(m: usize, k: usize, n: usize, a: &[f32], b: Q4View<'_>, c: &mut [f32], beta: f32) {
    contiguous(m, k, n, a, b, Layout::Normal, c, beta)
}

/// [`gemm_nt`] with B stored NF4.
pub fn gemm_nt_q4(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: Q4View<'_>,
    c: &mut [f32],
    beta: f32,
) {
    contiguous(m, k, n, a, b, Layout::Transposed, c, beta)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for l in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + l] * b[l * n + j];
                }
            }
        }
        c
    }

    pub(crate) fn pseudo(n: usize, seed: u32) -> Vec<f32> {
        // Small deterministic pseudo-random values without the rand shim.
        let mut state = seed.wrapping_mul(2654435761).max(1);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                (state as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "idx {i}: {x} vs {y}"
            );
        }
    }

    fn assert_bits(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}");
        }
    }

    /// Both backends, plus the process-wide one that wraps `Packed`.
    fn backends() -> [&'static dyn KernelBackend; 3] {
        [&REFERENCE, &PACKED, backend()]
    }

    /// `op` into a fresh zeroed contiguous C.
    fn product(be: &dyn KernelBackend, op: &GemmOp<'_>) -> Vec<f32> {
        let mut c = vec![0.0; op.m * op.n];
        be.gemm(op, &mut c, op.n.max(1), 0.0);
        c
    }

    #[test]
    fn packed_matches_naive_across_edge_shapes() {
        // Shapes straddling the MR/NR register tiles and the KC block.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (5, 7, 15),
            (6, 8, 16),
            (7, 9, 17),
            (13, 300, 33),
            (97, 64, 130),
        ] {
            let a = pseudo(m * k, 1 + m as u32);
            let b = pseudo(k * n, 2 + n as u32);
            let c = product(&PACKED, &GemmOp::nn(m, k, n, &a, k, &b[..], n));
            assert_close(&c, &naive(m, k, n, &a, &b), 1e-4);
        }
    }

    #[test]
    fn packed_beta_accumulates() {
        let (m, k, n) = (11, 23, 19);
        let a = pseudo(m * k, 3);
        let b = pseudo(k * n, 4);
        let mut c = vec![1.0; m * n];
        let op = GemmOp::nn(m, k, n, &a, k, &b[..], n);
        PACKED.gemm(&op, &mut c, n, 2.0);
        let mut expect = naive(m, k, n, &a, &b);
        for v in expect.iter_mut() {
            *v += 2.0;
        }
        assert_close(&c, &expect, 1e-4);
    }

    #[test]
    fn packed_nt_tn_match_reference() {
        let (m, k, n) = (19, 31, 22);
        let a = pseudo(m * k, 5);
        let bt = pseudo(n * k, 6);
        let at = pseudo(k * m, 7);
        let bn = pseudo(k * n, 8);
        for op in [
            GemmOp::nt(m, k, n, &a, k, &bt[..], k),
            GemmOp::tn(m, k, n, &at, m, &bn[..], n),
        ] {
            assert_close(&product(&PACKED, &op), &product(&REFERENCE, &op), 1e-4);
        }
    }

    #[test]
    fn strided_views_match_contiguous() {
        // C is a window inside a wider buffer; A and B have padded rows.
        let (m, k, n) = (9, 14, 10);
        let (lda, ldb, ldc) = (k + 3, n + 5, n + 7);
        let a = pseudo(m * lda, 9);
        let b = pseudo(k * ldb, 10);
        let mut a_tight = vec![0.0; m * k];
        let mut b_tight = vec![0.0; k * n];
        for i in 0..m {
            a_tight[i * k..(i + 1) * k].copy_from_slice(&a[i * lda..i * lda + k]);
        }
        for l in 0..k {
            b_tight[l * n..(l + 1) * n].copy_from_slice(&b[l * ldb..l * ldb + n]);
        }
        let expect = naive(m, k, n, &a_tight, &b_tight);
        for be in [&PACKED as &dyn KernelBackend, &REFERENCE] {
            let mut c = vec![0.0; (m - 1) * ldc + n];
            let op = GemmOp::nn(m, k, n, &a, lda, &b[..], ldb);
            be.gemm(&op, &mut c, ldc, 0.0);
            for i in 0..m {
                assert_close(&c[i * ldc..i * ldc + n], &expect[i * n..(i + 1) * n], 1e-4);
            }
        }
    }

    #[test]
    fn degenerate_dims_are_noops_or_scales() {
        let mut c = vec![3.0; 4];
        let empty: &[f32] = &[];
        // k == 0: C just gets scaled by beta.
        for be in backends() {
            c.fill(3.0);
            let op = GemmOp::nn(2, 0, 2, empty, 1, empty, 2);
            be.gemm(&op, &mut c, 2, 0.5);
            assert_eq!(c, vec![1.5; 4], "{}", be.name());
            let op = GemmOp::nn(0, 3, 0, empty, 3, empty, 1);
            be.gemm(&op, &mut [], 1, 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "transposed A requires an f32")]
    fn transposed_a_rejects_non_f32_b() {
        let a = pseudo(4 * 4, 13);
        let bits = half::encode_slice(&a);
        let op = GemmOp::tn(4, 4, 4, &a, 4, &bits[..], 4);
        REFERENCE.gemm(&op, &mut [0.0; 16], 4, 0.0);
    }

    #[test]
    fn free_functions_dispatch() {
        let (m, k, n) = (64, 64, 64);
        let a = pseudo(m * k, 11);
        let b = pseudo(k * n, 12);
        let mut c = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut c, 0.0);
        assert_close(&c, &naive(m, k, n, &a, &b), 1e-4);
        // The nt / f16 / nf4 wrappers land on the same entry point with the
        // operand and layout they name.
        let bt = pseudo(n * k, 14);
        let nt = GemmOp::nt(m, k, n, &a, k, &bt[..], k);
        gemm_nt(m, k, n, &a, &bt, &mut c, 0.0);
        assert_bits(&c, &product(backend(), &nt), "gemm_nt");
        let bits = half::encode_slice(&b);
        gemm_f16(m, k, n, &a, &bits, &mut c, 0.0);
        let f16 = GemmOp::nn(m, k, n, &a, k, &bits[..], n);
        assert_bits(&c, &product(backend(), &f16), "gemm_f16");
        let (codes, scales) = lx_quant::nf4::quantize(&bt);
        let view = Q4View::new(&codes, &scales, n * k);
        gemm_nt_q4(m, k, n, &a, view, &mut c, 0.0);
        let q4 = GemmOp::nt(m, k, n, &a, k, view, k);
        assert_bits(&c, &product(backend(), &q4), "gemm_nt_q4");
    }

    /// Serialises the tests that install a process-wide policy.
    static POLICY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Holds [`POLICY_LOCK`] and re-installs the policy it found, also when
    /// the test panics. Sibling tests run packed GEMMs concurrently, so the
    /// holder may only install different `mc` / `nc` — the test below proves
    /// those cannot change a result; `kc` can.
    struct PolicyGuard {
        before: KernelPolicy,
        _lock: std::sync::MutexGuard<'static, ()>,
    }

    impl PolicyGuard {
        fn lock() -> Self {
            let _lock = POLICY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            PolicyGuard {
                before: current_policy(),
                _lock,
            }
        }

        fn install_tiles(&self, mc: usize, nc: usize) -> KernelPolicy {
            let p = KernelPolicy {
                tiles: TileConfig {
                    mc,
                    nc,
                    ..self.before.tiles
                },
                ..self.before
            };
            install_policy(p);
            p
        }
    }

    impl Drop for PolicyGuard {
        fn drop(&mut self) {
            install_policy(self.before);
        }
    }

    #[test]
    fn policy_roundtrip() {
        // All four fields round-trip in `lx-runtime`'s `tests/kernel_policy.rs`
        // (its own process); here only the two no sibling test can observe.
        let guard = PolicyGuard::lock();
        let p = guard.install_tiles(48, 512);
        assert_eq!(current_policy(), p);
        drop(guard);
        assert_ne!(current_policy().tiles.mc, 48);
    }

    #[test]
    fn packed_is_bitwise_independent_of_mc_and_nc() {
        // What lets the cache-model tiles be the default at no numeric cost:
        // `mc` / `nc` regroup rows and columns, never an element's k-order.
        // Shapes straddle both tile sets (m vs 96 / 252, n vs 1024 / 2048);
        // explicit pools, so the row split does not hang on `LX_THREADS`.
        let guard = PolicyGuard::lock();
        let pools = [1, 2].map(lx_parallel::ThreadPool::new);
        let under = |mc: usize, nc: usize, op: &GemmOp<'_>| {
            guard.install_tiles(mc, nc);
            pools.each_ref().map(|pool| {
                let mut c = vec![0.0; op.m * op.n];
                PACKED.gemm_on(pool, op, &mut c, op.n, 0.0);
                c
            })
        };
        for &(m, k, n) in &[(300usize, 70usize, 1100usize), (97, 513, 40)] {
            let a = pseudo(m * k, 40 + m as u32);
            let b = pseudo(k * n, 41 + n as u32);
            let (q4_codes, q4_scales) = lx_quant::nf4::quantize(&b);
            let q4 = Q4View::new(&q4_codes, &q4_scales, k * n);
            for (what, op) in [
                ("nn", GemmOp::nn(m, k, n, &a, k, &b[..], n)),
                ("nt", GemmOp::nt(m, k, n, &a, k, &b[..], k)),
                ("tn", GemmOp::tn(m, k, n, &a, m, &b[..], n)),
                ("nn q4", GemmOp::nn(m, k, n, &a, k, q4, n)),
                ("nt q4", GemmOp::nt(m, k, n, &a, k, q4, k)),
            ] {
                let [old_1, old_2] = under(96, 2048, &op);
                let [new_1, new_2] = under(252, 1024, &op);
                let what = format!("{what} {m}x{k}x{n}");
                assert_bits(&old_1, &new_1, &what);
                assert_bits(&old_2, &new_2, &what);
                assert_bits(&new_1, &new_2, &what);
            }
        }
    }

    #[test]
    fn quantized_gemm_matches_dequant_up_front_on_every_backend() {
        // Shapes straddling block boundaries (k·n % 64 != 0, incl. a tail
        // block) and register tiles, both layouts.
        for &(m, k, n) in &[
            (5usize, 7usize, 15usize),
            (13, 65, 33),
            (32, 64, 48),
            (9, 70, 11),
        ] {
            let a = pseudo(m * k, 20 + m as u32);
            let bf = pseudo(k * n, 21 + n as u32);
            let (codes, scales) = lx_quant::nf4::quantize(&bf);
            let mut dense = vec![0.0f32; k * n];
            lx_quant::nf4::dequantize(&codes, &scales, &mut dense);
            let quant: BOperand<'_> = Q4View::new(&codes, &scales, k * n).into();
            // The same buffer read as k×n (Normal) and as n×k (Transposed).
            for (fused, oracle) in [
                (
                    GemmOp::nn(m, k, n, &a, k, quant, n),
                    GemmOp::nn(m, k, n, &a, k, &dense[..], n),
                ),
                (
                    GemmOp::nt(m, k, n, &a, k, quant, k),
                    GemmOp::nt(m, k, n, &a, k, &dense[..], k),
                ),
            ] {
                let expect = product(&REFERENCE, &oracle);
                for be in backends() {
                    assert_close(&product(be, &fused), &expect, 1e-4);
                }
                // Reference must match its own f32 path bit for bit
                // (identical accumulation order — the decoded-twin
                // equivalence rests on it).
                assert_bits(&product(&REFERENCE, &fused), &expect, "reference");
            }
        }
    }
}
