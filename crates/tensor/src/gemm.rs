//! Dense GEMM entry points, routed through the `lx-kernels` backend.
//!
//! These used to be hand-written `i-k-j` loop kernels; they now live in
//! `lx-kernels` as its test oracle, and the functions here are thin wrappers
//! over the process-wide backend: `gemm`/`gemm_nt`/`gemm_tn` on contiguous
//! f32 slices, and one `Tensor`-level [`matmul`] that takes its `B` in any
//! storage (see [`BRef`]). Row-major everywhere; transposition is a
//! [`Layout`] argument, so callers never materialise transposes in the hot
//! path. Every call, whatever its shape, runs the packed/tiled microkernels
//! (see [`lx_kernels::backend`]).

use crate::{BRef, Tensor};
// Operand layout and the product descriptor; re-exported so model-layer
// callers need no direct lx-kernels dep.
pub use lx_kernels::{GemmOp, Layout};

/// `C[m,n] = A[m,k] · B[k,n] + beta·C`.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], beta: f32) {
    assert_eq!(a.len(), m * k, "gemm: A size");
    assert_eq!(b.len(), k * n, "gemm: B size");
    assert_eq!(c.len(), m * n, "gemm: C size");
    lx_kernels::gemm(m, k, n, a, b, c, beta);
}

/// `C[m,n] = A[m,k] · B[n,k]ᵀ + beta·C` — B stored row-major as `n×k`.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], beta: f32) {
    assert_eq!(a.len(), m * k, "gemm_nt: A size");
    assert_eq!(b.len(), n * k, "gemm_nt: B size");
    assert_eq!(c.len(), m * n, "gemm_nt: C size");
    lx_kernels::gemm_nt(m, k, n, a, b, c, beta);
}

/// `C[m,n] = A[k,m]ᵀ · B[k,n] + beta·C` — A stored row-major as `k×m`.
///
/// This is the gradient-of-weights shape (`dW = Xᵀ · dY`), the dominant
/// backward-pass GEMM in §II-C of the paper.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], beta: f32) {
    assert_eq!(a.len(), k * m, "gemm_tn: A size");
    assert_eq!(b.len(), k * n, "gemm_tn: B size");
    assert_eq!(c.len(), m * n, "gemm_tn: C size");
    let op = GemmOp::contiguous(m, k, n, a, Layout::Transposed, b, Layout::Normal);
    lx_kernels::backend().gemm(&op, c, n.max(1), beta);
}

/// `C = op(A)·op(B) + beta·C` for one described product on the process-wide
/// backend, C with leading dimension `ldc`: the entry for strided windows of
/// larger buffers (a head's columns of a head-stacked matrix, read and
/// written in place).
pub fn gemm_op(op: &GemmOp<'_>, c: &mut [f32], ldc: usize, beta: f32) {
    lx_kernels::backend().gemm(op, c, ldc, beta);
}

/// `A[m,k] · B` on the trailing-2-D views, with `B` in **any storage** — a
/// `&Tensor` or a `&Reduced` — stored `k×n` ([`Layout::Normal`]) or `n×k`
/// ([`Layout::Transposed`]).
///
/// A reduced-stored B decodes to f32 inside the kernel (pack-time for the
/// packed backend) and all accumulation stays f32, so the result matches
/// decoding B up front.
pub fn matmul<'b>(a: &Tensor, b: impl Into<BRef<'b>>, b_layout: Layout) -> Tensor {
    let b = b.into();
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = match b_layout {
        Layout::Normal => (b.rows(), b.cols()),
        Layout::Transposed => (b.cols(), b.rows()),
    };
    assert_eq!(
        k,
        kb,
        "matmul inner dims: {:?} x {:?} ({b_layout:?})",
        a.shape(),
        b.shape()
    );
    // Every element is written: beta 0 never reads C.
    let mut c = Tensor::scratch(&[m, n]);
    let op = GemmOp::contiguous(m, k, n, a.as_slice(), Layout::Normal, b.operand(), b_layout);
    lx_kernels::backend().gemm(&op, c.as_mut_slice(), n.max(1), 0.0);
    c
}

/// Tensor-level wrapper: `A[k,m]ᵀ · B[k,n]` (f32 only — the
/// gradient-of-weights shape).
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(
        k,
        kb,
        "matmul_tn inner dims: {:?}ᵀ x {:?}",
        a.shape(),
        b.shape()
    );
    let mut c = Tensor::scratch(&[m, n]);
    gemm_tn(m, k, n, a.as_slice(), b.as_slice(), c.as_mut_slice(), 0.0);
    c
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

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "idx {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn gemm_matches_naive() {
        let (m, k, n) = (33, 17, 29);
        let a = crate::rng::randn_vec(m * k, 1.0, 1);
        let b = crate::rng::randn_vec(k * n, 1.0, 2);
        let mut c = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut c, 0.0);
        assert_close(&c, &naive(m, k, n, &a, &b), 1e-4);
    }

    #[test]
    fn gemm_beta_accumulates() {
        let (m, k, n) = (4, 3, 5);
        let a = crate::rng::randn_vec(m * k, 1.0, 3);
        let b = crate::rng::randn_vec(k * n, 1.0, 4);
        let mut c = vec![1.0; m * n];
        gemm(m, k, n, &a, &b, &mut c, 2.0);
        let mut expect = naive(m, k, n, &a, &b);
        for v in expect.iter_mut() {
            *v += 2.0;
        }
        assert_close(&c, &expect, 1e-4);
    }

    #[test]
    fn gemm_nt_matches_naive() {
        let (m, k, n) = (19, 23, 11);
        let a = crate::rng::randn_vec(m * k, 1.0, 5);
        let bt = crate::rng::randn_vec(n * k, 1.0, 6); // n×k
                                                       // Build row-major k×n B for the naive reference.
        let mut b = vec![0.0; k * n];
        for j in 0..n {
            for l in 0..k {
                b[l * n + j] = bt[j * k + l];
            }
        }
        let mut c = vec![0.0; m * n];
        gemm_nt(m, k, n, &a, &bt, &mut c, 0.0);
        assert_close(&c, &naive(m, k, n, &a, &b), 1e-4);
    }

    #[test]
    fn gemm_tn_matches_naive() {
        let (m, k, n) = (13, 21, 9);
        let at = crate::rng::randn_vec(k * m, 1.0, 7); // k×m
        let b = crate::rng::randn_vec(k * n, 1.0, 8);
        let mut a = vec![0.0; m * k];
        for l in 0..k {
            for i in 0..m {
                a[i * k + l] = at[l * m + i];
            }
        }
        let mut c = vec![0.0; m * n];
        gemm_tn(m, k, n, &at, &b, &mut c, 0.0);
        assert_close(&c, &naive(m, k, n, &a, &b), 1e-4);
    }

    #[test]
    fn large_parallel_gemm_matches_naive() {
        // Several register tiles and row panels in every dimension.
        let (m, k, n) = (128, 96, 64);
        let a = crate::rng::randn_vec(m * k, 1.0, 9);
        let b = crate::rng::randn_vec(k * n, 1.0, 10);
        let mut c = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut c, 0.0);
        assert_close(&c, &naive(m, k, n, &a, &b), 1e-3);
    }

    const NN: Layout = Layout::Normal;
    const NT: Layout = Layout::Transposed;

    /// [`matmul`] with `bias` carried by the op into the write-back, as
    /// `Linear` runs its forward.
    fn matmul_bias<'b>(a: &Tensor, b: impl Into<BRef<'b>>, layout: Layout, bias: &[f32]) -> Tensor {
        let (m, k, n) = (a.rows(), a.cols(), bias.len());
        let mut c = Tensor::scratch(&[m, n]);
        let op = GemmOp {
            bias: Some(bias),
            ..GemmOp::contiguous(m, k, n, a.as_slice(), NN, b.into().operand(), layout)
        };
        lx_kernels::backend().gemm(&op, c.as_mut_slice(), n, 0.0);
        c
    }

    fn assert_bits(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn tensor_wrappers_shapes() {
        let a = Tensor::randn(&[6, 4], 1.0, 11);
        let b = Tensor::randn(&[4, 5], 1.0, 12);
        let c = matmul(&a, &b, NN);
        assert_eq!(c.shape(), &[6, 5]);
        let bt = b.transposed_2d();
        let c2 = matmul(&a, &bt, NT);
        assert_close(c.as_slice(), c2.as_slice(), 1e-4);
        let at = a.transposed_2d();
        let c3 = matmul_tn(&at, &b);
        assert_close(c.as_slice(), c3.as_slice(), 1e-4);
    }

    #[test]
    fn reduced_matmuls_match_decode_up_front() {
        use crate::{Dtype, Reduced};
        let a = Tensor::randn(&[7, 36], 1.0, 15);
        let b = Tensor::randn(&[36, 9], 1.0, 16);
        let bias = crate::rng::randn_vec(9, 1.0, 42);
        for dtype in [Dtype::F16, Dtype::Nf4Block] {
            for (stored, layout) in [(b.clone(), NN), (b.transposed_2d(), NT)] {
                let r = Reduced::from_tensor(&stored, dtype);
                let decoded = BRef::from(&r).to_tensor();
                let oracle = matmul(&a, &decoded, layout);
                let c = matmul(&a, &r, layout);
                assert_close(c.as_slice(), oracle.as_slice(), 1e-4);
                // Fused bias against its own unfused twin.
                let fused = matmul_bias(&a, &r, layout, &bias);
                let mut unfused = c;
                crate::ops::add_bias_rows(&mut unfused, &bias);
                assert_bits(&fused, &unfused);
            }
        }
    }

    #[test]
    fn fused_epilogue_matches_unfused_composition_bitwise() {
        use crate::ops::add_bias_rows;
        let a = Tensor::randn(&[9, 33], 1.0, 17);
        let b = Tensor::randn(&[33, 12], 1.0, 18);
        let bias = crate::rng::randn_vec(12, 1.0, 19);
        // Bias-only fusion.
        let fused = matmul_bias(&a, &b, NN, &bias);
        let mut unfused = matmul(&a, &b, NN);
        add_bias_rows(&mut unfused, &bias);
        assert_bits(&fused, &unfused);
        // nt form against its own unfused twin.
        let bt = b.transposed_2d();
        let fused_nt = matmul_bias(&a, &bt, NT, &bias);
        let mut unfused_nt = matmul(&a, &bt, NT);
        add_bias_rows(&mut unfused_nt, &bias);
        assert_bits(&fused_nt, &unfused_nt);
    }

    #[test]
    fn degenerate_dims() {
        let a = Tensor::randn(&[1, 8], 1.0, 13);
        let b = Tensor::randn(&[8, 1], 1.0, 14);
        let c = matmul(&a, &b, NN);
        assert_eq!(c.shape(), &[1, 1]);
        let expect: f32 = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| x * y)
            .sum();
        assert!((c.as_slice()[0] - expect).abs() < 1e-4);
    }
}
