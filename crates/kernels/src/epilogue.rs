//! Fused post-GEMM epilogues.
//!
//! Every FC layer in the model follows its GEMM with a bias add and (for
//! GELU MLPs) an activation — classically a second and third read-modify-write
//! pass over the whole output. An [`Epilogue`] handed to
//! [`KernelBackend::gemm`](crate::KernelBackend::gemm) is instead applied to
//! each row chunk of C right after its final k-block is accumulated, while
//! the rows are still cache-warm — the extra serial passes disappear and the
//! epilogue work runs on the same workers that computed the rows, so it
//! parallelises with the GEMM.
//!
//! Numerics: the epilogue is applied element-wise *after* the complete
//! accumulation (including the `beta` pre-scale), in the same order an
//! unfused `gemm` + bias pass + activation pass would apply it, using the
//! same scalar [`gelu`]. Fused and unfused results are therefore
//! bit-identical per backend — the differential suite asserts exactly that.

/// `sqrt(2/π)`, the tanh-approximation constant. `lx-tensor`'s activation
/// ops delegate to [`gelu`] below so the fused epilogue and the unfused
/// activation pass can never drift apart.
pub const GELU_C: f32 = 0.797_884_6;

/// Scalar tanh-approximation GELU — the single definition shared by the
/// fused epilogue and `lx_tensor::ops`.
#[inline]
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (GELU_C * (x + 0.044715 * x * x * x)).tanh())
}

/// Transform fused into the GEMM write-back. Bias slices are indexed by the
/// GEMM call's output column (0..n) and must be at least `n` long.
#[derive(Clone, Copy, Default, Debug)]
pub enum Epilogue<'a> {
    /// Plain GEMM: `C = beta·C + A·B`.
    #[default]
    None,
    /// `C[i,j] = beta·C[i,j] + (A·B)[i,j] + bias[j]`.
    Bias(&'a [f32]),
    /// `C[i,j] = gelu(beta·C[i,j] + (A·B)[i,j] + bias[j])`.
    BiasGelu(&'a [f32]),
}

impl Epilogue<'_> {
    #[inline]
    pub fn is_none(&self) -> bool {
        matches!(self, Epilogue::None)
    }

    /// Validate the bias against the GEMM's output width.
    #[track_caller]
    pub(crate) fn check(&self, n: usize) {
        if let Epilogue::Bias(b) | Epilogue::BiasGelu(b) = self {
            assert!(
                b.len() >= n,
                "epilogue bias has {} elements but the GEMM writes {} columns",
                b.len(),
                n
            );
        }
    }

    /// Apply to an `mr`×`nr` window of C whose first column is output column
    /// `j0`. No-op for `None`; the packed launch calls this with whole C
    /// rows (`mr == 1`, `nr == n`) so the inner loop amortises its setup
    /// over long contiguous runs.
    #[inline]
    pub(crate) fn apply_tile(&self, c: &mut [f32], ldc: usize, mr: usize, nr: usize, j0: usize) {
        match *self {
            Epilogue::None => {}
            Epilogue::Bias(bias) => {
                let b = &bias[j0..j0 + nr];
                for i in 0..mr {
                    let row = &mut c[i * ldc..i * ldc + nr];
                    for (v, &bv) in row.iter_mut().zip(b) {
                        *v += bv;
                    }
                }
            }
            Epilogue::BiasGelu(bias) => {
                let b = &bias[j0..j0 + nr];
                for i in 0..mr {
                    let row = &mut c[i * ldc..i * ldc + nr];
                    for (v, &bv) in row.iter_mut().zip(b) {
                        *v = gelu(*v + bv);
                    }
                }
            }
        }
    }
}

/// Apply `ep` to an `m`×`n` block of `c` as a standalone pass — what the
/// scalar oracle backend runs after its decoded-B loops, and what degenerate
/// `k == 0` GEMMs (where the "accumulation" is just the beta pre-scale)
/// reduce to.
#[track_caller]
pub fn apply_epilogue(c: &mut [f32], m: usize, n: usize, ldc: usize, ep: Epilogue<'_>) {
    if ep.is_none() || m == 0 || n == 0 {
        return;
    }
    ep.check(n);
    for i in 0..m {
        ep.apply_tile(&mut c[i * ldc..], ldc, 1, n, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bias_epilogue_adds_per_column() {
        let mut c = vec![1.0f32; 6];
        apply_epilogue(&mut c, 2, 3, 3, Epilogue::Bias(&[0.5, -1.0, 2.0]));
        assert_eq!(c, vec![1.5, 0.0, 3.0, 1.5, 0.0, 3.0]);
    }

    #[test]
    fn bias_gelu_matches_manual_composition() {
        let bias = [0.25f32, -0.75];
        let mut fused = vec![0.3f32, -1.2, 2.0, 0.0];
        let mut manual = fused.clone();
        apply_epilogue(&mut fused, 2, 2, 2, Epilogue::BiasGelu(&bias));
        for (i, v) in manual.iter_mut().enumerate() {
            *v = gelu(*v + bias[i % 2]);
        }
        for (f, m) in fused.iter().zip(&manual) {
            assert_eq!(f.to_bits(), m.to_bits());
        }
    }

    #[test]
    fn strided_view_only_touches_the_window() {
        let mut c = vec![0.0f32; 10]; // 2 rows, ldc 5, window n=2
        apply_epilogue(&mut c, 2, 2, 5, Epilogue::Bias(&[1.0, 2.0]));
        assert_eq!(c, vec![1.0, 2.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "epilogue bias")]
    fn short_bias_is_rejected() {
        let mut c = vec![0.0f32; 4];
        apply_epilogue(&mut c, 2, 2, 2, Epilogue::Bias(&[1.0]));
    }
}
