//! Elementwise and row-wise numeric kernels shared by the model and the
//! Long Exposure components: activations (ReLU for OPT-style models, GeLU for
//! GPT-2-style), numerically-stable softmax (plain, and the fused causal
//! scores → probabilities pair of dense attention), row log-sum-exp, and bias
//! helpers. ReLU, every softmax and the log-sum-exp here are thin shape
//! adapters over the ISA-dispatched row kernels in [`lx_kernels::rows`] — the
//! one implementation the block-sparse path, LayerNorm and the loss run too.

use crate::Tensor;
use lx_kernels::active_isa;
use lx_kernels::rows::{self, Band, Causal};

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------

/// ReLU: `a = max(z, 0)`.
pub fn relu(z: &[f32], a: &mut [f32]) {
    rows::relu(active_isa(), z, a)
}

/// ReLU backward: `dz = da ⊙ [z > 0]`, reading the *pre-activation* `z`.
pub fn relu_backward(da: &[f32], z: &[f32], dz: &mut [f32]) {
    rows::relu_backward(active_isa(), da, z, dz)
}

/// `sqrt(2/π)`, the tanh-approximation constant.
pub const GELU_C: f32 = 0.797_884_6;

/// Scalar tanh-approximation GeLU.
#[inline]
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (GELU_C * (x + 0.044715 * x * x * x)).tanh())
}

/// Derivative of the tanh-approximation GeLU.
#[inline]
pub fn gelu_grad(x: f32) -> f32 {
    let x3 = x * x * x;
    let inner = GELU_C * (x + 0.044715 * x3);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * GELU_C * (1.0 + 3.0 * 0.044715 * x * x)
}

/// In-place GeLU.
pub fn gelu_inplace(x: &mut [f32]) {
    for v in x {
        *v = gelu(*v);
    }
}

/// GeLU backward from pre-activations.
pub fn gelu_backward(da: &[f32], z: &[f32], dz: &mut [f32]) {
    for ((g, &zv), out) in da.iter().zip(z).zip(dz.iter_mut()) {
        *out = *g * gelu_grad(zv);
    }
}

// ---------------------------------------------------------------------------
// Softmax
// ---------------------------------------------------------------------------

/// Run `body(first row, rows, chunk)` over `width`-wide row chunks of `x`,
/// on the pool when the matrix is worth more than one
/// [`rows::PAR_GRAIN`]-sized task (and the thread is not pinned by
/// [`lx_kernels::with_sequential`]).
fn par_row_chunks(x: &mut [f32], width: usize, body: impl Fn(usize, usize, &mut [f32]) + Sync) {
    assert_eq!(x.len() % width.max(1), 0, "softmax: ragged input");
    if width == 0 {
        return;
    }
    let rows = x.len() / width;
    let grain = if lx_kernels::sequential_mode() {
        rows
    } else {
        (rows::PAR_GRAIN / width).max(1)
    };
    lx_parallel::par_rows(x, rows, width, grain, |rr, chunk| {
        body(rr.start, rr.len(), chunk)
    });
}

/// Numerically-stable softmax over each `width`-sized row of `x`. A row of
/// nothing but `−∞` becomes zeros.
pub fn softmax_rows(x: &mut [f32], width: usize) {
    let isa = active_isa();
    par_row_chunks(x, width, |_, n, chunk| {
        rows::softmax_forward(isa, chunk, Band::dense(n, width), 1.0, None)
    });
}

/// Dense causal attention scores → probabilities in place, one pass family:
/// row `i` of the `s×s` matrix becomes `softmax_j(scale·x[i,j] −
/// slope·(i−j))` over `j ≤ i` and exact zeros past the diagonal (which is
/// never exponentiated). `slope = 0` for no ALiBi bias.
pub fn causal_softmax_rows(x: &mut [f32], s: usize, scale: f32, slope: f32) {
    assert_eq!(x.len(), s * s, "causal softmax: square scores");
    let isa = active_isa();
    par_row_chunks(x, s, |q0, n, chunk| {
        let cols = &[0][..];
        let causal = Some(Causal { q0, cols, slope });
        rows::softmax_forward(isa, chunk, Band::dense(n, s), scale, causal)
    });
}

/// Backward of [`causal_softmax_rows`], in place on `grad` (`dP` in, `dS`
/// out): `dS = scale · P ⊙ (dP − ⟨P, dP⟩_row)` up to the diagonal, zeros
/// past it.
pub fn causal_softmax_backward_rows(p: &[f32], grad: &mut [f32], s: usize, scale: f32) {
    assert_eq!(
        p.len(),
        s * s,
        "causal softmax backward: square probabilities"
    );
    assert_eq!(
        grad.len(),
        s * s,
        "causal softmax backward: grad shaped like p"
    );
    let isa = active_isa();
    par_row_chunks(grad, s, |q0, n, chunk| {
        let cols = &[0][..];
        let causal = Some(Causal {
            q0,
            cols,
            slope: 0.0,
        });
        let p = &p[q0 * s..(q0 + n) * s];
        rows::softmax_backward(isa, p, chunk, Band::dense(n, s), scale, causal)
    });
}

/// `ln Σ eˣ` of each `width`-wide row of `x`, one vector pass per row. With
/// `softmax` (shaped like `x`), the same pass also writes each row's softmax
/// there — the gradient of that row's log-sum-exp.
pub fn log_sum_exp_rows(x: &[f32], width: usize, mut softmax: Option<&mut [f32]>) -> Vec<f32> {
    assert!(
        width > 0 && x.len().is_multiple_of(width),
        "log-sum-exp: ragged input"
    );
    if let Some(p) = &softmax {
        assert_eq!(p.len(), x.len(), "log-sum-exp: softmax shaped like x");
    }
    let isa = active_isa();
    let chunks = x.chunks_exact(width).enumerate();
    chunks
        .map(|(r, row)| {
            let grad = softmax
                .as_deref_mut()
                .map(|p| (&mut p[r * width..(r + 1) * width], 1.0));
            let (max, sum) = rows::log_sum_exp(isa, row, grad);
            max + sum.ln()
        })
        .collect()
}

/// Apply a causal mask to an `s×s` score matrix: positions `j > i` get −∞.
pub fn apply_causal_mask(scores: &mut [f32], s: usize) {
    assert_eq!(scores.len(), s * s);
    for i in 0..s {
        for v in scores[i * s + i + 1..(i + 1) * s].iter_mut() {
            *v = f32::NEG_INFINITY;
        }
    }
}

// ---------------------------------------------------------------------------
// Bias helpers
// ---------------------------------------------------------------------------

/// `x[r, :] += bias` for every row.
pub fn add_bias_rows(x: &mut Tensor, bias: &[f32]) {
    let c = x.cols();
    assert_eq!(c, bias.len(), "bias width");
    for r in 0..x.rows() {
        for (v, b) in x.row_mut(r).iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Column-sum of `dy`, rows of `dbias.len()` values, accumulated into
/// `dbias` (+=), rows in order.
pub fn bias_grad_rows(dy: &[f32], dbias: &mut [f32]) {
    if dbias.is_empty() {
        return;
    }
    assert_eq!(dy.len() % dbias.len(), 0, "bias grad width");
    for row in dy.chunks_exact(dbias.len()) {
        for (d, g) in dbias.iter_mut().zip(row) {
            *d += g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_roundtrip() {
        let z = vec![-1.0, 0.0, 0.5, 2.0];
        let mut a = vec![9.0; 4];
        relu(&z, &mut a);
        assert_eq!(a, vec![0.0, 0.0, 0.5, 2.0]);
        let da = vec![1.0; 4];
        let mut dz = vec![9.0; 4];
        relu_backward(&da, &z, &mut dz);
        assert_eq!(dz, vec![0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn gelu_matches_reference_points() {
        // Expected values from the tanh approximation itself evaluated in f64.
        assert!((gelu(0.0)).abs() < 1e-7);
        assert!((gelu(1.0) - 0.841_192).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.158_808).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let h = 1e-3;
            let fd = (gelu(x + h) - gelu(x - h)) / (2.0 * h);
            assert!((gelu_grad(x) - fd).abs() < 1e-3, "x={x}");
        }
    }

    #[test]
    fn softmax_rows_sum_to_one_and_are_stable() {
        let mut x = vec![1000.0, 1001.0, 999.0, -3.0, 0.0, 2.0];
        softmax_rows(&mut x, 3);
        for row in x.chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|v| v.is_finite()));
        }
        assert!(x[1] > x[0] && x[0] > x[2]);
    }

    #[test]
    fn log_sum_exp_rows_match_f64_and_write_the_softmax() {
        let width = 37;
        let x = crate::rng::randn_vec(3 * width, 4.0, 33);
        let mut p = vec![9.0; x.len()];
        let lse = log_sum_exp_rows(&x, width, Some(&mut p));
        assert_eq!(lse, log_sum_exp_rows(&x, width, None));
        for (r, row) in x.chunks(width).enumerate() {
            let max = row.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v as f64));
            let sum: f64 = row.iter().map(|&v| (v as f64 - max).exp()).sum();
            let want = max + sum.ln();
            assert!((lse[r] as f64 - want).abs() < 1e-5 * want.abs().max(1.0));
            for (j, &v) in row.iter().enumerate() {
                let soft = (v as f64 - want).exp();
                assert!((p[r * width + j] as f64 - soft).abs() < 1e-6, "({r},{j})");
            }
        }
    }

    #[test]
    fn softmax_fully_masked_row_is_zero() {
        let mut row = vec![f32::NEG_INFINITY; 4];
        softmax_rows(&mut row, 4);
        assert!(row.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn causal_mask_zeroes_upper_triangle_after_softmax() {
        let s = 4;
        let mut scores = vec![0.5f32; s * s];
        apply_causal_mask(&mut scores, s);
        softmax_rows(&mut scores, s);
        let mut fused = vec![0.5f32; s * s];
        causal_softmax_rows(&mut fused, s, 1.0, 0.0);
        for i in 0..s {
            for j in 0..s {
                let v = scores[i * s + j];
                if j > i {
                    assert_eq!(v, 0.0);
                } else {
                    assert!((v - 1.0 / (i + 1) as f32).abs() < 1e-5);
                }
                assert_eq!(fused[i * s + j].to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn causal_softmax_backward_matches_finite_difference() {
        let s = 5;
        let (scale, slope) = (0.7, 0.25);
        let x = crate::rng::randn_vec(s * s, 1.0, 30);
        let dy = crate::rng::randn_vec(s * s, 1.0, 31);
        let probs = |x: &[f32]| {
            let mut p = x.to_vec();
            causal_softmax_rows(&mut p, s, scale, slope);
            p
        };
        let p = probs(&x);
        let mut dx = dy.clone();
        causal_softmax_backward_rows(&p, &mut dx, s, scale);
        let loss = |x: &[f32]| -> f32 { probs(x).iter().zip(&dy).map(|(p, g)| p * g).sum() };
        let h = 1e-2;
        for idx in 0..s * s {
            let (i, j) = (idx / s, idx % s);
            if j > i {
                assert_eq!(dx[idx], 0.0, "masked gradient at ({i},{j})");
                continue;
            }
            let (mut xp, mut xm) = (x.clone(), x.clone());
            xp[idx] += h;
            xm[idx] -= h;
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * h);
            assert!(
                (dx[idx] - fd).abs() < 2e-3,
                "({i},{j}): {} vs {fd}",
                dx[idx]
            );
        }
    }

    #[test]
    fn bias_add_and_grad() {
        let mut x = Tensor::zeros(&[3, 2]);
        add_bias_rows(&mut x, &[1.0, 2.0]);
        assert_eq!(x.row(2), &[1.0, 2.0]);
        let mut db = vec![0.0; 2];
        bias_grad_rows(x.as_slice(), &mut db);
        assert_eq!(db, vec![3.0, 6.0]);
    }
}
