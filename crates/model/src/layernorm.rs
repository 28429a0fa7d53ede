//! LayerNorm module with cached per-row statistics for the backward pass.

use crate::param::Param;
use lx_kernels::{active_isa, rows};
use lx_tensor::Tensor;

#[derive(Debug)]
pub struct LayerNorm {
    pub gamma: Param,
    pub beta: Param,
    pub eps: f32,
    cache: Option<LnCache>,
}

#[derive(Debug)]
struct LnCache {
    x: Tensor,
    /// Per-row statistics, kept as tensors so the buffers recycle through
    /// the step workspace instead of being reallocated every forward.
    means: Tensor,
    rstds: Tensor,
}

impl LayerNorm {
    pub fn new(name: &str, dim: usize, eps: f32) -> Self {
        LayerNorm {
            gamma: Param::frozen(format!("{name}.gamma"), Tensor::full(&[dim], 1.0)),
            beta: Param::frozen(format!("{name}.beta"), Tensor::zeros(&[dim])),
            eps,
            cache: None,
        }
    }

    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        // The kernel writes every element of all three.
        let mut y = Tensor::scratch(x.shape());
        let mut means = Tensor::scratch(&[x.rows()]);
        let mut rstds = Tensor::scratch(&[x.rows()]);
        rows::layernorm_forward(
            active_isa(),
            x.as_slice(),
            self.gamma.value.as_slice(),
            self.beta.value.as_slice(),
            self.eps,
            y.as_mut_slice(),
            means.as_mut_slice(),
            rstds.as_mut_slice(),
        );
        self.cache = Some(LnCache {
            x: x.clone(),
            means,
            rstds,
        });
        y
    }

    /// Take the input of the last forward (calibration capture). The cache
    /// is consumed, so no backward can follow.
    pub(crate) fn take_input(&mut self) -> Option<Tensor> {
        self.cache.take().map(|c| c.x)
    }

    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("LayerNorm::backward without forward");
        let mut dx = Tensor::scratch(dy.shape());
        // Both frozen (always, under LoRA): no parameter gradient is
        // accumulated at all, not accumulated and dropped.
        let trainable = self.gamma.trainable || self.beta.trainable;
        let mut grads = trainable.then(|| {
            let dim = dy.cols();
            (Tensor::zeros(&[dim]), Tensor::zeros(&[dim]))
        });
        rows::layernorm_backward(
            active_isa(),
            cache.x.as_slice(),
            dy.as_slice(),
            self.gamma.value.as_slice(),
            cache.means.as_slice(),
            cache.rstds.as_slice(),
            dx.as_mut_slice(),
            grads
                .as_mut()
                .map(|(dg, db)| (dg.as_mut_slice(), db.as_mut_slice())),
        );
        if let Some((dgamma, dbeta)) = &grads {
            if self.gamma.trainable {
                self.gamma.accumulate_grad(dgamma);
            }
            if self.beta.trainable {
                self.beta.accumulate_grad(dbeta);
            }
        }
        dx
    }

    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_normalises_each_row() {
        let mut ln = LayerNorm::new("ln", 8, 1e-5);
        let x = Tensor::randn(&[4, 8], 2.0, 1);
        let y = ln.forward(&x);
        for r in 0..4 {
            let row = y.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn backward_dx_matches_finite_difference() {
        let mut ln = LayerNorm::new("ln", 6, 1e-6);
        // Non-trivial gamma/beta.
        ln.gamma.value = Tensor::rand_uniform(&[6], 0.5, 1.5, 2);
        ln.beta.value = Tensor::randn(&[6], 0.3, 3);
        let x = Tensor::randn(&[2, 6], 1.0, 4);
        let dy = Tensor::randn(&[2, 6], 1.0, 5);
        let _ = ln.forward(&x);
        let dx = ln.backward(&dy);
        let loss = |ln: &mut LayerNorm, x: &Tensor| -> f32 {
            let y = ln.forward(x);
            y.as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let h = 1e-3;
        for idx in [0usize, 4, 9] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= h;
            let fd = (loss(&mut ln, &xp) - loss(&mut ln, &xm)) / (2.0 * h);
            assert!((dx.as_slice()[idx] - fd).abs() < 2e-3, "dx[{idx}]");
        }
    }

    #[test]
    fn bitfit_style_beta_grad_only_when_trainable() {
        let mut ln = LayerNorm::new("ln", 4, 1e-5);
        let x = Tensor::randn(&[3, 4], 1.0, 6);
        let dy = Tensor::randn(&[3, 4], 1.0, 7);
        let _ = ln.forward(&x);
        let _ = ln.backward(&dy);
        assert!(ln.beta.grad.is_none());
        ln.beta.trainable = true;
        let _ = ln.forward(&x);
        let _ = ln.backward(&dy);
        let dbeta = ln.beta.grad.as_ref().unwrap();
        // dbeta = column sums of dy.
        for c in 0..4 {
            let expect: f32 = (0..3).map(|r| dy.row(r)[c]).sum();
            assert!((dbeta.as_slice()[c] - expect).abs() < 1e-5);
        }
    }
}
