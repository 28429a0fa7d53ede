//! Dense linear layer with optional LoRA adapter, and [`Lora`] — the one
//! rank-r pair every LoRA site in the model (`Linear`, MLP FC1 and FC2) and
//! the merge path use.
//!
//! The backbone weight is typically frozen under PEFT; gradients then flow
//! only into the low-rank pair `(A, B)` exactly as derived in the paper's
//! §II-C: `dW` is skipped, `dA`/`dB` are computed from the same upstream
//! gradient that the frozen path propagates to earlier layers.

use crate::param::Param;
use lx_kernels::GemmOp;
use lx_sparse::neuron::{
    fc1_backward_input, fc1_forward, fc1_grad_weights, fc2_backward_input, fc2_forward,
    fc2_grad_weights,
};
use lx_sparse::NeuronBlockSet;
use lx_tensor::gemm::{matmul, matmul_tn, Epilogue, Layout};
use lx_tensor::ops::bias_grad_rows;
use lx_tensor::Tensor;

/// LoRA low-rank pair: `y += s·(x·Ã)·Bᵀ` with `s = α/r`, `Ã` the `d_in × r`
/// down-projection and `B ∈ d_out×r`. `B` starts at zero so fine-tuning
/// begins from the pre-trained function.
///
/// `A` is stored `[r, d_in]` (`Layout::Transposed`: `Linear` and MLP FC1) or
/// `[d_in, r]` (`Layout::Normal`: MLP FC2, whose row `n` then belongs to
/// input neuron `n`). The attach site fixes the orientation; it is part of
/// the parameter's shape.
///
/// On the neuron-sparse MLP path the neuron-major factor — FC1's `B`, FC2's
/// `A` — runs on the grouped `lx_sparse::neuron` kernels with `d = r`, so an
/// inactive neuron's row is neither read nor given a gradient (§II-D).
#[derive(Debug)]
pub struct Lora {
    pub a: Param,
    pub b: Param,
    pub scale: f32,
    a_layout: Layout,
    /// `x·Ã` of the last forward, consumed by the backward.
    ax: Option<Tensor>,
}

/// The other storage orientation.
fn transposed(layout: Layout) -> Layout {
    match layout {
        Layout::Normal => Layout::Transposed,
        Layout::Transposed => Layout::Normal,
    }
}

/// A `shape` tensor written in full by `kernel`.
fn filled(shape: &[usize], kernel: impl FnOnce(&mut [f32])) -> Tensor {
    let mut t = Tensor::scratch(shape);
    kernel(t.as_mut_slice());
    t
}

impl Lora {
    pub fn new(
        name_prefix: &str,
        d_in: usize,
        d_out: usize,
        rank: usize,
        alpha: f32,
        seed: u64,
        a_layout: Layout,
    ) -> Self {
        let a_shape = match a_layout {
            Layout::Normal => [d_in, rank],
            Layout::Transposed => [rank, d_in],
        };
        Lora {
            a: Param::new(
                format!("{name_prefix}.lora_a"),
                Tensor::randn(&a_shape, 1.0 / rank as f32, seed),
                true,
            ),
            b: Param::new(
                format!("{name_prefix}.lora_b"),
                Tensor::zeros(&[d_out, rank]),
                true,
            ),
            scale: alpha / rank as f32,
            a_layout,
            ax: None,
        }
    }

    pub fn rank(&self) -> usize {
        self.b.value.shape()[1]
    }

    /// `y += s·(x·Ã)·Bᵀ`.
    pub fn forward(&mut self, x: &Tensor, y: &mut Tensor) {
        self.forward_over(x, y, None);
    }

    /// Accumulates `dA` / `dB` into the trainable halves and adds the
    /// adapter's share of the input gradient to `dx`.
    pub fn backward(&mut self, x: &Tensor, dy: &Tensor, dx: &mut Tensor) {
        self.backward_over(x, dy, dx, None);
    }

    /// The neuron-major factor `set` restricts: `A` when stored `[d_in, r]`
    /// (FC2, compact input `x`), else `B` (FC1, compact output `y`). Returns
    /// `(set for A, set for B)`.
    fn split<'s>(
        &self,
        set: Option<&'s NeuronBlockSet>,
    ) -> (Option<&'s NeuronBlockSet>, Option<&'s NeuronBlockSet>) {
        match self.a_layout {
            Layout::Normal => (set, None),
            Layout::Transposed => (None, set),
        }
    }

    /// [`forward`](Self::forward) over the active neuron blocks of `set`
    /// (every neuron when `None`).
    pub(crate) fn forward_over(
        &mut self,
        x: &Tensor,
        y: &mut Tensor,
        set: Option<&NeuronBlockSet>,
    ) {
        let (a_set, b_set) = self.split(set);
        let (rows, r) = (x.rows(), self.rank());
        let (a, b) = (self.a.value.as_slice(), self.b.value.as_slice());
        let ax = match a_set {
            Some(set) => filled(&[rows, r], |ax| {
                fc2_forward(x.as_slice(), rows, a, r, None, set, ax)
            }),
            None => matmul(x, &self.a.value, self.a_layout, Epilogue::None),
        };
        let delta = match b_set {
            Some(set) => filled(y.shape(), |d| {
                fc1_forward(ax.as_slice(), rows, b, r, None, set, d)
            }),
            None => matmul(&ax, &self.b.value, Layout::Transposed, Epilogue::None),
        };
        y.axpy(self.scale, &delta);
        self.ax = Some(ax);
    }

    /// [`backward`](Self::backward) over the active neuron blocks of `set`,
    /// compact on the same side as [`forward_over`](Self::forward_over).
    /// Inactive rows of the neuron-major factor receive no gradient.
    pub(crate) fn backward_over(
        &mut self,
        x: &Tensor,
        dy: &Tensor,
        dx: &mut Tensor,
        set: Option<&NeuronBlockSet>,
    ) {
        let (a_set, b_set) = self.split(set);
        let (rows, r) = (dy.rows(), self.rank());
        let mut ax = self.ax.take().expect("LoRA backward without forward");
        // d(ax) = s·dy·B
        let b = self.b.value.as_slice();
        let mut dax = match b_set {
            Some(set) => filled(&[rows, r], |dax| {
                fc1_backward_input(dy.as_slice(), rows, b, r, set, dax)
            }),
            None => matmul(dy, &self.b.value, Layout::Normal, Epilogue::None),
        };
        dax.scale(self.scale);
        // dB += s·dyᵀ·ax
        if self.b.trainable {
            match b_set {
                Some(set) => {
                    ax.scale(self.scale);
                    let db = self.b.grad_mut().as_mut_slice();
                    fc1_grad_weights(ax.as_slice(), dy.as_slice(), rows, r, set, db);
                }
                None => {
                    let mut db = matmul_tn(dy, &ax);
                    db.scale(self.scale);
                    self.b.accumulate_grad(&db);
                }
            }
        }
        // dA += d(ax)ᵀ·x, in A's storage orientation
        if self.a.trainable {
            match (a_set, self.a_layout) {
                (Some(set), _) => {
                    let da = self.a.grad_mut().as_mut_slice();
                    fc2_grad_weights(x.as_slice(), dax.as_slice(), rows, r, set, da);
                }
                (None, Layout::Transposed) => self.a.accumulate_grad(&matmul_tn(&dax, x)),
                (None, Layout::Normal) => self.a.accumulate_grad(&matmul_tn(x, &dax)),
            }
        }
        // dx += d(ax)·Ãᵀ
        let a = self.a.value.as_slice();
        let dx_lora = match a_set {
            Some(set) => filled(dx.shape(), |d| {
                fc2_backward_input(dax.as_slice(), rows, a, r, set, d)
            }),
            None => matmul(
                &dax,
                &self.a.value,
                transposed(self.a_layout),
                Epilogue::None,
            ),
        };
        dx.add_assign(&dx_lora);
    }

    /// Fold `ΔW = s·Ã·Bᵀ` into the f32 weight `w` of the adapted linear,
    /// stored `[d_in, d_out]` (`Layout::Normal`: `Linear`, FC2) or
    /// `[d_out, d_in]` (`Layout::Transposed`: neuron-major FC1) — one GEMM
    /// accumulating into `w`.
    pub fn fold_into(&self, w: &mut Tensor, w_layout: Layout) {
        let (a, r, d_out) = (self.a.value.as_slice(), self.rank(), self.b.value.rows());
        let d_in = a.len() / r;
        let mut sb = match w_layout {
            Layout::Normal => self.b.value.transposed_2d(), // [r, d_out]
            Layout::Transposed => self.b.value.clone(),     // [d_out, r]
        };
        sb.scale(self.scale);
        let sb = sb.as_slice();
        let op = match w_layout {
            // W += Ã · (s·Bᵀ)
            Layout::Normal => {
                GemmOp::contiguous(d_in, r, d_out, a, self.a_layout, sb, Layout::Normal)
            }
            // W += (s·B) · Ãᵀ
            Layout::Transposed => GemmOp::contiguous(
                d_out,
                r,
                d_in,
                sb,
                Layout::Normal,
                a,
                transposed(self.a_layout),
            ),
        };
        lx_kernels::backend().gemm(&op, w.as_mut_slice(), op.n.max(1), 1.0, Epilogue::None);
    }
}

/// `y = x·W (+ bias) (+ (α/r)·(x·Aᵀ)·Bᵀ)` with weight stored `d_in × d_out`.
#[derive(Debug)]
pub struct Linear {
    pub weight: Param,
    pub bias: Option<Param>,
    pub lora: Option<Lora>,
    cache_x: Option<Tensor>,
}

impl Linear {
    /// Xavier-ish init, bias zero, no LoRA.
    pub fn new(name: &str, d_in: usize, d_out: usize, with_bias: bool, seed: u64) -> Self {
        let std = (2.0 / (d_in + d_out) as f32).sqrt();
        Linear {
            weight: Param::frozen(
                format!("{name}.weight"),
                Tensor::randn(&[d_in, d_out], std, seed),
            ),
            bias: with_bias.then(|| Param::frozen(format!("{name}.bias"), Tensor::zeros(&[d_out]))),
            lora: None,
            cache_x: None,
        }
    }

    pub fn d_in(&self) -> usize {
        self.weight.shape()[0]
    }

    pub fn d_out(&self) -> usize {
        self.weight.shape()[1]
    }

    /// Attach a LoRA adapter (marks it trainable; backbone stays as-is).
    pub fn attach_lora(&mut self, rank: usize, alpha: f32, seed: u64) {
        let name = self.weight.name.trim_end_matches(".weight").to_string();
        self.lora = Some(Lora::new(
            &name,
            self.d_in(),
            self.d_out(),
            rank,
            alpha,
            seed,
            Layout::Transposed,
        ));
    }

    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        // Dtype-dispatching (fused f16/quant decode when the backbone weight
        // is reduced-stored), with the bias add fused into the GEMM
        // write-back instead of a second pass over y.
        let ep = match &self.bias {
            Some(bias) => Epilogue::Bias(bias.value.as_slice()),
            None => Epilogue::None,
        };
        let mut y = self.weight.matmul(x, Layout::Normal, ep);
        if let Some(lora) = &mut self.lora {
            lora.forward(x, &mut y);
        }
        self.cache_x = Some(x.clone());
        y
    }

    /// Backward: returns `dx`; accumulates grads into trainable params.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self
            .cache_x
            .take()
            .expect("Linear::backward without forward");
        let mut dx = self.weight.matmul(dy, Layout::Transposed, Epilogue::None); // dy · Wᵀ
        if self.weight.trainable {
            let dw = matmul_tn(&x, dy); // xᵀ · dy
            self.weight.accumulate_grad(&dw);
        }
        if let Some(bias) = &mut self.bias {
            if bias.trainable {
                bias_grad_rows(dy, bias.grad_mut().as_mut_slice());
            }
        }
        if let Some(lora) = &mut self.lora {
            lora.backward(&x, dy, &mut dx);
        }
        dx
    }

    /// Visit every parameter (weight, bias, LoRA pair).
    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
        if let Some(l) = &mut self.lora {
            f(&mut l.a);
            f(&mut l.b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_loss(lin: &mut Linear, x: &Tensor, dy: &Tensor) -> f32 {
        let y = lin.forward(x);
        y.as_slice()
            .iter()
            .zip(dy.as_slice())
            .map(|(a, b)| a * b)
            .sum()
    }

    #[test]
    fn forward_shapes_and_bias() {
        let mut lin = Linear::new("l", 4, 3, true, 1);
        lin.bias.as_mut().unwrap().value.as_mut_slice()[2] = 7.0;
        let x = Tensor::zeros(&[2, 4]);
        let y = lin.forward(&x);
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(y.as_slice()[2], 7.0);
    }

    #[test]
    fn frozen_weight_gets_no_grad() {
        let mut lin = Linear::new("l", 4, 3, true, 2);
        let x = Tensor::randn(&[5, 4], 1.0, 3);
        let y = lin.forward(&x);
        let dy = Tensor::randn(y.shape(), 1.0, 4);
        let _ = lin.backward(&dy);
        assert!(
            lin.weight.grad.is_none(),
            "frozen weight must not allocate grads"
        );
    }

    #[test]
    fn trainable_weight_grad_matches_finite_difference() {
        let mut lin = Linear::new("l", 3, 2, false, 5);
        lin.weight.trainable = true;
        let x = Tensor::randn(&[4, 3], 1.0, 6);
        let dy = Tensor::randn(&[4, 2], 1.0, 7);
        let _ = lin.forward(&x);
        let _ = lin.backward(&dy);
        let analytic = lin.weight.grad.as_ref().unwrap().clone();
        let h = 1e-3;
        for idx in [0usize, 3, 5] {
            let orig = lin.weight.value.as_slice()[idx];
            lin.weight.value.as_mut_slice()[idx] = orig + h;
            let lp = finite_diff_loss(&mut lin, &x, &dy);
            lin.weight.value.as_mut_slice()[idx] = orig - h;
            let lm = finite_diff_loss(&mut lin, &x, &dy);
            lin.weight.value.as_mut_slice()[idx] = orig;
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (analytic.as_slice()[idx] - fd).abs() < 1e-2,
                "idx {idx}: {} vs {fd}",
                analytic.as_slice()[idx]
            );
        }
    }

    #[test]
    fn lora_starts_as_identity_delta() {
        let mut plain = Linear::new("l", 6, 6, true, 8);
        let x = Tensor::randn(&[3, 6], 1.0, 9);
        let y0 = plain.forward(&x);
        plain.attach_lora(2, 4.0, 10);
        let y1 = plain.forward(&x);
        assert_eq!(y0, y1, "B=0 means LoRA is a no-op at init");
    }

    #[test]
    fn lora_grads_match_finite_difference() {
        let mut lin = Linear::new("l", 4, 4, false, 11);
        lin.attach_lora(2, 2.0, 12);
        // Give B nonzero values so dA is informative.
        {
            let lora = lin.lora.as_mut().unwrap();
            let vals = lx_tensor::rng::randn_vec(lora.b.value.len(), 0.3, 13);
            lora.b.value.as_mut_slice().copy_from_slice(&vals);
        }
        let x = Tensor::randn(&[5, 4], 1.0, 14);
        let dy = Tensor::randn(&[5, 4], 1.0, 15);
        let _ = lin.forward(&x);
        let _ = lin.backward(&dy);
        let da = lin.lora.as_ref().unwrap().a.grad.as_ref().unwrap().clone();
        let db = lin.lora.as_ref().unwrap().b.grad.as_ref().unwrap().clone();
        let h = 1e-3;
        for idx in [0usize, 3, 7] {
            let orig = lin.lora.as_ref().unwrap().a.value.as_slice()[idx];
            lin.lora.as_mut().unwrap().a.value.as_mut_slice()[idx] = orig + h;
            let lp = finite_diff_loss(&mut lin, &x, &dy);
            lin.lora.as_mut().unwrap().a.value.as_mut_slice()[idx] = orig - h;
            let lm = finite_diff_loss(&mut lin, &x, &dy);
            lin.lora.as_mut().unwrap().a.value.as_mut_slice()[idx] = orig;
            let fd = (lp - lm) / (2.0 * h);
            assert!((da.as_slice()[idx] - fd).abs() < 1e-2, "dA[{idx}]");
        }
        for idx in [0usize, 2, 5] {
            let orig = lin.lora.as_ref().unwrap().b.value.as_slice()[idx];
            lin.lora.as_mut().unwrap().b.value.as_mut_slice()[idx] = orig + h;
            let lp = finite_diff_loss(&mut lin, &x, &dy);
            lin.lora.as_mut().unwrap().b.value.as_mut_slice()[idx] = orig - h;
            let lm = finite_diff_loss(&mut lin, &x, &dy);
            lin.lora.as_mut().unwrap().b.value.as_mut_slice()[idx] = orig;
            let fd = (lp - lm) / (2.0 * h);
            assert!((db.as_slice()[idx] - fd).abs() < 1e-2, "dB[{idx}]");
        }
    }

    #[test]
    fn dx_includes_lora_path() {
        let mut lin = Linear::new("l", 4, 4, false, 16);
        lin.attach_lora(2, 2.0, 17);
        {
            let lora = lin.lora.as_mut().unwrap();
            let vals = lx_tensor::rng::randn_vec(lora.b.value.len(), 0.5, 18);
            lora.b.value.as_mut_slice().copy_from_slice(&vals);
        }
        let x = Tensor::randn(&[2, 4], 1.0, 19);
        let dy = Tensor::randn(&[2, 4], 1.0, 20);
        let _ = lin.forward(&x);
        let dx = lin.backward(&dy);
        // Finite difference on x itself.
        let h = 1e-3;
        for idx in [0usize, 5] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += h;
            let lp = finite_diff_loss(&mut lin, &xp, &dy);
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= h;
            let lm = finite_diff_loss(&mut lin, &xm, &dy);
            let fd = (lp - lm) / (2.0 * h);
            assert!((dx.as_slice()[idx] - fd).abs() < 1e-2, "dx[{idx}]");
        }
    }

    #[test]
    fn param_visitor_sees_all() {
        let mut lin = Linear::new("l", 4, 4, true, 21);
        lin.attach_lora(2, 2.0, 22);
        let mut names = Vec::new();
        lin.for_each_param(&mut |p| names.push(p.name.clone()));
        assert_eq!(names, vec!["l.weight", "l.bias", "l.lora_a", "l.lora_b"]);
    }
}
