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
    active_cols, fc1_backward_input, fc1_grad_weights, fc2_forward, fc2_grad_weights,
};
use lx_sparse::NeuronBlockSet;
use lx_tensor::gemm::{gemm, gemm_nt, matmul, matmul_tn, Layout};
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
    /// (every neuron when `None`). The rank-r update rides the frozen
    /// product: `y` takes `(s·ax)·Bᵀ` as a beta-1 accumulation, each element
    /// one `r`-long chain added once — no `rows × d_out` scratch, no second
    /// pass over `y`. For `s` a power of two, `s·ax` is exact and the sum is
    /// bit-identical to adding `s·((x·Ã)·Bᵀ)`.
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
            None => matmul(x, &self.a.value, self.a_layout),
        };
        let sax = filled(ax.shape(), |sax| {
            for (o, &v) in sax.iter_mut().zip(ax.as_slice()) {
                *o = self.scale * v;
            }
        });
        let (sax, out) = (sax.as_slice(), y.as_mut_slice());
        match b_set {
            Some(set) => active_cols(sax, rows, b, r, set, 1.0, out),
            None => gemm_nt(rows, r, self.b.value.rows(), sax, b, out, 1.0),
        }
        self.ax = Some(ax);
    }

    /// [`backward`](Self::backward) over the active neuron blocks of `set`,
    /// compact on the same side as [`forward_over`](Self::forward_over).
    /// Inactive rows of the neuron-major factor receive no gradient. The
    /// adapter's share of `dx` is a beta-1 accumulation of `d(ax)·Ãᵀ`.
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
            None => matmul(dy, &self.b.value, Layout::Normal),
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
        let (a, dax, out) = (self.a.value.as_slice(), dax.as_slice(), dx.as_mut_slice());
        let d_in = a.len() / r.max(1);
        match (a_set, self.a_layout) {
            (Some(set), _) => active_cols(dax, rows, a, r, set, 1.0, out),
            (None, Layout::Transposed) => gemm(rows, r, d_in, dax, a, out, 1.0),
            (None, Layout::Normal) => gemm_nt(rows, r, d_in, dax, a, out, 1.0),
        }
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
        lx_kernels::backend().gemm(&op, w.as_mut_slice(), op.n.max(1), 1.0);
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
        let y = self.project(x);
        self.cache_x = Some(x.clone());
        y
    }

    /// The forward product without caching `x`, for a caller that keeps `x`
    /// itself and hands it back to [`backward_into`](Self::backward_into)
    /// (attention's q/k/v projections of one input).
    pub fn project(&mut self, x: &Tensor) -> Tensor {
        // Dtype-dispatching (fused f16/quant decode when the backbone weight
        // is reduced-stored), with the bias add fused into the GEMM
        // write-back instead of a second pass over y.
        let (d_in, d_out) = (self.d_in(), self.d_out());
        assert_eq!(x.cols(), d_in, "Linear::project: x");
        let mut y = Tensor::scratch(&[x.rows(), d_out]);
        let w = self.weight.b_ref();
        let op = GemmOp {
            bias: self.bias.as_ref().map(|b| b.value.as_slice()),
            ..GemmOp::contiguous(
                x.rows(),
                d_in,
                d_out,
                x.as_slice(),
                Layout::Normal,
                w.operand(),
                Layout::Normal,
            )
        }; // x · W + bias
        lx_kernels::backend().gemm(&op, y.as_mut_slice(), d_out.max(1), 0.0);
        if let Some(lora) = &mut self.lora {
            lora.forward(x, &mut y);
        }
        y
    }

    /// Backward: returns `dx`; accumulates grads into trainable params.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self
            .cache_x
            .take()
            .expect("Linear::backward without forward");
        let mut dx = Tensor::scratch(&[dy.rows(), self.d_in()]);
        self.backward_into(&x, dy, &mut dx, 0.0);
        dx
    }

    /// Backward of [`project`](Self::project)`(x)`: accumulates grads into
    /// trainable params and writes `dx = beta·dx + dy·Wᵀ` plus the adapter's
    /// share — `beta = 1` sums the input gradients of several projections of
    /// one input in one buffer.
    pub fn backward_into(&mut self, x: &Tensor, dy: &Tensor, dx: &mut Tensor, beta: f32) {
        let (d_in, d_out) = (self.d_in(), self.d_out());
        assert_eq!(dx.shape(), [dy.rows(), d_in], "Linear::backward_into: dx");
        let w = self.weight.b_ref();
        let op = GemmOp::contiguous(
            dy.rows(),
            d_out,
            d_in,
            dy.as_slice(),
            Layout::Normal,
            w.operand(),
            Layout::Transposed,
        ); // dy · Wᵀ
        lx_kernels::backend().gemm(&op, dx.as_mut_slice(), d_in.max(1), beta);
        if self.weight.trainable {
            let dw = matmul_tn(x, dy); // xᵀ · dy
            self.weight.accumulate_grad(&dw);
        }
        if let Some(bias) = &mut self.bias {
            if bias.trainable {
                bias_grad_rows(dy, bias.grad_mut().as_mut_slice());
            }
        }
        if let Some(lora) = &mut self.lora {
            lora.backward(x, dy, dx);
        }
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

    /// The composition the fused operator replaced, kept as its oracle:
    /// `y += s·((x·Ã)·Bᵀ)` through a `rows × d_out` scratch and an axpy,
    /// `dx += d(ax)·Ãᵀ` through a `rows × d_in` scratch and an add.
    fn composed_forward(l: &Lora, x: &Tensor, y: &mut Tensor, set: Option<&NeuronBlockSet>) {
        let (a_set, b_set) = l.split(set);
        let (rows, r) = (x.rows(), l.rank());
        let (a, b) = (l.a.value.as_slice(), l.b.value.as_slice());
        let ax = match a_set {
            Some(set) => filled(&[rows, r], |ax| {
                fc2_forward(x.as_slice(), rows, a, r, None, set, ax)
            }),
            None => matmul(x, &l.a.value, l.a_layout),
        };
        let delta = match b_set {
            Some(set) => filled(y.shape(), |d| {
                lx_sparse::neuron::fc1_forward(ax.as_slice(), rows, b, r, None, set, d)
            }),
            None => matmul(&ax, &l.b.value, Layout::Transposed),
        };
        y.axpy(l.scale, &delta);
    }

    /// The composed backward: `(dA, dB)` and the adapter's share of `dx`
    /// added to `dx`.
    fn composed_backward(
        l: &Lora,
        x: &Tensor,
        dy: &Tensor,
        dx: &mut Tensor,
        set: Option<&NeuronBlockSet>,
    ) -> (Tensor, Tensor) {
        let (a_set, b_set) = l.split(set);
        let (rows, r) = (dy.rows(), l.rank());
        let (a, b) = (l.a.value.as_slice(), l.b.value.as_slice());
        let mut ax = match a_set {
            Some(set) => filled(&[rows, r], |ax| {
                fc2_forward(x.as_slice(), rows, a, r, None, set, ax)
            }),
            None => matmul(x, &l.a.value, l.a_layout),
        };
        let mut dax = match b_set {
            Some(set) => filled(&[rows, r], |dax| {
                fc1_backward_input(dy.as_slice(), rows, b, r, set, dax)
            }),
            None => matmul(dy, &l.b.value, Layout::Normal),
        };
        dax.scale(l.scale);
        let mut db = Tensor::zeros(l.b.value.shape());
        match b_set {
            Some(set) => {
                ax.scale(l.scale);
                let db = db.as_mut_slice();
                fc1_grad_weights(ax.as_slice(), dy.as_slice(), rows, r, set, db);
            }
            None => {
                db = matmul_tn(dy, &ax);
                db.scale(l.scale);
            }
        }
        let da = match (a_set, l.a_layout) {
            (Some(set), _) => filled(l.a.value.shape(), |da| {
                da.fill(0.0);
                fc2_grad_weights(x.as_slice(), dax.as_slice(), rows, r, set, da)
            }),
            (None, Layout::Transposed) => matmul_tn(&dax, x),
            (None, Layout::Normal) => matmul_tn(x, &dax),
        };
        let dx_lora = match a_set {
            Some(set) => filled(dx.shape(), |d| {
                active_cols(dax.as_slice(), rows, a, r, set, 0.0, d)
            }),
            None => matmul(&dax, &l.a.value, transposed(l.a_layout)),
        };
        dx.add_assign(&dx_lora);
        (da, db)
    }

    /// A trainable pair with a nonzero `B`, built the same way every call.
    fn lora(a_layout: Layout, d_in: usize, d_out: usize, alpha: f32) -> Lora {
        let mut l = Lora::new("l", d_in, d_out, 8, alpha, 31, a_layout);
        let vals = lx_tensor::rng::randn_vec(l.b.value.len(), 0.3, 32);
        l.b.value.as_mut_slice().copy_from_slice(&vals);
        l
    }

    fn assert_bits(what: &str, got: &Tensor, want: &Tensor) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: idx {i}: {x} vs {y}");
        }
    }

    fn assert_rel(what: &str, got: &Tensor, want: &Tensor, tol: f32) {
        let scale = want.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!((x - y).abs() <= tol * scale, "{what}: idx {i}: {x} vs {y}");
        }
    }

    /// The fused rank-r operator against the composition it replaced, on
    /// both `A` orientations, the dense and the neuron-sparse paths: `y`,
    /// `dx`, `dA` and `dB` are bit-identical at `s = 2` (power-of-two scaling
    /// is exact), and at `s = 1.7` only `y` moves, by ≤ 1e-6 relative. Every
    /// product runs on the packed backend, whose beta-1 write-back adds each
    /// chain once, so `dx` is bit-identical at both scales.
    #[test]
    fn fused_lora_matches_the_composition() {
        let (rows, d, blk) = (128, 256, 16);
        let set = NeuronBlockSet::from_indices(vec![0, 3, 4, 5, 9, 15], d / blk, blk);
        let width = set.active_neurons();
        for (alpha, exact_y) in [(16.0, true), (13.6, false)] {
            for (a_layout, sparse) in [
                (Layout::Transposed, false),
                (Layout::Normal, false),
                (Layout::Transposed, true),
                (Layout::Normal, true),
            ] {
                let what = format!("s={} {a_layout:?} sparse={sparse}", alpha / 8.0);
                let set = sparse.then_some(&set);
                // FC1 (`A` transposed) is compact on its output, FC2 on its
                // input.
                let compact_in = sparse && a_layout == Layout::Normal;
                let compact_out = sparse && a_layout == Layout::Transposed;
                let x_cols = if compact_in { width } else { d };
                let y_cols = if compact_out { width } else { d };
                let x = Tensor::randn(&[rows, x_cols], 1.0, 40);
                let y0 = Tensor::randn(&[rows, y_cols], 1.0, 41);
                let dy = Tensor::randn(&[rows, y_cols], 1.0, 42);
                let dx0 = Tensor::randn(&[rows, x_cols], 1.0, 43);

                let mut fused = lora(a_layout, d, d, alpha);
                let (mut y, mut dx) = (y0.clone(), dx0.clone());
                fused.forward_over(&x, &mut y, set);
                fused.backward_over(&x, &dy, &mut dx, set);

                let oracle = lora(a_layout, d, d, alpha);
                let (mut y_want, mut dx_want) = (y0, dx0);
                composed_forward(&oracle, &x, &mut y_want, set);
                let (da, db) = composed_backward(&oracle, &x, &dy, &mut dx_want, set);

                if exact_y {
                    assert_bits(&format!("{what} y"), &y, &y_want);
                } else {
                    assert_rel(&format!("{what} y"), &y, &y_want, 1e-6);
                }
                assert_bits(&format!("{what} dx"), &dx, &dx_want);
                assert_bits(&format!("{what} dA"), fused.a.grad.as_ref().unwrap(), &da);
                assert_bits(&format!("{what} dB"), fused.b.grad.as_ref().unwrap(), &db);
            }
        }
    }

    /// `Linear` with the fused adapter over f32, f16 and NF4 backbones
    /// against the frozen product plus the composed adapter, bitwise at
    /// `s = 2`.
    #[test]
    fn fused_lora_linear_matches_the_composition_on_every_backbone() {
        use lx_tensor::Dtype;
        let (rows, d) = (128, 256);
        for dtype in [Dtype::F32, Dtype::F16, Dtype::Nf4Block] {
            let mut lin = Linear::new("l", d, d, true, 50);
            lin.weight.demote(dtype);
            lin.lora = Some(lora(Layout::Transposed, d, d, 16.0));
            let x = Tensor::randn(&[rows, d], 1.0, 51);
            let dy = Tensor::randn(&[rows, d], 1.0, 52);
            let y = lin.forward(&x);
            let dx = lin.backward(&dy);

            let oracle = lora(Layout::Transposed, d, d, 16.0);
            let bias = lin.bias.as_ref().unwrap().value.as_slice();
            let mut y_want = lin.weight.matmul(&x, Layout::Normal);
            lx_tensor::ops::add_bias_rows(&mut y_want, bias);
            composed_forward(&oracle, &x, &mut y_want, None);
            let mut dx_want = lin.weight.matmul(&dy, Layout::Transposed);
            let (da, db) = composed_backward(&oracle, &x, &dy, &mut dx_want, None);

            let fused = lin.lora.as_ref().unwrap();
            assert_bits(&format!("{dtype:?} y"), &y, &y_want);
            assert_bits(&format!("{dtype:?} dx"), &dx, &dx_want);
            assert_bits(
                &format!("{dtype:?} dA"),
                fused.a.grad.as_ref().unwrap(),
                &da,
            );
            assert_bits(
                &format!("{dtype:?} dB"),
                fused.b.grad.as_ref().unwrap(),
                &db,
            );
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
