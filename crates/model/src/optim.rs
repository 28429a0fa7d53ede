//! Optimizers over the trainable-parameter set.
//!
//! State is keyed by parameter name and allocated lazily, so PEFT methods
//! with tiny trainable sets keep tiny optimizer states — the effect the
//! paper's Table I measures in the "Optim. Step" column.

use crate::param::Param;
use lx_tensor::Tensor;
use std::collections::HashMap;

/// Per-parameter update protocol: call [`Optimizer::begin_step`] once per
/// batch, then [`Optimizer::update`] for every parameter.
pub trait Optimizer {
    fn begin_step(&mut self);
    fn update(&mut self, param: &mut Param);
    /// Bytes of optimizer state currently held (for memory experiments).
    fn state_bytes(&self) -> usize;
    fn name(&self) -> &'static str;
}

/// Plain SGD: stateless.
pub struct Sgd {
    pub lr: f32,
}

impl Sgd {
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn begin_step(&mut self) {}

    fn update(&mut self, param: &mut Param) {
        if !param.trainable {
            return;
        }
        let Some(grad) = &param.grad else { return };
        param.value.axpy(-self.lr, grad);
    }

    fn state_bytes(&self) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        "sgd"
    }
}

/// Adam (Kingma & Ba) with bias correction.
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    /// Decoupled weight decay; 0 for plain Adam.
    pub weight_decay: f32,
    t: u64,
    state: HashMap<String, (Tensor, Tensor)>,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            state: HashMap::new(),
        }
    }

    /// Optimizer steps taken so far (bias-correction time step). A gradient-
    /// accumulation step advances this once, however many micro-batches it
    /// spanned.
    pub fn step_count(&self) -> u64 {
        self.t
    }
}

/// AdamW = Adam with decoupled weight decay (the fine-tuning default).
pub struct AdamW(Adam);

impl AdamW {
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        let mut adam = Adam::new(lr);
        adam.weight_decay = weight_decay;
        AdamW(adam)
    }
}

impl Optimizer for Adam {
    fn begin_step(&mut self) {
        self.t += 1;
    }

    fn update(&mut self, param: &mut Param) {
        if !param.trainable {
            return;
        }
        let Some(grad) = &param.grad else { return };
        // Borrow the name on the hot path; clone only on first insertion.
        if !self.state.contains_key(&param.name) {
            self.state.insert(
                param.name.clone(),
                (Tensor::zeros(grad.shape()), Tensor::zeros(grad.shape())),
            );
        }
        let (m, v) = self.state.get_mut(&param.name).expect("just inserted");
        let b1 = self.beta1;
        let b2 = self.beta2;
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let lr = self.lr;
        let eps = self.eps;
        let wd = self.weight_decay;
        let pv = param.value.as_mut_slice();
        let gs = grad.as_slice();
        let ms = m.as_mut_slice();
        let vs = v.as_mut_slice();
        for i in 0..gs.len() {
            ms[i] = b1 * ms[i] + (1.0 - b1) * gs[i];
            vs[i] = b2 * vs[i] + (1.0 - b2) * gs[i] * gs[i];
            let mhat = ms[i] / bc1;
            let vhat = vs[i] / bc2;
            if wd != 0.0 {
                pv[i] -= lr * wd * pv[i];
            }
            pv[i] -= lr * mhat / (vhat.sqrt() + eps);
        }
    }

    fn state_bytes(&self) -> usize {
        self.state
            .values()
            .map(|(m, v)| (m.len() + v.len()) * 4)
            .sum()
    }

    fn name(&self) -> &'static str {
        "adam"
    }
}

impl Optimizer for AdamW {
    fn begin_step(&mut self) {
        self.0.begin_step();
    }

    fn update(&mut self, param: &mut Param) {
        self.0.update(param);
    }

    fn state_bytes(&self) -> usize {
        self.0.state_bytes()
    }

    fn name(&self) -> &'static str {
        "adamw"
    }
}

/// Dynamic loss scaling for mixed-precision training (the standard AMP
/// recipe the paper's FP16 runs rely on).
///
/// The loss gradient is multiplied by [`scale`](Self::scale) before the
/// backward pass so small adapter gradients stay clear of underflow; before
/// the optimizer runs, [`unscale`](Self::unscale) divides them back and
/// checks for overflow. A non-finite gradient means the scale overshot:
/// the step is skipped, the scale backs off, and after
/// `growth_interval` clean steps it grows again.
#[derive(Debug, Clone)]
pub struct LossScaler {
    scale: f32,
    growth_factor: f32,
    backoff_factor: f32,
    growth_interval: u64,
    clean_steps: u64,
    overflows: u64,
}

impl Default for LossScaler {
    /// The common AMP defaults: start at 2^16, double every 2000 clean
    /// steps, halve on overflow.
    fn default() -> Self {
        LossScaler::new(65_536.0)
    }
}

impl LossScaler {
    pub fn new(initial_scale: f32) -> Self {
        assert!(initial_scale > 0.0 && initial_scale.is_finite());
        LossScaler {
            scale: initial_scale,
            growth_factor: 2.0,
            backoff_factor: 0.5,
            growth_interval: 2000,
            clean_steps: 0,
            overflows: 0,
        }
    }

    /// Current multiplier to apply to the loss gradient before backward.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Steps skipped so far because of overflowed gradients.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Divide every trainable gradient by the current scale, in place.
    /// Returns `false` — leaving the gradients untouched — if any scaled
    /// gradient is non-finite; the caller must then skip the optimizer step
    /// and call [`update`](Self::update) with `found_overflow = true`.
    #[allow(clippy::type_complexity)]
    pub fn unscale(&self, params: &mut dyn FnMut(&mut dyn FnMut(&mut Param))) -> bool {
        let mut finite = true;
        params(&mut |p: &mut Param| {
            if p.trainable {
                if let Some(g) = &p.grad {
                    if !g.as_slice().iter().all(|v| v.is_finite()) {
                        finite = false;
                    }
                }
            }
        });
        if !finite {
            return false;
        }
        let inv = 1.0 / self.scale;
        params(&mut |p: &mut Param| {
            if p.trainable {
                if let Some(g) = &mut p.grad {
                    g.scale(inv);
                }
            }
        });
        true
    }

    /// Advance the schedule after a step: back off on overflow, grow after
    /// a clean streak.
    pub fn update(&mut self, found_overflow: bool) {
        if found_overflow {
            self.overflows += 1;
            self.clean_steps = 0;
            self.scale = (self.scale * self.backoff_factor).max(1.0);
        } else {
            self.clean_steps += 1;
            if self.clean_steps >= self.growth_interval {
                self.clean_steps = 0;
                self.scale = (self.scale * self.growth_factor).min(1e9);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_param() -> Param {
        // Minimise f(w) = 0.5·w², grad = w.
        Param::new("w", Tensor::full(&[1], 4.0), true)
    }

    fn set_grad_to_value(p: &mut Param) {
        let w = p.value.as_slice()[0];
        p.zero_grad();
        p.grad_mut().as_mut_slice()[0] = w;
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut p = quadratic_param();
        let mut opt = Sgd::new(0.1);
        for _ in 0..100 {
            set_grad_to_value(&mut p);
            opt.begin_step();
            opt.update(&mut p);
        }
        assert!(p.value.as_slice()[0].abs() < 1e-3);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = quadratic_param();
        let mut opt = Adam::new(0.2);
        for _ in 0..200 {
            set_grad_to_value(&mut p);
            opt.begin_step();
            opt.update(&mut p);
        }
        assert!(
            p.value.as_slice()[0].abs() < 1e-2,
            "{}",
            p.value.as_slice()[0]
        );
    }

    #[test]
    fn frozen_params_are_untouched() {
        let mut p = Param::frozen("w", Tensor::full(&[1], 2.0));
        p.grad = Some(Tensor::full(&[1], 1.0));
        let mut opt = Adam::new(0.1);
        opt.begin_step();
        opt.update(&mut p);
        assert_eq!(p.value.as_slice()[0], 2.0);
        assert_eq!(opt.state_bytes(), 0, "no state for frozen params");
    }

    #[test]
    fn adamw_decays_weights() {
        let mut p = Param::new("w", Tensor::full(&[1], 1.0), true);
        p.grad = Some(Tensor::zeros(&[1]));
        let mut opt = AdamW::new(0.1, 0.5);
        opt.begin_step();
        opt.update(&mut p);
        assert!(p.value.as_slice()[0] < 1.0, "decay must shrink the weight");
    }

    #[test]
    fn state_bytes_track_trainable_size() {
        let mut big = Param::new("big", Tensor::zeros(&[100]), true);
        big.grad = Some(Tensor::zeros(&[100]));
        let mut opt = Adam::new(0.1);
        opt.begin_step();
        opt.update(&mut big);
        assert_eq!(opt.state_bytes(), 2 * 100 * 4);
    }

    #[test]
    fn loss_scaler_unscales_then_backs_off_on_overflow() {
        let mut p = Param::new("w", Tensor::zeros(&[2]), true);
        p.grad = Some(Tensor::full(&[2], 10.0));
        let mut scaler = LossScaler::new(10.0);
        assert!(scaler.unscale(&mut |f| f(&mut p)));
        assert_eq!(p.grad.as_ref().unwrap().as_slice(), &[1.0; 2]);
        scaler.update(false);
        assert_eq!(scaler.scale(), 10.0, "no growth before the interval");
        // Overflow: grads untouched, step counted, scale halves.
        p.grad = Some(Tensor::full(&[2], f32::INFINITY));
        assert!(!scaler.unscale(&mut |f| f(&mut p)));
        scaler.update(true);
        assert_eq!(scaler.scale(), 5.0);
        assert_eq!(scaler.overflows(), 1);
        // Frozen params are ignored entirely.
        let mut frozen = Param::frozen("f", Tensor::zeros(&[1]));
        frozen.grad = Some(Tensor::full(&[1], f32::NAN));
        assert!(scaler.unscale(&mut |f| f(&mut frozen)));
    }

    #[test]
    fn loss_scaler_grows_after_clean_interval() {
        let mut scaler = LossScaler::new(8.0);
        for _ in 0..2000 {
            scaler.update(false);
        }
        assert_eq!(scaler.scale(), 16.0);
    }
}
