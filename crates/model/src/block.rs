//! Transformer block (pre-LN) with optional bottleneck adapters, plus the
//! adapter module itself (Houlsby-style PEFT, paper Table I).

use crate::config::{Activation, ModelConfig};
use crate::layernorm::LayerNorm;
use crate::linear::{Linear, Side};
use crate::mha::MultiHeadAttention;
use crate::mlp::MlpBlock;
use crate::model::LayerCapture;
use crate::param::Param;
use crate::plan::LayerPlan;
use lx_sparse::NeuronBlockSet;
use lx_tensor::ops::{relu, relu_backward};
use lx_tensor::Tensor;

/// Bottleneck adapter: `y + Up(ReLU(Down(y)))`, Up initialised to zero so it
/// starts as the identity.
#[derive(Debug)]
pub struct Adapter {
    pub down: Linear,
    pub up: Linear,
    /// `d_model` and the bottleneck as one token-major block each: the
    /// sides of `down` and `up`.
    model: NeuronBlockSet,
    hidden: NeuronBlockSet,
    cache_h: Option<Tensor>, // pre-activation of the bottleneck
}

impl Adapter {
    pub fn new(name: &str, d_model: usize, bottleneck: usize, seed: u64) -> Self {
        let mut down = Linear::new(&format!("{name}.down"), d_model, bottleneck, true, seed);
        let mut up = Linear::new(&format!("{name}.up"), bottleneck, d_model, true, seed + 1);
        up.weight.value.zero_();
        // Adapters are PEFT-trainable by construction.
        down.for_each_param(&mut |p| p.trainable = true);
        up.for_each_param(&mut |p| p.trainable = true);
        Adapter {
            down,
            up,
            model: NeuronBlockSet::all(1, d_model),
            hidden: NeuronBlockSet::all(1, bottleneck),
            cache_h: None,
        }
    }

    pub fn forward(&mut self, y: &Tensor) -> Tensor {
        let (model, hidden) = (Side::panels(&self.model), Side::panels(&self.hidden));
        let h = self.down.forward(y.clone(), model, hidden);
        let mut hr = Tensor::scratch(h.shape());
        relu(h.as_slice(), hr.as_mut_slice());
        let mut out = self.up.forward(hr, hidden, model);
        out.add_assign(y);
        self.cache_h = Some(h);
        out
    }

    pub fn backward(&mut self, dout: &Tensor) -> Tensor {
        let h = self
            .cache_h
            .take()
            .expect("Adapter backward without forward");
        let (model, hidden) = (Side::panels(&self.model), Side::panels(&self.hidden));
        let dhr = self.up.backward(dout, hidden, model);
        let mut dh = Tensor::scratch(h.shape());
        relu_backward(dhr.as_slice(), h.as_slice(), dh.as_mut_slice());
        let mut dy = self.down.backward(&dh, model, hidden);
        dy.add_assign(dout); // residual path
        dy
    }

    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.down.for_each_param(f);
        self.up.for_each_param(f);
    }
}

/// Pre-LN transformer block:
/// `x ← x + A1(attn(ln1(x)))`, `x ← x + A2(mlp(ln2(x)))` where `A1`/`A2` are
/// optional adapters (identity when absent).
#[derive(Debug)]
pub struct TransformerBlock {
    pub ln1: LayerNorm,
    pub attn: MultiHeadAttention,
    pub adapter1: Option<Adapter>,
    pub ln2: LayerNorm,
    pub mlp: MlpBlock,
    pub adapter2: Option<Adapter>,
    /// Record a [`LayerCapture`] during the next forward.
    capture: bool,
    captured: Option<LayerCapture>,
}

impl TransformerBlock {
    pub fn new(cfg: &ModelConfig, layer: usize, seed: u64) -> Self {
        let name = format!("blocks.{layer}");
        let mut attn =
            MultiHeadAttention::new(&format!("{name}.attn"), cfg.d_model, cfg.n_heads, seed);
        if cfg.alibi {
            attn.enable_alibi();
        }
        TransformerBlock {
            ln1: LayerNorm::new(&format!("{name}.ln1"), cfg.d_model, cfg.ln_eps),
            attn,
            adapter1: None,
            ln2: LayerNorm::new(&format!("{name}.ln2"), cfg.d_model, cfg.ln_eps),
            mlp: MlpBlock::new(
                &format!("{name}.mlp"),
                cfg.d_model,
                cfg.d_ff,
                cfg.activation,
                seed + 100,
            ),
            adapter2: None,
            capture: false,
            captured: None,
        }
    }

    /// Arm calibration capture for the next forward (dense mode only).
    pub(crate) fn set_capture(&mut self) {
        self.capture = true;
    }

    /// Retrieve (and clear) the capture recorded by the last armed forward.
    pub(crate) fn take_capture(&mut self) -> Option<LayerCapture> {
        self.captured.take()
    }

    /// The block's six projections, in LoRA target order: q, k, v, o, FC1,
    /// FC2.
    pub fn linears(&mut self) -> [&mut Linear; 6] {
        let (attn, mlp) = (&mut self.attn, &mut self.mlp);
        let (q, k, v, o) = (&mut attn.wq, &mut attn.wk, &mut attn.wv, &mut attn.wo);
        [q, k, v, o, &mut mlp.fc1, &mut mlp.fc2]
    }

    pub fn attach_adapters(&mut self, d_model: usize, bottleneck: usize, seed: u64, layer: usize) {
        self.adapter1 = Some(Adapter::new(
            &format!("blocks.{layer}.adapter1"),
            d_model,
            bottleneck,
            seed,
        ));
        self.adapter2 = Some(Adapter::new(
            &format!("blocks.{layer}.adapter2"),
            d_model,
            bottleneck,
            seed + 10,
        ));
    }

    pub fn forward(
        &mut self,
        x: &Tensor,
        batch: usize,
        seq: usize,
        plan: Option<&LayerPlan>,
    ) -> Tensor {
        let attn_layout = plan.and_then(|p| p.attn.as_ref());
        let mlp_set = plan.and_then(|p| p.mlp.as_ref());
        let capture = std::mem::take(&mut self.capture);
        if capture {
            assert!(
                attn_layout.is_none() && mlp_set.is_none(),
                "calibration capture requires a dense forward"
            );
        }

        let normed = self.ln1.forward(x);
        let mut attn_out = self.attn.forward(normed, batch, seq, attn_layout);
        if let Some(a) = &mut self.adapter1 {
            attn_out = a.forward(&attn_out);
        }
        // Residual into the sub-layer's own output: same sum, no copy of x.
        let mut x1 = attn_out;
        x1.add_assign(x);

        let normed2 = self.ln2.forward(&x1);
        let mut mlp_out = self.mlp.forward(normed2, mlp_set);
        if capture {
            // Capture mode runs no backward: the caches are taken, not
            // cloned.
            let (attn_layout, attn_probs) = self
                .attn
                .take_dense_probs()
                .expect("dense probs present in capture mode");
            let relu = self.mlp.activation == Activation::Relu;
            self.captured = Some(LayerCapture {
                block_input: self.ln1.take_input().expect("block input cached"),
                attn_layout,
                attn_probs,
                mlp_activations: relu.then(|| {
                    self.mlp
                        .take_activations()
                        .expect("activations present in capture mode")
                }),
            });
        }
        if let Some(a) = &mut self.adapter2 {
            mlp_out = a.forward(&mlp_out);
        }
        let mut x2 = x1;
        x2.add_assign(&mlp_out);
        x2
    }

    pub fn backward(&mut self, dout: &Tensor) -> Tensor {
        // MLP sub-layer.
        let dnormed2 = match &mut self.adapter2 {
            Some(a) => self.mlp.backward(&a.backward(dout)),
            None => self.mlp.backward(dout),
        };
        let mut dx1 = self.ln2.backward(&dnormed2);
        dx1.add_assign(dout); // residual

        // Attention sub-layer.
        let dnormed = match &mut self.adapter1 {
            Some(a) => self.attn.backward(&a.backward(&dx1)),
            None => self.attn.backward(&dx1),
        };
        let mut dx = self.ln1.backward(&dnormed);
        dx.add_assign(&dx1); // residual
        dx
    }

    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.ln1.for_each_param(f);
        self.attn.for_each_param(f);
        if let Some(a) = &mut self.adapter1 {
            a.for_each_param(f);
        }
        self.ln2.for_each_param(f);
        self.mlp.for_each_param(f);
        if let Some(a) = &mut self.adapter2 {
            a.for_each_param(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ModelConfig {
        let mut cfg = ModelConfig::test_tiny();
        cfg.activation = Activation::Relu;
        cfg
    }

    #[test]
    fn adapter_is_identity_at_init() {
        let mut a = Adapter::new("a", 8, 2, 1);
        let y = Tensor::randn(&[3, 8], 1.0, 2);
        let out = a.forward(&y);
        assert_eq!(out, y);
    }

    #[test]
    fn adapter_backward_matches_finite_difference() {
        let mut a = Adapter::new("a", 6, 3, 3);
        // Non-zero up so the adapter transforms.
        let vals = lx_tensor::rng::randn_vec(a.up.weight.value.len(), 0.3, 4);
        a.up.weight.value.as_mut_slice().copy_from_slice(&vals);
        let y = Tensor::randn(&[2, 6], 1.0, 5);
        let dout = Tensor::randn(&[2, 6], 1.0, 6);
        let _ = a.forward(&y);
        let dy = a.backward(&dout);
        let loss = |a: &mut Adapter, y: &Tensor| -> f32 {
            let out = a.forward(y);
            a.cache_h = None;
            out.as_slice()
                .iter()
                .zip(dout.as_slice())
                .map(|(u, v)| u * v)
                .sum()
        };
        let h = 1e-3;
        for idx in [0usize, 7] {
            let mut yp = y.clone();
            yp.as_mut_slice()[idx] += h;
            let mut ym = y.clone();
            ym.as_mut_slice()[idx] -= h;
            let fd = (loss(&mut a, &yp) - loss(&mut a, &ym)) / (2.0 * h);
            assert!((dy.as_slice()[idx] - fd).abs() < 5e-3, "dy[{idx}]");
        }
    }

    #[test]
    fn block_forward_backward_shapes() {
        let cfg = tiny_cfg();
        let mut blk = TransformerBlock::new(&cfg, 0, 7);
        let (b, s) = (2, 8);
        let x = Tensor::randn(&[b * s, cfg.d_model], 0.5, 8);
        let y = blk.forward(&x, b, s, None);
        assert_eq!(y.shape(), x.shape());
        let dy = Tensor::randn(y.shape(), 1.0, 9);
        let dx = blk.backward(&dy);
        assert_eq!(dx.shape(), x.shape());
        assert!(dx.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn block_input_grad_matches_finite_difference() {
        let cfg = tiny_cfg();
        let mut blk = TransformerBlock::new(&cfg, 0, 10);
        let (b, s) = (1, 4);
        let x = Tensor::randn(&[b * s, cfg.d_model], 0.5, 11);
        let dy = Tensor::randn(&[b * s, cfg.d_model], 1.0, 12);
        let _ = blk.forward(&x, b, s, None);
        let dx = blk.backward(&dy);
        let loss = |blk: &mut TransformerBlock, x: &Tensor| -> f32 {
            let y = blk.forward(x, b, s, None);
            y.as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(u, v)| u * v)
                .sum()
        };
        let h = 1e-2;
        for idx in [0usize, 17, 40] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= h;
            let fd = (loss(&mut blk, &xp) - loss(&mut blk, &xm)) / (2.0 * h);
            assert!(
                (dx.as_slice()[idx] - fd).abs() < 0.05 * (1.0 + fd.abs()),
                "dx[{idx}]: {} vs {fd}",
                dx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn adapters_attach_and_collect_params() {
        let cfg = tiny_cfg();
        let mut blk = TransformerBlock::new(&cfg, 0, 13);
        let before = {
            let mut n = 0;
            blk.for_each_param(&mut |_| n += 1);
            n
        };
        blk.attach_adapters(cfg.d_model, 4, 14, 0);
        let mut after = 0;
        blk.for_each_param(&mut |_| after += 1);
        assert_eq!(after, before + 8); // 2 adapters × (down w,b + up w,b)
    }
}
