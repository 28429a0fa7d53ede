//! The full decoder-only transformer: embeddings → blocks → final LN → tied
//! LM head, with capture hooks for Long Exposure's calibration phase.
//!
//! A capture ([`crate::Mode::Capture`]) is a dense forward in which every
//! block hands over what its caches already hold: the block input, the
//! attention's block probabilities over the full-causal layout it ran over
//! (with that layout), and, on ReLU models, the MLP activations. Nothing is
//! expanded or copied; `long_exposure::exposer::Exposer::expose` is the
//! one reader.
//!
//! All execution goes through the unified request API in [`crate::exec`]:
//! build a [`crate::StepRequest`] and call [`TransformerModel::execute`]. The
//! raw forward/backward loops here are crate-private building blocks.

use crate::block::TransformerBlock;
use crate::config::ModelConfig;
use crate::embedding::Embedding;
use crate::exec::PlanSource;
use crate::layernorm::LayerNorm;
use crate::loss::IGNORE_INDEX;
use crate::param::Param;
use crate::plan::SparsePlan;
use crate::precision::Precision;
use lx_obs::TimedSpan;
use lx_sparse::MultiHeadLayout;
use lx_tensor::gemm::{matmul_tn, Layout};
use lx_tensor::{Dtype, Tensor, Workspace, WorkspaceStats};
use std::sync::Arc;
use std::time::Duration;

/// Ground-truth signals captured from one layer during a dense forward:
/// the block input the predictors will see at runtime, and the attention /
/// activation outcomes they must learn to anticipate. Everything is handed
/// over from the forward's own caches, not copied or expanded.
#[derive(Debug)]
pub struct LayerCapture {
    /// Input to the whole block (pre-LN residual stream), `[B·S, d]`. This is
    /// what the runtime planner observes *before* the block computes.
    pub block_input: Tensor,
    /// The full-causal layout the dense attention ran over.
    pub attn_layout: Arc<MultiHeadLayout>,
    /// Its block probabilities, `[B, attn_layout.total_data_len]`: one row
    /// of block data per batch element, zeros past the diagonal.
    pub attn_probs: Tensor,
    /// Post-ReLU activations `[B·S, d_ff]`; `None` unless the model is ReLU.
    pub mlp_activations: Option<Tensor>,
}

/// Captures for every layer of one forward pass.
pub type Captures = Vec<LayerCapture>;

/// Runtime per-layer plan provider: called with each block's input right
/// before the block executes (the paper's online prediction point).
pub trait LayerPlanner {
    fn plan_layer(
        &mut self,
        layer: usize,
        x: &Tensor,
        batch: usize,
        seq: usize,
    ) -> crate::plan::LayerPlan;
}

#[derive(Debug)]
pub struct TransformerModel {
    pub config: ModelConfig,
    pub embedding: Embedding,
    pub blocks: Vec<TransformerBlock>,
    pub ln_f: LayerNorm,
    precision: Precision,
    cache_h: Option<Tensor>,
    /// Step-persistent buffer pool: every [`TransformerModel::execute`] runs
    /// inside this workspace's scope, so per-step tensor buffers recycle
    /// across steps and micro-batches.
    workspace: Workspace,
}

impl TransformerModel {
    pub fn new(config: ModelConfig, seed: u64) -> Self {
        let embedding = Embedding::new(config.vocab_size, config.max_seq, config.d_model, seed);
        let blocks = (0..config.n_layers)
            .map(|l| TransformerBlock::new(&config, l, seed + 1000 * (l as u64 + 1)))
            .collect();
        let ln_f = LayerNorm::new("ln_f", config.d_model, config.ln_eps);
        TransformerModel {
            config,
            embedding,
            blocks,
            ln_f,
            precision: Precision::F32,
            cache_h: None,
            workspace: Workspace::new(),
        }
    }

    /// Reuse counters and occupancy of the model's step workspace.
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.workspace.stats()
    }

    /// Enable or disable the step workspace (disabled ⇒ every step
    /// heap-allocates its intermediates — the differential-testing arm).
    pub fn set_workspace_enabled(&mut self, enabled: bool) {
        self.workspace.set_enabled(enabled);
    }

    /// Exchange the model's step workspace with `ws`. `lx-serve` keeps one
    /// workspace per tenant and swaps it in with the tenant's adapter, so
    /// pooled step buffers stay warm across scheduler slices.
    pub fn swap_workspace(&mut self, ws: &mut Workspace) {
        std::mem::swap(&mut self.workspace, ws);
    }

    /// Run `f` inside the model's step-workspace scope. [`Self::execute`]
    /// scopes itself; this is for surgery *around* steps that should recycle
    /// through the same pool — e.g. `lx-serve` attaches/extracts tenant
    /// adapters inside the tenant's workspace so the adapter and gradient
    /// buffers dropped at detach are parked for the tenant's next slice.
    pub fn workspace_scope<R>(&mut self, f: impl FnOnce(&mut TransformerModel) -> R) -> R {
        let mut ws = std::mem::take(&mut self.workspace);
        let out = ws.scope(|| f(self));
        self.workspace = ws;
        out
    }

    /// Current parameter-storage plan.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Switch the parameter-storage plan.
    ///
    /// [`Precision::F16Frozen`] demotes every frozen parameter with two or
    /// more dimensions — attention projections, MLP weights, embedding
    /// tables — to half storage (round-to-nearest-even); biases, LayerNorm
    /// affine parameters and all trainable state stay f32.
    /// [`Precision::Nf4Frozen`] demotes the same parameter set to
    /// block-quantized storage (NF4 codes plus per-block absmax scales)
    /// under the same rule. [`Precision::F32`] promotes everything back (an exact decode; values
    /// keep whatever rounding the previous storage applied).
    ///
    /// Apply *after* any weight surgery that edits f32 buffers in place
    /// (e.g. [`Self::induce_activation_sparsity`]) and before training.
    pub fn set_precision(&mut self, precision: Precision) {
        let dtype = precision.dtype();
        self.for_each_param(&mut |p| {
            // Everything that is not a frozen matrix goes (back) to f32, so
            // a precision *switch* (e.g. f16 → NF4) cannot leave
            // sub-matrix parameters in the previous reduced storage.
            let frozen_matrix = !p.trainable && p.shape().len() >= 2;
            p.demote(if frozen_matrix { dtype } else { Dtype::F32 });
        });
        self.precision = precision;
    }

    /// Bytes of parameter value storage at the current precision (excludes
    /// gradients and optimizer state) — what `fig8_memory` reports as the
    /// measured backbone footprint.
    pub fn param_storage_bytes(&mut self) -> usize {
        let mut bytes = 0;
        self.for_each_param(&mut |p| bytes += p.storage_bytes());
        bytes
    }

    /// Effective sequence length including any prompt prefix.
    pub fn effective_seq(&self, seq: usize) -> usize {
        self.embedding.effective_seq(seq)
    }

    /// One pass from token ids to logits `[batch·eff_seq, vocab]` (tied LM
    /// head), resolving the plan per layer from `plan`: `Provided` indexes
    /// the pre-built plan, `Planner` is invoked with each block's input right
    /// before that block runs (its time is metered into the returned
    /// `Duration`), and the produced plan is collected for density stats.
    /// With `capture`, every block records a [`LayerCapture`].
    pub(crate) fn forward_pass(
        &mut self,
        ids: &[u32],
        batch: usize,
        seq: usize,
        plan: &mut PlanSource<'_>,
        capture: bool,
    ) -> (Tensor, Option<SparsePlan>, Duration) {
        let eff = self.effective_seq(seq);
        let mut x = self.embedding.forward(ids, batch, seq);
        let mut predict = Duration::ZERO;
        let mut used = match plan {
            PlanSource::Planner(_) => Some(SparsePlan::default()),
            _ => None,
        };
        for (i, block) in self.blocks.iter_mut().enumerate() {
            if capture {
                block.set_capture();
            }
            match plan {
                PlanSource::Dense => x = block.forward(&x, batch, eff, None),
                PlanSource::Provided(p) => x = block.forward(&x, batch, eff, p.layer(i)),
                PlanSource::Planner(planner) => {
                    // `out.predict` is defined as the exact sum of these
                    // span durations — `finish` returns the same nanosecond
                    // count it publishes to the trace.
                    let sp = TimedSpan::enter("model.predict")
                        .cat("step")
                        .layer(i as u32);
                    let lp = planner.plan_layer(i, &x, batch, eff);
                    predict += sp.finish();
                    x = block.forward(&x, batch, eff, Some(&lp));
                    used.as_mut().expect("planner plan").layers.push(lp);
                }
            }
        }
        let h = self.ln_f.forward(&x);
        let logits = self.embedding.tokens.matmul(&h, Layout::Transposed);
        self.cache_h = Some(h);
        (logits, used, predict)
    }

    /// Backward from `dlogits`; accumulates grads into trainable params.
    pub(crate) fn backward(&mut self, dlogits: &Tensor) {
        let h = self.cache_h.take().expect("model backward without forward");
        // Tied head: dH = dLogits · E ; dE += dLogitsᵀ · H.
        let dh = self.embedding.tokens.matmul(dlogits, Layout::Normal);
        if self.embedding.tokens.trainable {
            let demb = matmul_tn(dlogits, &h);
            self.embedding.tokens.accumulate_grad(&demb);
        }
        let mut dx = self.ln_f.backward(&dh);
        for block in self.blocks.iter_mut().rev() {
            dx = block.backward(&dx);
        }
        self.embedding.backward(&dx);
    }

    /// Drop the forward cache after a pass that will never backprop.
    pub(crate) fn clear_step_cache(&mut self) {
        self.cache_h = None;
    }

    /// Collect (and clear) the captures armed by the last capture forward.
    pub(crate) fn take_captures(&mut self) -> Captures {
        self.blocks
            .iter_mut()
            .map(|b| b.take_capture().expect("capture armed"))
            .collect()
    }

    /// Emulate the activation concentration of a *pre-trained* ReLU LLM.
    ///
    /// Freshly initialised transformers fire ~50% of MLP neurons per token
    /// with no structure; trained OPT-class models fire ~5–10%, concentrated
    /// on input-dependent subsets (paper §II-B and refs \[28\]–\[30\]). Real
    /// checkpoints are out of reach on this substrate, so this helper shifts
    /// FC1 biases so that neuron `i` fires with probability ≈ `1 − target_i`
    /// under LayerNormed inputs (pre-activations are ≈ N(b_i, ‖w_i‖²)), with
    /// `hot_fraction` of `group`-aligned neuron groups given a lower target
    /// (the "heavy" neurons). Firing stays input-dependent — only the
    /// *rates* are calibrated.
    pub fn induce_activation_sparsity(
        &mut self,
        per_token_target: f32,
        hot_fraction: f32,
        group: usize,
        seed: u64,
    ) {
        use rand::Rng;
        assert!((0.5..1.0).contains(&per_token_target), "target in [0.5, 1)");
        assert_eq!(
            self.precision,
            Precision::F32,
            "weight surgery edits f32 buffers in place; call before set_precision"
        );
        let d = self.config.d_model;
        let mut rng = lx_tensor::rng::seeded(seed);
        // Hot groups also get larger activation magnitudes (compensated in
        // FC2 so the block's output scale is preserved) — trained LLMs show
        // a wide dynamic range between heavy and marginal neurons, which is
        // what the paper's percent-of-peak importance filter keys on.
        let hot_gain = 6.0f32;
        for block in &mut self.blocks {
            let mlp = &mut block.mlp;
            let d_ff = mlp.d_ff();
            let mut g = 0usize;
            while g * group < d_ff {
                let hot = rng.gen::<f32>() < hot_fraction;
                let target = if hot {
                    (per_token_target - 0.25).max(0.5)
                } else {
                    (per_token_target + 0.04).min(0.995)
                };
                let q = probit(target);
                for i in g * group..((g + 1) * group).min(d_ff) {
                    if hot {
                        for v in mlp.w1.value.as_mut_slice()[i * d..(i + 1) * d].iter_mut() {
                            *v *= hot_gain;
                        }
                        for v in mlp.w2.value.as_mut_slice()[i * d..(i + 1) * d].iter_mut() {
                            *v /= hot_gain;
                        }
                    }
                    let norm: f32 = mlp.w1.value.as_slice()[i * d..(i + 1) * d]
                        .iter()
                        .map(|v| v * v)
                        .sum::<f32>()
                        .sqrt();
                    // Small jitter so thresholds differ within a group.
                    let jitter = 1.0 + 0.1 * (rng.gen::<f32>() - 0.5);
                    mlp.b1.value.as_mut_slice()[i] -= q * norm * jitter;
                }
                g += 1;
            }
        }
    }

    /// Companion to [`Self::induce_activation_sparsity`] for the attention
    /// side: scale the query projections so softmax scores concentrate the
    /// way trained checkpoints do (random-init attention is near-uniform,
    /// which hides the per-head sparse structure §IV-A describes).
    pub fn sharpen_attention(&mut self, gain: f32) {
        assert!(gain > 0.0);
        assert_eq!(
            self.precision,
            Precision::F32,
            "weight surgery edits f32 buffers in place; call before set_precision"
        );
        for block in &mut self.blocks {
            block.attn.wq.weight.value.scale(gain);
            if let Some(b) = &mut block.attn.wq.bias {
                b.value.scale(gain);
            }
        }
    }

    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.embedding.for_each_param(f);
        for b in &mut self.blocks {
            b.for_each_param(f);
        }
        self.ln_f.for_each_param(f);
    }

    pub fn zero_grads(&mut self) {
        self.for_each_param(&mut |p| p.zero_grad());
    }

    /// Mark every parameter frozen (PEFT starting point).
    pub fn freeze_all(&mut self) {
        self.for_each_param(&mut |p| {
            p.trainable = false;
            p.clear_grad();
        });
    }

    pub fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.for_each_param(&mut |p| n += p.numel());
        n
    }

    pub fn num_trainable(&mut self) -> usize {
        let mut n = 0;
        self.for_each_param(&mut |p| {
            if p.trainable {
                n += p.numel();
            }
        });
        n
    }
}

/// Inverse standard-normal CDF (Acklam's rational approximation, |ε|<1e-9
/// over (0,1)) — used to turn a firing-probability target into a bias shift.
pub fn probit(p: f32) -> f32 {
    let p = p as f64;
    assert!((0.0..1.0).contains(&p) && p > 0.0, "probit domain");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    let x = if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    x as f32
}

/// Build loss targets for next-token prediction with optional prompt prefix:
/// positions predicting real tokens get the token id, everything else (the
/// prompt region and the final position) is ignored.
pub fn prompt_aware_targets(ids: &[u32], batch: usize, seq: usize, prompt_len: usize) -> Vec<i32> {
    let eff = seq + prompt_len;
    let mut targets = vec![IGNORE_INDEX; batch * eff];
    for b in 0..batch {
        for s in 0..seq.saturating_sub(1) {
            // Row (prompt_len + s) predicts ids[s + 1].
            targets[b * eff + prompt_len + s] = ids[b * seq + s + 1] as i32;
        }
        if prompt_len > 0 && seq > 0 {
            // The last prompt row predicts the first real token.
            targets[b * eff + prompt_len - 1] = ids[b * seq] as i32;
        }
    }
    targets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::StepRequest;
    use crate::optim::Sgd;

    fn tiny() -> TransformerModel {
        TransformerModel::new(ModelConfig::test_tiny(), 42)
    }

    fn sample_batch(model: &TransformerModel, batch: usize, seq: usize, seed: u64) -> Vec<u32> {
        lx_tensor::rng::uniform_vec(batch * seq, 0.0, model.config.vocab_size as f32, seed)
            .into_iter()
            .map(|v| v as u32)
            .collect()
    }

    fn logits_of(m: &mut TransformerModel, ids: &[u32], batch: usize, seq: usize) -> Tensor {
        m.execute(StepRequest::infer(ids, batch, seq))
            .logits
            .expect("infer keeps logits")
    }

    #[test]
    fn forward_shapes() {
        let mut m = tiny();
        let ids = sample_batch(&m, 2, 8, 1);
        let logits = logits_of(&mut m, &ids, 2, 8);
        assert_eq!(logits.shape(), &[16, m.config.vocab_size]);
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn full_finetune_reduces_loss() {
        let mut m = tiny();
        m.for_each_param(&mut |p| p.trainable = true);
        let mut opt = Sgd::new(0.05);
        let ids = sample_batch(&m, 2, 8, 2);
        let targets = prompt_aware_targets(&ids, 2, 8, 0);
        let first = m
            .execute(StepRequest::train(&ids, &targets, 2, 8, &mut opt))
            .loss;
        let mut last = first;
        for _ in 0..10 {
            last = m
                .execute(StepRequest::train(&ids, &targets, 2, 8, &mut opt))
                .loss;
        }
        assert!(
            last < first * 0.9,
            "loss should drop when overfitting one batch: {first} -> {last}"
        );
    }

    #[test]
    fn frozen_model_does_not_change() {
        let mut m = tiny();
        m.freeze_all();
        let mut opt = Sgd::new(0.5);
        let ids = sample_batch(&m, 1, 8, 3);
        let targets = prompt_aware_targets(&ids, 1, 8, 0);
        let l1 = m
            .execute(StepRequest::train(&ids, &targets, 1, 8, &mut opt))
            .loss;
        let l2 = m
            .execute(StepRequest::train(&ids, &targets, 1, 8, &mut opt))
            .loss;
        assert!((l1 - l2).abs() < 1e-6, "all-frozen model must be static");
        assert_eq!(m.num_trainable(), 0);
    }

    #[test]
    fn captures_have_expected_shapes() {
        let mut m = tiny();
        let (b, s) = (2, 8);
        let ids = sample_batch(&m, b, s, 4);
        let caps = m
            .execute(StepRequest::capture(&ids, b, s))
            .captures
            .expect("capture mode records captures");
        assert_eq!(caps.len(), m.config.n_layers);
        let d = m.config.d_model;
        let h = m.config.n_heads;
        for cap in &caps {
            assert_eq!(cap.block_input.shape(), &[b * s, d]);
            assert_eq!(cap.attn_layout.n_heads(), h);
            assert_eq!(cap.attn_probs.shape(), &[b, cap.attn_layout.total_data_len]);
            assert_eq!(
                cap.mlp_activations.as_ref().unwrap().shape(),
                &[b * s, m.config.d_ff]
            );
        }
    }

    #[test]
    fn relu_activations_are_sparse_in_captures() {
        let mut m = tiny();
        let ids = sample_batch(&m, 2, 8, 5);
        let caps = m
            .execute(StepRequest::capture(&ids, 2, 8))
            .captures
            .unwrap();
        let acts = caps[0].mlp_activations.as_ref().unwrap();
        let zero_frac = acts.zero_fraction();
        assert!(
            zero_frac > 0.2,
            "ReLU should zero a chunk of activations: {zero_frac}"
        );
        // A GeLU model records no activations: there is no MLP sparsity to
        // expose.
        let mut cfg = ModelConfig::test_tiny();
        cfg.activation = crate::Activation::Gelu;
        let mut gelu = TransformerModel::new(cfg, 42);
        let caps = gelu.execute(StepRequest::capture(&ids, 2, 8)).captures;
        assert!(caps.unwrap().iter().all(|c| c.mlp_activations.is_none()));
    }

    #[test]
    fn prompt_aware_targets_layout() {
        // ids = [[5, 6, 7]] with prompt 2: eff=5.
        let t = prompt_aware_targets(&[5, 6, 7], 1, 3, 2);
        assert_eq!(t, vec![IGNORE_INDEX, 5, 6, 7, IGNORE_INDEX]);
        // No prompt: standard shift.
        let t2 = prompt_aware_targets(&[5, 6, 7], 1, 3, 0);
        assert_eq!(t2, vec![6, 7, IGNORE_INDEX]);
    }

    #[test]
    fn score_continuation_prefers_trained_sequence() {
        let mut m = tiny();
        m.for_each_param(&mut |p| p.trainable = true);
        let mut opt = Sgd::new(0.1);
        // Train on a fixed sequence so it becomes likely.
        let ids: Vec<u32> = vec![1, 2, 3, 4, 5, 6, 7, 8];
        let targets = prompt_aware_targets(&ids, 1, 8, 0);
        for _ in 0..30 {
            m.execute(StepRequest::train(&ids, &targets, 1, 8, &mut opt));
        }
        let good = crate::exec::score_continuation(&mut m, &[1, 2, 3, 4], &[5, 6]);
        let bad = crate::exec::score_continuation(&mut m, &[1, 2, 3, 4], &[9, 10]);
        assert!(
            good > bad,
            "trained continuation should score higher: {good} vs {bad}"
        );
    }

    #[test]
    fn f16_frozen_halves_backbone_storage_and_stays_close() {
        let mut a = tiny();
        let mut b = tiny(); // same seed ⇒ identical weights
        a.freeze_all();
        b.freeze_all();
        let f32_bytes = a.param_storage_bytes();
        b.set_precision(crate::Precision::F16Frozen);
        let f16_bytes = b.param_storage_bytes();
        // Matrices dominate; biases/LN stay f32, so the ratio is just over ½.
        let ratio = f16_bytes as f64 / f32_bytes as f64;
        assert!(ratio < 0.55, "storage ratio {ratio}");
        let ids = sample_batch(&a, 2, 8, 21);
        let la = logits_of(&mut a, &ids, 2, 8);
        let lb = logits_of(&mut b, &ids, 2, 8);
        for (x, y) in lb.as_slice().iter().zip(la.as_slice()) {
            assert!(
                (x - y).abs() <= 3e-2 * (1.0 + y.abs()),
                "f16-frozen logits drifted: {x} vs {y}"
            );
        }
    }

    #[test]
    fn precision_roundtrip_preserves_the_f16_function_exactly() {
        let mut m = tiny();
        m.freeze_all();
        m.set_precision(crate::Precision::F16Frozen);
        let ids = sample_batch(&m, 1, 8, 22);
        let before = logits_of(&mut m, &ids, 1, 8);
        // F32 promotion is an exact decode: the function is unchanged.
        m.set_precision(crate::Precision::F32);
        assert_eq!(m.precision(), crate::Precision::F32);
        let after = logits_of(&mut m, &ids, 1, 8);
        assert_eq!(before.as_slice(), after.as_slice());
    }

    #[test]
    fn scaled_training_on_f16_backbone_reduces_loss() {
        let mut m = tiny();
        m.freeze_all();
        m.set_precision(crate::Precision::F16Frozen);
        for block in &mut m.blocks {
            block.attn.wq.attach_lora(4, 8.0, 31);
            block.attn.wv.attach_lora(4, 8.0, 32);
            block.mlp.attach_lora_fc1(4, 8.0, 33);
            block.mlp.attach_lora_fc2(4, 8.0, 34);
        }
        let mut opt = crate::optim::Adam::new(0.02);
        let mut scaler = crate::optim::LossScaler::default();
        let ids = sample_batch(&m, 2, 8, 23);
        let targets = prompt_aware_targets(&ids, 2, 8, 0);
        let first =
            m.execute(StepRequest::train(&ids, &targets, 2, 8, &mut opt).loss_scale(&mut scaler));
        assert!(!first.skipped, "no overflow expected at 2^16 scale");
        let first = first.loss;
        let mut last = first;
        for _ in 0..30 {
            let out = m.execute(
                StepRequest::train(&ids, &targets, 2, 8, &mut opt).loss_scale(&mut scaler),
            );
            if !out.skipped {
                last = out.loss;
            }
        }
        assert_eq!(scaler.overflows(), 0);
        assert!(
            last < first * 0.95,
            "scaled LoRA training on f16 backbone must reduce loss: {first} -> {last}"
        );
    }

    #[test]
    fn quantized_frozen_shrinks_backbone_storage() {
        let mut m = tiny();
        m.freeze_all();
        let f32_bytes = m.param_storage_bytes();
        m.set_precision(crate::Precision::F16Frozen);
        let f16_bytes = m.param_storage_bytes();
        m.set_precision(crate::Precision::Nf4Frozen);
        let nf4_bytes = m.param_storage_bytes();
        // Matrices land at ~0.141x (NF4); biases and LayerNorm stay f32,
        // nudging the model-level ratio up slightly.
        let r4 = nf4_bytes as f64 / f32_bytes as f64;
        assert!(r4 < 0.20, "nf4 storage ratio {r4}");
        assert!(nf4_bytes < f16_bytes, "nf4 must be smaller than f16");
        // Promotion back to f32 restores the full footprint.
        m.set_precision(crate::Precision::F32);
        assert_eq!(m.param_storage_bytes(), f32_bytes);
    }

    #[test]
    fn quantized_frozen_logits_stay_finite_and_close() {
        let mut a = tiny();
        a.freeze_all();
        let ids = sample_batch(&a, 2, 8, 24);
        let la = logits_of(&mut a, &ids, 2, 8);
        let mut b = tiny(); // same seed ⇒ identical weights
        b.freeze_all();
        b.set_precision(crate::Precision::Nf4Frozen);
        let lb = logits_of(&mut b, &ids, 2, 8);
        for (x, y) in lb.as_slice().iter().zip(la.as_slice()) {
            assert!(x.is_finite(), "nf4: non-finite logit");
            // Coarse closeness bound — quantization perturbs more than f16;
            // the per-step loss envelope lives in the integration
            // differential tests.
            assert!(
                (x - y).abs() <= 0.5 * (1.0 + y.abs()),
                "nf4 logits drifted: {x} vs {y}"
            );
        }
    }

    #[test]
    fn precision_roundtrip_preserves_the_quantized_function_exactly() {
        let mut m = tiny();
        m.freeze_all();
        m.set_precision(crate::Precision::Nf4Frozen);
        let ids = sample_batch(&m, 1, 8, 25);
        let before = logits_of(&mut m, &ids, 1, 8);
        // F32 promotion is an exact decode: the function is unchanged.
        m.set_precision(crate::Precision::F32);
        let after = logits_of(&mut m, &ids, 1, 8);
        assert_eq!(before.as_slice(), after.as_slice());
    }

    #[test]
    fn scaled_training_on_nf4_backbone_reduces_loss() {
        let mut m = tiny();
        m.freeze_all();
        m.set_precision(crate::Precision::Nf4Frozen);
        for block in &mut m.blocks {
            block.attn.wq.attach_lora(4, 8.0, 41);
            block.attn.wv.attach_lora(4, 8.0, 42);
            block.mlp.attach_lora_fc1(4, 8.0, 43);
            block.mlp.attach_lora_fc2(4, 8.0, 44);
        }
        let mut opt = crate::optim::Adam::new(0.02);
        let mut scaler = crate::optim::LossScaler::default();
        let ids = sample_batch(&m, 2, 8, 26);
        let targets = prompt_aware_targets(&ids, 2, 8, 0);
        let first =
            m.execute(StepRequest::train(&ids, &targets, 2, 8, &mut opt).loss_scale(&mut scaler));
        assert!(!first.skipped, "no overflow expected at 2^16 scale");
        let first = first.loss;
        let mut last = first;
        for _ in 0..30 {
            let out = m.execute(
                StepRequest::train(&ids, &targets, 2, 8, &mut opt).loss_scale(&mut scaler),
            );
            if !out.skipped {
                last = out.loss;
            }
        }
        assert_eq!(scaler.overflows(), 0);
        assert!(
            last < first * 0.95,
            "scaled LoRA training on NF4 backbone must reduce loss: {first} -> {last}"
        );
    }

    #[test]
    #[should_panic(expected = "before set_precision")]
    fn weight_surgery_rejected_on_half_model() {
        let mut m = tiny();
        m.freeze_all();
        m.set_precision(crate::Precision::F16Frozen);
        m.sharpen_attention(2.0);
    }

    #[test]
    fn num_params_matches_config_estimate() {
        let mut m = tiny();
        let estimated = m.config.param_count();
        let actual = m.num_params();
        assert_eq!(actual, estimated);
    }

    #[test]
    fn probit_matches_known_quantiles() {
        assert!((probit(0.5)).abs() < 1e-6);
        assert!((probit(0.975) - 1.959_96).abs() < 1e-3);
        assert!((probit(0.9) - 1.281_55).abs() < 1e-3);
        assert!((probit(0.1) + 1.281_55).abs() < 1e-3);
        assert!((probit(0.001) + 3.090_23).abs() < 1e-3);
    }

    #[test]
    fn induced_sparsity_hits_target_band() {
        let mut cfg = ModelConfig::opt_sim_small();
        cfg.n_layers = 1;
        let mut m = TransformerModel::new(cfg, 3);
        let ids = sample_batch(&m, 2, 64, 9);
        let mlp_zero_fraction = |m: &mut TransformerModel| {
            m.execute(StepRequest::capture(&ids, 2, 64))
                .captures
                .unwrap()[0]
                .mlp_activations
                .as_ref()
                .unwrap()
                .zero_fraction()
        };
        let before = mlp_zero_fraction(&mut m);
        m.induce_activation_sparsity(0.92, 0.25, 16, 11);
        let after = mlp_zero_fraction(&mut m);
        assert!(before < 0.7, "random init is not very sparse: {before}");
        assert!(
            (0.75..0.99).contains(&after),
            "induced per-token sparsity {after} (target 0.92-ish)"
        );
    }
}
