//! The unified execution API: one typed request, one entry point.
//!
//! Every pass through the model — training, gradient accumulation,
//! evaluation, calibration capture, candidate scoring — is described by a
//! [`StepRequest`] and executed by [`TransformerModel::execute`], which
//! returns a [`StepOutcome`] carrying the loss, optional logits/captures,
//! per-phase timings (the paper's Table I / Fig. 10 breakdown), and the
//! realised attention/MLP densities.
//!
//! The sparsity decision is a first-class input: [`PlanSource`] selects
//! between the dense baseline, a pre-built [`SparsePlan`], and inline
//! per-layer planning through a [`LayerPlanner`] (the paper's online
//! prediction point, where each layer's pattern is predicted from the block
//! input immediately before the block runs).
//!
//! ```no_run
//! use lx_model::{ModelConfig, Sgd, StepRequest, TransformerModel};
//!
//! let mut model = TransformerModel::new(ModelConfig::test_tiny(), 42);
//! let ids: Vec<u32> = (0..16).collect();
//! let targets = lx_model::prompt_aware_targets(&ids, 2, 8, 0);
//! let mut opt = Sgd::new(0.05);
//! let out = model.execute(StepRequest::train(&ids, &targets, 2, 8, &mut opt));
//! println!("loss {:.3} in {:?}", out.loss, out.total());
//! ```

use crate::loss::{self, IGNORE_INDEX};
use crate::model::{Captures, LayerPlanner, TransformerModel};
use crate::optim::{LossScaler, Optimizer};
use crate::plan::SparsePlan;
use lx_obs::{registry, Histogram, Span, TimedSpan};
use lx_tensor::Tensor;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Always-on `model.step.ns` latency histogram (one record per [`execute`]
/// call — negligible next to a step, and it feeds the p50/p99 columns of
/// `step_bench --json` and the serve exposition endpoint).
///
/// [`execute`]: TransformerModel::execute
fn step_ns_histogram() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| registry().histogram("model.step.ns"))
}

/// One shard of a gradient-accumulation step: token ids plus loss targets,
/// both for the request's shared `(batch, seq)` shape.
#[derive(Debug, Clone, Copy)]
pub struct MicroBatch<'a> {
    pub ids: &'a [u32],
    pub targets: &'a [i32],
}

/// Where the sparse execution plan for a step comes from.
pub enum PlanSource<'a> {
    /// Dense baseline: no sparsity, every block runs full.
    Dense,
    /// A pre-built plan (oracle/random ablations, replayed plans).
    Provided(&'a SparsePlan),
    /// Inline per-layer planning: `plan_layer` is called with each block's
    /// input right before that block executes. Planning time is metered
    /// separately into [`StepOutcome::predict`].
    Planner(&'a mut dyn LayerPlanner),
}

/// What a step does after the forward pass.
pub enum Mode<'a> {
    /// Forward, loss, backward, optimizer step. With `loss_scale`, the loss
    /// gradient is scaled before backward and gradients are unscaled and
    /// overflow-checked before the optimizer runs (mixed-precision training);
    /// an overflow skips the step and sets [`StepOutcome::skipped`].
    Train {
        optimizer: &'a mut dyn Optimizer,
        loss_scale: Option<&'a mut LossScaler>,
    },
    /// Forward, loss, backward — gradients accumulate in the parameters but
    /// no optimizer runs (data-parallel workers, custom update loops).
    Grad,
    /// Forward and loss only; model state is untouched.
    Eval,
    /// Dense forward recording per-layer calibration captures: attention
    /// always, MLP activations on ReLU models.
    Capture,
    /// Forward scoring: [`StepOutcome::loss`] is the *summed log-probability*
    /// of the non-ignored targets (the lm-eval candidate-scoring primitive).
    Score,
}

/// Per-micro-batch preparation hook: `(model, shard index)` immediately
/// before that shard's forward pass (see [`StepRequest::on_micro_batch`]).
pub type PrepareHook<'a> = &'a mut dyn FnMut(&mut TransformerModel, usize);

/// A typed description of one execution step. Build with the mode
/// constructors, then chain [`Self::plan`]/[`Self::plan_source`],
/// [`Self::micro_batch`], [`Self::loss_scale`] and [`Self::keep_logits`].
pub struct StepRequest<'a> {
    pub(crate) batches: Vec<MicroBatch<'a>>,
    pub(crate) batch: usize,
    pub(crate) seq: usize,
    pub(crate) mode: Mode<'a>,
    pub(crate) plan: PlanSource<'a>,
    pub(crate) keep_logits: bool,
    pub(crate) prepare: Option<PrepareHook<'a>>,
}

impl<'a> StepRequest<'a> {
    fn new(ids: &'a [u32], targets: &'a [i32], batch: usize, seq: usize, mode: Mode<'a>) -> Self {
        StepRequest {
            batches: vec![MicroBatch { ids, targets }],
            batch,
            seq,
            mode,
            plan: PlanSource::Dense,
            keep_logits: false,
            prepare: None,
        }
    }

    /// A full training step: forward, cross-entropy, backward, `optimizer`.
    pub fn train(
        ids: &'a [u32],
        targets: &'a [i32],
        batch: usize,
        seq: usize,
        optimizer: &'a mut dyn Optimizer,
    ) -> Self {
        Self::new(
            ids,
            targets,
            batch,
            seq,
            Mode::Train {
                optimizer,
                loss_scale: None,
            },
        )
    }

    /// Forward + backward without an optimizer step: gradients accumulate in
    /// the trainable parameters (the request zeroes them first).
    pub fn grad(ids: &'a [u32], targets: &'a [i32], batch: usize, seq: usize) -> Self {
        Self::new(ids, targets, batch, seq, Mode::Grad)
    }

    /// Evaluation pass: forward and loss only, no state change.
    pub fn eval(ids: &'a [u32], targets: &'a [i32], batch: usize, seq: usize) -> Self {
        Self::new(ids, targets, batch, seq, Mode::Eval)
    }

    /// Pure inference: evaluation pass with no targets that keeps the logits.
    pub fn infer(ids: &'a [u32], batch: usize, seq: usize) -> Self {
        Self::new(ids, &[], batch, seq, Mode::Eval).keep_logits()
    }

    /// Dense calibration pass recording per-layer captures.
    pub fn capture(ids: &'a [u32], batch: usize, seq: usize) -> Self {
        Self::new(ids, &[], batch, seq, Mode::Capture)
    }

    /// Candidate-scoring pass: the outcome's `loss` is the summed
    /// log-probability of the non-ignored `targets` (see [`score_parts`]).
    pub fn score(ids: &'a [u32], targets: &'a [i32], batch: usize, seq: usize) -> Self {
        Self::new(ids, targets, batch, seq, Mode::Score)
    }

    /// Execute with a pre-built sparse plan.
    pub fn plan(mut self, plan: &'a SparsePlan) -> Self {
        self.plan = PlanSource::Provided(plan);
        self
    }

    /// Execute with an explicit [`PlanSource`].
    pub fn plan_source(mut self, source: PlanSource<'a>) -> Self {
        self.plan = source;
        self
    }

    /// Append a micro-batch. In Train/Grad modes this is gradient
    /// accumulation: gradients accumulate across all micro-batches and the
    /// optimizer runs once, weighting each shard by its share of counted
    /// targets so the update matches one fused batch. In Eval/Score modes it
    /// is batch *fusion*: every shard runs an independent stateless pass and
    /// its raw loss is recorded in [`StepOutcome::micro_losses`],
    /// bit-identical to running each shard as its own request.
    pub fn micro_batch(mut self, ids: &'a [u32], targets: &'a [i32]) -> Self {
        self.batches.push(MicroBatch { ids, targets });
        self
    }

    /// Install a per-micro-batch preparation hook (stateless Eval/Score
    /// modes only): called with the model and the micro-batch index
    /// immediately before that shard's forward pass. This is the
    /// cross-tenant fusion vehicle — `lx-cluster` swaps tenant adapters
    /// between the fused shards of one request, so jobs from different
    /// tenants share a single execution step.
    pub fn on_micro_batch(mut self, hook: PrepareHook<'a>) -> Self {
        self.prepare = Some(hook);
        self
    }

    /// Enable dynamic loss scaling (Train mode only).
    pub fn loss_scale(mut self, scaler: &'a mut LossScaler) -> Self {
        match &mut self.mode {
            Mode::Train { loss_scale, .. } => *loss_scale = Some(scaler),
            _ => panic!("loss_scale applies to Mode::Train only"),
        }
        self
    }

    /// Return the last micro-batch's logits in the outcome.
    pub fn keep_logits(mut self) -> Self {
        self.keep_logits = true;
        self
    }
}

/// Everything one step produced: loss, optional logits/captures, the plan
/// that was used, per-phase wall times and realised densities.
#[derive(Debug, Default)]
pub struct StepOutcome {
    /// Mean cross-entropy over counted targets (Train/Grad/Eval), the summed
    /// log-probability (Score), or 0 (Capture / target-less Eval).
    pub loss: f32,
    /// Last micro-batch's logits, when requested via `keep_logits`.
    pub logits: Option<Tensor>,
    /// Per-layer calibration captures (Capture mode).
    pub captures: Option<Captures>,
    /// The plan an inline planner produced (last micro-batch).
    pub plan: Option<SparsePlan>,
    /// Time spent inside the planner (`PlanSource::Planner` only).
    pub predict: Duration,
    pub forward: Duration,
    pub backward: Duration,
    pub optim: Duration,
    /// Mean attention density of the executed plan(s); `None` when dense.
    pub attn_density: Option<f32>,
    /// Mean MLP neuron-block density of the executed plan(s).
    pub mlp_density: Option<f32>,
    /// The optimizer step was skipped because a scaled gradient overflowed
    /// (the loss scaler has already backed off).
    pub skipped: bool,
    /// Number of micro-batches this step accumulated over.
    pub micro_batches: usize,
    /// Per-micro-batch raw loss, one entry per shard in request order: the
    /// unweighted shard cross-entropy (Train/Grad/Eval), the shard's summed
    /// log-probability (Score), or 0 (Capture / target-less Eval). For fused
    /// Eval/Score requests each entry is bit-identical to running that shard
    /// as its own single-batch request — the de-fusion contract `lx-cluster`
    /// relies on to hand every tenant exactly the loss it would have seen
    /// unfused.
    pub micro_losses: Vec<f32>,
}

impl StepOutcome {
    pub fn total(&self) -> Duration {
        self.predict + self.forward + self.backward + self.optim
    }
}

fn merge_density(acc: Option<f32>, next: Option<f32>, n_seen: usize) -> Option<f32> {
    match (acc, next) {
        (Some(a), Some(b)) => Some((a * n_seen as f32 + b) / (n_seen as f32 + 1.0)),
        (a, b) => a.or(b),
    }
}

impl TransformerModel {
    /// Execute one [`StepRequest`]. The single entry point for every pass
    /// through the model; see the [module docs](self) for the mode catalogue.
    ///
    /// The whole step — all micro-batches, forward, backward, optimizer —
    /// runs inside the model's step-workspace scope, so after warmup a
    /// steady-state step performs zero heap tensor allocations; see
    /// [`lx_tensor::Workspace`].
    pub fn execute(&mut self, req: StepRequest<'_>) -> StepOutcome {
        self.workspace_scope(|m| m.execute_inner(req))
    }

    fn execute_inner(&mut self, req: StepRequest<'_>) -> StepOutcome {
        let _step_span = Span::enter("model.step").cat("step");
        let t_step = Instant::now();
        let StepRequest {
            batches,
            batch,
            seq,
            mode,
            mut plan,
            keep_logits,
            mut prepare,
        } = req;
        assert!(!batches.is_empty(), "StepRequest needs at least one batch");
        let eff = self.effective_seq(seq);
        let grad_mode = matches!(mode, Mode::Train { .. } | Mode::Grad);
        let stateless_mode = matches!(mode, Mode::Eval | Mode::Score);
        assert!(
            batches.len() == 1 || grad_mode || stateless_mode,
            "multi-batch requests need a gradient mode (Train/Grad accumulation) \
             or a stateless mode (Eval/Score fusion); Capture takes one batch"
        );
        assert!(
            prepare.is_none() || stateless_mode,
            "on_micro_batch hooks apply to stateless Eval/Score fusion only"
        );
        if matches!(mode, Mode::Capture) {
            assert!(
                matches!(plan, PlanSource::Dense),
                "Capture mode records dense ground truth; use PlanSource::Dense"
            );
        }
        for mb in &batches {
            assert_eq!(mb.ids.len(), batch * seq, "ids length must be batch*seq");
            if !mb.targets.is_empty()
                || matches!(mode, Mode::Train { .. } | Mode::Grad | Mode::Score)
            {
                assert_eq!(
                    mb.targets.len(),
                    batch * eff,
                    "targets length must be batch*effective_seq"
                );
            }
        }
        if grad_mode {
            self.zero_grads();
        }
        // Per-shard weights: each micro-batch's gradient contribution is its
        // share of the counted (non-ignored) targets, so N accumulated
        // micro-batches match one fused batch.
        let counted: Vec<usize> = batches
            .iter()
            .map(|m| m.targets.iter().filter(|&&t| t != IGNORE_INDEX).count())
            .collect();
        let total_counted: usize = counted.iter().sum();

        let n_micro = batches.len();
        let mut out = StepOutcome {
            micro_batches: n_micro,
            ..StepOutcome::default()
        };
        let mut loss_acc = 0.0f64;
        let capture = matches!(mode, Mode::Capture);
        for (i, mb) in batches.iter().enumerate() {
            let _mb_span = Span::enter("model.micro_batch").cat("step").index(i as u64);
            // Cross-tenant fusion point: let the caller reconfigure the model
            // (swap the attached adapter) before this shard's forward pass.
            if let Some(hook) = prepare.as_mut() {
                hook(self, i);
            }
            // The forward span covers the whole pass (planner included); the
            // planner's own time is metered by the `model.predict` spans it
            // emits, so `out.forward` is the span duration minus `pred_t` —
            // both sides of the subtraction are exact span nanoseconds,
            // keeping the outcome bit-identical to the trace.
            let fwd_span = TimedSpan::enter("model.forward_pass")
                .cat("step")
                .index(i as u64);
            let (logits, used, pred_t) = self.forward_pass(mb.ids, batch, seq, &mut plan, capture);
            out.predict += pred_t;
            out.forward += fwd_span.finish().saturating_sub(pred_t);
            let densities = match (&used, &plan) {
                (Some(u), _) => Some((u.mean_attn_density(), u.mean_mlp_density())),
                (None, PlanSource::Provided(p)) => {
                    Some((p.mean_attn_density(), p.mean_mlp_density()))
                }
                _ => None,
            };
            if let Some((a, m)) = densities {
                out.attn_density = merge_density(out.attn_density, a, i);
                out.mlp_density = merge_density(out.mlp_density, m, i);
            }
            if grad_mode {
                let (loss, mut dlogits) = loss::cross_entropy(&logits, mb.targets);
                let weight = if total_counted == 0 {
                    0.0
                } else {
                    counted[i] as f32 / total_counted as f32
                };
                let scale = match &mode {
                    Mode::Train {
                        loss_scale: Some(s),
                        ..
                    } => weight * s.scale(),
                    _ => weight,
                };
                if scale != 1.0 {
                    dlogits.scale(scale);
                }
                let bwd_span = TimedSpan::enter("model.backward")
                    .cat("step")
                    .index(i as u64);
                self.backward(&dlogits);
                out.backward += bwd_span.finish();
                loss_acc += loss as f64 * weight as f64;
                out.micro_losses.push(loss);
            } else {
                match mode {
                    Mode::Eval => {
                        let shard = if mb.targets.is_empty() {
                            0.0
                        } else {
                            loss::cross_entropy_loss(&logits, mb.targets)
                        };
                        out.micro_losses.push(shard);
                        if !mb.targets.is_empty() {
                            // Single-batch requests keep the raw shard loss
                            // (bit-identical to the pre-fusion behaviour);
                            // fused requests aggregate by counted-target share
                            // like gradient accumulation does.
                            if n_micro == 1 {
                                loss_acc += shard as f64;
                            } else if total_counted > 0 {
                                loss_acc +=
                                    shard as f64 * (counted[i] as f64 / total_counted as f64);
                            }
                        }
                        self.clear_step_cache();
                    }
                    Mode::Score => {
                        let shard = loss::sequence_logprob(&logits, mb.targets);
                        out.micro_losses.push(shard);
                        loss_acc += shard as f64;
                        self.clear_step_cache();
                    }
                    Mode::Capture => {
                        out.captures = Some(self.take_captures());
                        out.micro_losses.push(0.0);
                        self.clear_step_cache();
                    }
                    Mode::Train { .. } | Mode::Grad => unreachable!(),
                }
            }
            if i + 1 == n_micro {
                out.plan = used;
                if keep_logits {
                    out.logits = Some(logits);
                }
            }
        }
        if let Mode::Train {
            optimizer,
            loss_scale,
        } = mode
        {
            let opt_span = TimedSpan::enter("model.optimizer").cat("step");
            match loss_scale {
                Some(scaler) => {
                    let finite = scaler.unscale(&mut |f| self.for_each_param(f));
                    if finite {
                        optimizer.begin_step();
                        self.for_each_param(&mut |p| optimizer.update(p));
                        scaler.update(false);
                    } else {
                        scaler.update(true);
                        out.skipped = true;
                    }
                }
                None => {
                    optimizer.begin_step();
                    self.for_each_param(&mut |p| optimizer.update(p));
                }
            }
            out.optim = opt_span.finish();
        }
        out.loss = loss_acc as f32;
        step_ns_histogram().record_duration(t_step.elapsed());
        out
    }
}

/// Build the `(ids, targets)` pair for scoring `continuation` given `prompt`
/// with [`Mode::Score`]: rows covering the continuation get targets (row *i*
/// predicts token *i+1*), everything else is ignored. `prompt_prefix` is the
/// model's soft-prompt length ([`crate::embedding::Embedding::prompt_len`]).
pub fn score_parts(
    prompt: &[u32],
    continuation: &[u32],
    prompt_prefix: usize,
) -> (Vec<u32>, Vec<i32>) {
    assert!(!continuation.is_empty());
    let ids: Vec<u32> = prompt.iter().chain(continuation).copied().collect();
    let eff = ids.len() + prompt_prefix;
    let mut targets = vec![IGNORE_INDEX; eff];
    for (j, &tok) in continuation.iter().enumerate() {
        let pos = prompt_prefix + prompt.len() + j; // position of this token
        targets[pos - 1] = tok as i32; // predicted from the previous row
    }
    (ids, targets)
}

/// Log-probability of `continuation` given `prompt` (Table IV scoring) — a
/// thin composition of [`score_parts`] and a [`Mode::Score`] request.
pub fn score_continuation(
    model: &mut TransformerModel,
    prompt: &[u32],
    continuation: &[u32],
) -> f32 {
    let (ids, targets) = score_parts(prompt, continuation, model.embedding.prompt_len());
    let seq = prompt.len() + continuation.len();
    model
        .execute(StepRequest::score(&ids, &targets, 1, seq))
        .loss
}

// The equivalence proofs against the *legacy* entry points live here, inside
// the crate, because only this module can still spell out the exact private
// call sequences (`forward_pass` → `cross_entropy` → `backward` → optimizer)
// that `train_step`, `train_step_scaled` and `forward_planned` used to run.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::prompt_aware_targets;
    use crate::optim::Sgd;
    use crate::plan::LayerPlan;
    use crate::ModelConfig;
    use lx_sparse::{BlockCsr, MultiHeadLayout, NeuronBlockSet, PatternSpec};
    use std::sync::Arc;

    const BATCH: usize = 2;
    const SEQ: usize = 8;
    const BLOCK: usize = 4;

    fn tiny() -> TransformerModel {
        TransformerModel::new(ModelConfig::test_tiny(), 42)
    }

    fn sample(seed: u64) -> (Vec<u32>, Vec<i32>) {
        let vocab = ModelConfig::test_tiny().vocab_size as f32;
        let ids: Vec<u32> = lx_tensor::rng::uniform_vec(BATCH * SEQ, 0.0, vocab, seed)
            .into_iter()
            .map(|v| v as u32)
            .collect();
        let targets = prompt_aware_targets(&ids, BATCH, SEQ, 0);
        (ids, targets)
    }

    fn trainable_values(m: &mut TransformerModel) -> Vec<(String, Vec<f32>)> {
        let mut out = Vec::new();
        m.for_each_param(&mut |p| {
            if p.trainable {
                out.push((p.name.clone(), p.value.as_slice().to_vec()));
            }
        });
        out
    }

    /// The exact sequence the removed `TransformerModel::train_step` ran.
    fn legacy_train_step(
        m: &mut TransformerModel,
        ids: &[u32],
        targets: &[i32],
        opt: &mut dyn crate::Optimizer,
    ) -> f32 {
        m.zero_grads();
        let (logits, _, _) = m.forward_pass(ids, BATCH, SEQ, &mut PlanSource::Dense, false);
        let (loss, dlogits) = loss::cross_entropy(&logits, targets);
        m.backward(&dlogits);
        opt.begin_step();
        m.for_each_param(&mut |p| opt.update(p));
        loss
    }

    /// The exact sequence the removed `train_step_scaled` ran.
    fn legacy_train_step_scaled(
        m: &mut TransformerModel,
        ids: &[u32],
        targets: &[i32],
        opt: &mut dyn crate::Optimizer,
        scaler: &mut LossScaler,
    ) -> Option<f32> {
        m.zero_grads();
        let (logits, _, _) = m.forward_pass(ids, BATCH, SEQ, &mut PlanSource::Dense, false);
        let (loss, mut dlogits) = loss::cross_entropy(&logits, targets);
        dlogits.scale(scaler.scale());
        m.backward(&dlogits);
        let finite = scaler.unscale(&mut |f| m.for_each_param(f));
        if !finite {
            scaler.update(true);
            return None;
        }
        opt.begin_step();
        m.for_each_param(&mut |p| opt.update(p));
        scaler.update(false);
        Some(loss)
    }

    #[test]
    fn execute_reproduces_legacy_train_step_bit_identically() {
        let mut a = tiny();
        let mut b = tiny();
        a.for_each_param(&mut |p| p.trainable = true);
        b.for_each_param(&mut |p| p.trainable = true);
        let mut opt_a = Sgd::new(0.05);
        let mut opt_b = Sgd::new(0.05);
        for step in 0..5u64 {
            let (ids, targets) = sample(100 + step);
            let new = a
                .execute(StepRequest::train(&ids, &targets, BATCH, SEQ, &mut opt_a))
                .loss;
            let old = legacy_train_step(&mut b, &ids, &targets, &mut opt_b);
            assert_eq!(new.to_bits(), old.to_bits(), "step {step} loss");
        }
        assert_eq!(
            trainable_values(&mut a),
            trainable_values(&mut b),
            "parameters must stay bit-identical"
        );
    }

    #[test]
    fn execute_reproduces_legacy_train_step_scaled_bit_identically() {
        let run = |legacy: bool| -> (Vec<f32>, Vec<(String, Vec<f32>)>) {
            let mut m = tiny();
            m.freeze_all();
            for block in &mut m.blocks {
                block.attn.wq.attach_lora(4, 8.0, 31);
                block.attn.wv.attach_lora(4, 8.0, 32);
            }
            let mut opt = crate::optim::Adam::new(0.02);
            let mut scaler = LossScaler::default();
            let mut losses = Vec::new();
            for step in 0..6u64 {
                let (ids, targets) = sample(200 + step);
                let loss = if legacy {
                    legacy_train_step_scaled(&mut m, &ids, &targets, &mut opt, &mut scaler)
                } else {
                    let out = m.execute(
                        StepRequest::train(&ids, &targets, BATCH, SEQ, &mut opt)
                            .loss_scale(&mut scaler),
                    );
                    (!out.skipped).then_some(out.loss)
                };
                losses.push(loss.expect("no overflow expected"));
            }
            (losses, trainable_values(&mut m))
        };
        let (loss_new, params_new) = run(false);
        let (loss_old, params_old) = run(true);
        assert_eq!(loss_new, loss_old, "scaled losses must be bit-identical");
        assert_eq!(params_new, params_old);
    }

    /// A deterministic inline planner (causal attention, odd neuron blocks).
    struct FixedPlanner;

    impl FixedPlanner {
        fn layer_plan(seq: usize, d_ff: usize) -> LayerPlan {
            let csr = Arc::new(BlockCsr::from_mask(
                &PatternSpec::Causal.mask(seq / BLOCK),
                BLOCK,
            ));
            let n_blk = d_ff / BLOCK;
            LayerPlan {
                attn: Some(Arc::new(MultiHeadLayout::combine(vec![csr; 2]))),
                mlp: Some(Arc::new(NeuronBlockSet::from_indices(
                    (0..n_blk as u32).filter(|i| i % 2 == 1).collect(),
                    n_blk,
                    BLOCK,
                ))),
            }
        }
    }

    impl LayerPlanner for FixedPlanner {
        fn plan_layer(&mut self, _layer: usize, _x: &Tensor, _b: usize, seq: usize) -> LayerPlan {
            Self::layer_plan(seq, ModelConfig::test_tiny().d_ff)
        }
    }

    #[test]
    fn execute_planner_reproduces_legacy_forward_planned_bit_identically() {
        // The removed `forward_planned` interleaved plan_layer with each
        // block's forward; `PlanSource::Planner` runs the same loop. Against
        // it: the same per-layer plans pre-built and provided up front.
        let (ids, targets) = sample(300);
        let cfg = ModelConfig::test_tiny();
        let mut via_planner = tiny();
        let mut planner = FixedPlanner;
        let out_a = via_planner.execute(
            StepRequest::grad(&ids, &targets, BATCH, SEQ)
                .plan_source(PlanSource::Planner(&mut planner))
                .keep_logits(),
        );
        let mut provided = SparsePlan::default();
        for _ in 0..cfg.n_layers {
            provided
                .layers
                .push(FixedPlanner::layer_plan(SEQ, cfg.d_ff));
        }
        let mut via_plan = tiny();
        let out_b = via_plan.execute(
            StepRequest::grad(&ids, &targets, BATCH, SEQ)
                .plan(&provided)
                .keep_logits(),
        );
        assert_eq!(
            out_a.logits.as_ref().unwrap().as_slice(),
            out_b.logits.as_ref().unwrap().as_slice(),
            "planner and provided plans must run the same sparse path"
        );
        assert_eq!(out_a.loss.to_bits(), out_b.loss.to_bits());
        assert_eq!(out_a.attn_density, out_b.attn_density);
        assert_eq!(out_a.mlp_density, out_b.mlp_density);
        let used = out_a.plan.expect("planner plan collected");
        assert_eq!(used.layers.len(), cfg.n_layers);
    }

    #[test]
    fn redemotion_across_precisions_does_not_serve_stale_slabs() {
        // Regression: switching the storage plan between sparse steps (here
        // f16 → NF4) must invalidate the cross-step MLP
        // slab caches, or the post-switch step would serve slabs decoded
        // from the *previous* storage. Oracle: a twin that takes the same
        // precision path but never built a cache under the old storage.
        let (ids, _) = sample(400);
        let cfg = ModelConfig::test_tiny();
        let mut provided = SparsePlan::default();
        for _ in 0..cfg.n_layers {
            provided
                .layers
                .push(FixedPlanner::layer_plan(SEQ, cfg.d_ff));
        }
        let mut m = tiny();
        m.freeze_all();
        m.set_precision(crate::Precision::F16Frozen);
        // Builds the f16 slab caches.
        let _ = m.execute(StepRequest::infer(&ids, BATCH, SEQ).plan(&provided));
        m.set_precision(crate::Precision::Nf4Frozen);
        let redemoted = m.execute(StepRequest::infer(&ids, BATCH, SEQ).plan(&provided));
        let mut fresh = tiny();
        fresh.freeze_all();
        fresh.set_precision(crate::Precision::F16Frozen);
        fresh.set_precision(crate::Precision::Nf4Frozen);
        let oracle = fresh.execute(StepRequest::infer(&ids, BATCH, SEQ).plan(&provided));
        assert_eq!(
            redemoted.logits.unwrap().as_slice(),
            oracle.logits.unwrap().as_slice(),
            "post-switch sparse step must not reuse slabs from the old storage"
        );
    }

    #[test]
    fn score_request_reproduces_legacy_score_continuation() {
        // The removed method built ids/targets by hand and called
        // `sequence_logprob` on a dense forward; `score_parts` + Mode::Score
        // is the same computation.
        let mut m = tiny();
        let prompt = [1u32, 2, 3, 4];
        let cont = [5u32, 6];
        let via_mode = score_continuation(&mut m, &prompt, &cont);
        let ids: Vec<u32> = prompt.iter().chain(&cont).copied().collect();
        let (logits, _, _) = m.forward_pass(&ids, 1, ids.len(), &mut PlanSource::Dense, false);
        m.clear_step_cache();
        let (_, targets) = score_parts(&prompt, &cont, 0);
        let legacy = loss::sequence_logprob(&logits, &targets);
        assert_eq!(via_mode.to_bits(), legacy.to_bits());
    }

    #[test]
    fn micro_batch_accumulation_matches_fused_batch() {
        // Two micro-batches of B rows vs one fused batch of 2B rows: the
        // weighted gradient accumulation must match the fused update to
        // f32 re-association tolerance.
        let (ids_a, t_a) = sample(400);
        let (ids_b, t_b) = sample(401);
        let fused_ids: Vec<u32> = ids_a.iter().chain(&ids_b).copied().collect();
        let fused_t: Vec<i32> = t_a.iter().chain(&t_b).copied().collect();

        let mut accum = tiny();
        let mut fused = tiny();
        accum.for_each_param(&mut |p| p.trainable = true);
        fused.for_each_param(&mut |p| p.trainable = true);
        let out_acc =
            accum.execute(StepRequest::grad(&ids_a, &t_a, BATCH, SEQ).micro_batch(&ids_b, &t_b));
        assert_eq!(out_acc.micro_batches, 2);
        let out_fused = fused.execute(StepRequest::grad(&fused_ids, &fused_t, 2 * BATCH, SEQ));
        assert!(
            (out_acc.loss - out_fused.loss).abs() <= 1e-5 * (1.0 + out_fused.loss.abs()),
            "losses: {} vs {}",
            out_acc.loss,
            out_fused.loss
        );
        let ga = trainable_grads(&mut accum);
        let gf = trainable_grads(&mut fused);
        assert_eq!(ga.len(), gf.len());
        for ((name, a), (_, f)) in ga.iter().zip(&gf) {
            for (x, y) in a.iter().zip(f) {
                assert!(
                    (x - y).abs() <= 1e-4 * (1.0 + y.abs()),
                    "{name}: accumulated grad {x} vs fused {y}"
                );
            }
        }
    }

    fn trainable_grads(m: &mut TransformerModel) -> Vec<(String, Vec<f32>)> {
        let mut out = Vec::new();
        m.for_each_param(&mut |p| {
            if p.trainable {
                out.push((
                    p.name.clone(),
                    p.grad
                        .as_ref()
                        .map(|g| g.as_slice().to_vec())
                        .unwrap_or_default(),
                ));
            }
        });
        out
    }

    #[test]
    fn eval_mode_leaves_the_model_untouched() {
        let mut m = tiny();
        m.for_each_param(&mut |p| p.trainable = true);
        let (ids, targets) = sample(500);
        let before = trainable_values(&mut m);
        let out = m.execute(StepRequest::eval(&ids, &targets, BATCH, SEQ));
        assert!(out.loss.is_finite());
        assert_eq!(before, trainable_values(&mut m));
        let mut grads = 0;
        m.for_each_param(&mut |p| {
            if p.grad.is_some() {
                grads += 1;
            }
        });
        assert_eq!(grads, 0, "eval must not touch gradients");
    }

    #[test]
    #[should_panic(expected = "Capture takes one batch")]
    fn accumulation_rejected_in_capture_mode() {
        let mut m = tiny();
        let (ids, _) = sample(600);
        m.execute(StepRequest::capture(&ids, BATCH, SEQ).micro_batch(&ids, &[]));
    }

    #[test]
    #[should_panic(expected = "stateless Eval/Score fusion only")]
    fn prepare_hook_rejected_in_gradient_modes() {
        let mut m = tiny();
        let (ids, targets) = sample(601);
        let mut hook = |_: &mut TransformerModel, _: usize| {};
        m.execute(StepRequest::grad(&ids, &targets, BATCH, SEQ).on_micro_batch(&mut hook));
    }

    #[test]
    fn fused_eval_micro_losses_are_bit_identical_to_separate_requests() {
        // The de-fusion contract: each shard of a fused Eval request must
        // report exactly the loss it would have produced as its own request.
        let shards: Vec<(Vec<u32>, Vec<i32>)> = (0..3).map(|k| sample(700 + k)).collect();
        let mut fused_model = tiny();
        let out = fused_model.execute(
            StepRequest::eval(&shards[0].0, &shards[0].1, BATCH, SEQ)
                .micro_batch(&shards[1].0, &shards[1].1)
                .micro_batch(&shards[2].0, &shards[2].1),
        );
        assert_eq!(out.micro_batches, 3);
        assert_eq!(out.micro_losses.len(), 3);
        for (k, (ids, targets)) in shards.iter().enumerate() {
            let mut solo = tiny();
            let alone = solo.execute(StepRequest::eval(ids, targets, BATCH, SEQ));
            assert_eq!(
                out.micro_losses[k].to_bits(),
                alone.loss.to_bits(),
                "shard {k} fused loss must match its standalone request"
            );
            assert_eq!(alone.micro_losses, vec![alone.loss]);
        }
        assert!(out.loss.is_finite());
    }

    #[test]
    fn fused_score_micro_losses_are_bit_identical_to_separate_requests() {
        let shards: Vec<(Vec<u32>, Vec<i32>)> = (0..2).map(|k| sample(710 + k)).collect();
        let mut fused_model = tiny();
        let out = fused_model.execute(
            StepRequest::score(&shards[0].0, &shards[0].1, BATCH, SEQ)
                .micro_batch(&shards[1].0, &shards[1].1),
        );
        assert_eq!(out.micro_losses.len(), 2);
        let mut sum = 0.0f64;
        for (k, (ids, targets)) in shards.iter().enumerate() {
            let mut solo = tiny();
            let alone = solo.execute(StepRequest::score(ids, targets, BATCH, SEQ));
            assert_eq!(
                out.micro_losses[k].to_bits(),
                alone.loss.to_bits(),
                "shard {k}"
            );
            sum += alone.loss as f64;
        }
        assert_eq!(out.loss.to_bits(), (sum as f32).to_bits());
    }

    #[test]
    fn prepare_hook_runs_once_per_shard_in_request_order() {
        let (ids, targets) = sample(720);
        let seen = std::cell::RefCell::new(Vec::new());
        let mut hook = |_: &mut TransformerModel, i: usize| seen.borrow_mut().push(i);
        let mut m = tiny();
        m.execute(
            StepRequest::eval(&ids, &targets, BATCH, SEQ)
                .micro_batch(&ids, &targets)
                .micro_batch(&ids, &targets)
                .on_micro_batch(&mut hook),
        );
        assert_eq!(*seen.borrow(), vec![0, 1, 2]);
    }
}
