//! The Long Exposure fine-tuning engine.
//!
//! Wires the three components together around any PEFT-configured model:
//! offline **calibration** (dense capture passes → exposer targets →
//! predictor training), then **sparse training steps** composed as
//! [`StepRequest`]s: the engine asks a [`SparsityPolicy`] for the step's
//! plan source (inline prediction for Long Exposure, ground-truth capture
//! for the oracle, pre-built plans for the random ablations) and hands the
//! request to [`TransformerModel::execute`]. Every phase is timed so the
//! paper's breakdown experiments (Table I, Fig. 10) fall out of the
//! returned [`StepOutcome`]s. Multi-micro-batch requests accumulate
//! gradients across shards and run the optimizer once — the
//! large-effective-batch scenario that also amortises predictor calls.

use crate::exposer::Exposer;
use crate::policy::{
    DensePolicy, OraclePolicy, PlanRefreshConfig, PlanReuseStats, PredictedPolicy, RandomPolicy,
    RandomTarget, SparsityPolicy, ATTN_MIN_RECALL, MLP_THRESHOLD,
};
use crate::predictor::{pool_blocks, AttnSample, MlpSample};
use lx_model::{
    Activation, CaptureConfig, MicroBatch, Optimizer, PrepareHook, StepOutcome, StepRequest,
    TransformerModel,
};
use lx_sparse::{NeuronBlockSet, PatternPool, PatternSpec};
use lx_tensor::{Tensor, Workspace};
use std::time::{Duration, Instant};

/// Engine hyperparameters. Defaults follow the paper's setup scaled to the
/// sim models (block 32 on paper-sized runs; tests override to smaller).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    pub block_size: usize,
    pub predictor_rank: usize,
    /// Ground-truth importance: an attention block matters when its max
    /// probability reaches this.
    pub attn_prob_threshold: f32,
    pub calib_epochs: usize,
    /// Cross-step plan reuse for the predicted policy (shadowy-sparsity
    /// amortisation). Defaults to every-step prediction;
    /// [`FinetuneEngine::set_plan_refresh`] changes it on a live engine.
    pub plan_refresh: PlanRefreshConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            block_size: 32,
            predictor_rank: 8,
            attn_prob_threshold: 0.05,
            calib_epochs: 150,
            plan_refresh: PlanRefreshConfig::default(),
        }
    }
}

/// Step size of predictor calibration.
const PREDICTOR_LR: f32 = 0.5;
/// Recall weighting of the predictor loss (false-negative cost).
const POS_WEIGHT: f32 = 4.0;
/// Seed of predictor initialisation, calibration noise and the random
/// baseline policies.
const PREDICTOR_SEED: u64 = 0x10e0;
/// Standard deviation of the Gaussian noise added to calibration inputs.
const NOISE_STD: f32 = 0.02;

/// One epoch's augmentation noise: a buffer per attention sample and one per
/// MLP sample, shared by every layer (`train_epoch`'s `noise`).
struct EpochNoise {
    attn: Vec<Vec<f32>>,
    mlp: Vec<Vec<f32>>,
}

/// A pool task running one predictor's epoch, `train`, with `ws` as its
/// buffer pool.
fn train_task<'a, R>(
    span: &'static str,
    layer: usize,
    ws: &'a mut Workspace,
    train: impl FnOnce() -> R + Send + 'a,
) -> Box<dyn FnOnce() + Send + 'a> {
    Box::new(move || {
        let _span = lx_obs::Span::enter(span).cat("engine").layer(layer as u32);
        ws.scope(train);
    })
}

/// A pool task filling `buf` with `len` noise draws from `seed` (sample
/// `si`'s), reusing the buffer's capacity.
fn draw_task<'a>(
    span: &'static str,
    si: usize,
    buf: &'a mut Vec<f32>,
    len: usize,
    seed: u64,
) -> Box<dyn FnOnce() + Send + 'a> {
    Box::new(move || {
        let _span = lx_obs::Span::enter(span).cat("engine").index(si as u64);
        buf.resize(len, 0.0);
        lx_tensor::rng::randn_into(buf, NOISE_STD, seed);
    })
}

/// Predictor quality after calibration, per layer.
#[derive(Debug, Clone, Default)]
pub struct CalibrationReport {
    pub attn_recall: Vec<f32>,
    pub attn_precision: Vec<f32>,
    pub mlp_recall: Vec<f32>,
    pub mlp_precision: Vec<f32>,
}

impl CalibrationReport {
    pub fn mean_mlp_recall(&self) -> f32 {
        mean(&self.mlp_recall)
    }

    pub fn mean_attn_recall(&self) -> f32 {
        mean(&self.attn_recall)
    }
}

fn mean(v: &[f32]) -> f32 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f32>() / v.len() as f32
    }
}

/// Execution mode for a training step (the Fig. 11a arms). Each mode names
/// one of the engine's built-in [`SparsityPolicy`] objects; external
/// policies go through [`FinetuneEngine::train_step_policy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepMode {
    /// Dense baseline (HuggingFace-PEFT stand-in).
    Dense,
    /// Predicted sparsity (Long Exposure).
    Sparse,
    /// Exposer ground truth: a dense capture pass plans each step exactly
    /// (the predictor-quality upper bound; costs an extra dense forward).
    Oracle,
    /// Random attention patterns, dense MLP (ablation arm).
    RandomAttn,
    /// Random MLP neuron blocks, dense attention (ablation arm).
    RandomMlp,
}

/// Per-layer sparsity measurements for the Fig. 9 experiment.
#[derive(Debug, Clone)]
pub struct LayerSparsityReport {
    pub layer: usize,
    /// Sparsity of the uniform union mask relative to causal work.
    pub shadowy_attn: f32,
    /// Sparsity of fixed Longformer / BigBird masks (uniform across heads).
    pub longformer_attn: f32,
    pub bigbird_attn: f32,
    /// Mean sparsity of the head-specific Long Exposure patterns.
    pub longexposure_attn: f32,
    /// Raw union sparsity of MLP activations ("shadowy").
    pub shadowy_mlp: f32,
    /// `(threshold, sparsity)` pairs for the importance filter sweep.
    pub lx_mlp: Vec<(f32, f32)>,
}

pub struct FinetuneEngine {
    pub model: TransformerModel,
    pub config: EngineConfig,
    dense: DensePolicy,
    predicted: PredictedPolicy,
    oracle: OraclePolicy,
    random_attn: RandomPolicy,
    random_mlp: RandomPolicy,
    pub calibrated: bool,
}

/// Resolve a [`StepMode`] to the engine's built-in policy object without
/// borrowing the whole engine (the model is borrowed separately).
macro_rules! policy_for_mode {
    ($self:ident, $mode:expr, $policy:ident => $body:expr) => {{
        match $mode {
            StepMode::Dense => {
                let $policy: &mut dyn SparsityPolicy = &mut $self.dense;
                $body
            }
            StepMode::Sparse => {
                assert!($self.calibrated, "calibrate() before sparse training");
                let $policy: &mut dyn SparsityPolicy = &mut $self.predicted;
                $body
            }
            StepMode::Oracle => {
                let $policy: &mut dyn SparsityPolicy = &mut $self.oracle;
                $body
            }
            StepMode::RandomAttn => {
                let $policy: &mut dyn SparsityPolicy = &mut $self.random_attn;
                $body
            }
            StepMode::RandomMlp => {
                let $policy: &mut dyn SparsityPolicy = &mut $self.random_mlp;
                $body
            }
        }
    }};
}

/// One step through a policy: ask it for the plan source, compose the
/// request (all `batches` as accumulated micro-batches), execute. `opt:
/// None` runs an evaluation pass instead of a training step.
///
/// Plan granularity under accumulation: an inline planner
/// (`PredictedPolicy`) re-plans per shard from each shard's block inputs; a
/// stateless pre-built plan (`RandomPolicy`) is reused across shards — same
/// compute budget either way. A policy that derives a *batch-specific*
/// ground-truth plan from the batch contents (`OraclePolicy::metered`)
/// cannot do either honestly, so accumulation with it is rejected.
fn step_with(
    model: &mut TransformerModel,
    policy: &mut dyn SparsityPolicy,
    batches: &[MicroBatch<'_>],
    batch: usize,
    seq: usize,
    opt: Option<&mut dyn Optimizer>,
    prepare: Option<PrepareHook<'_>>,
) -> StepOutcome {
    assert!(!batches.is_empty(), "at least one micro-batch");
    let metered = policy.metered();
    assert!(
        batches.len() == 1 || !policy.batch_specific(),
        "{}: the plan is ground truth for one specific batch; micro-batch \
         accumulation needs an inline or batch-agnostic plan source \
         (Dense/Sparse/Random)",
        policy.name()
    );
    let t0 = Instant::now();
    let source = policy.source(model, batches[0].ids, batch, seq);
    let setup = if metered {
        t0.elapsed()
    } else {
        Duration::ZERO
    };
    let mut req = match opt {
        Some(o) => StepRequest::train(batches[0].ids, batches[0].targets, batch, seq, o),
        None => StepRequest::eval(batches[0].ids, batches[0].targets, batch, seq),
    }
    .plan_source(source);
    for mb in &batches[1..] {
        req = req.micro_batch(mb.ids, mb.targets);
    }
    if let Some(hook) = prepare {
        req = req.on_micro_batch(hook);
    }
    let mut out = model.execute(req);
    out.predict += setup;
    out
}

impl FinetuneEngine {
    pub fn new(model: TransformerModel, config: EngineConfig) -> Self {
        let mut predicted = PredictedPolicy::new(
            &model.config,
            config.block_size,
            config.predictor_rank,
            PREDICTOR_SEED,
        );
        predicted.set_refresh(config.plan_refresh);
        let oracle = OraclePolicy::new(config.block_size, config.attn_prob_threshold);
        let random_attn =
            RandomPolicy::new(RandomTarget::Attention, config.block_size, PREDICTOR_SEED);
        let random_mlp = RandomPolicy::new(RandomTarget::Mlp, config.block_size, PREDICTOR_SEED);
        FinetuneEngine {
            model,
            config,
            dense: DensePolicy,
            predicted,
            oracle,
            random_attn,
            random_mlp,
            calibrated: false,
        }
    }

    fn mlp_sparsity_applicable(&self) -> bool {
        self.model.config.activation == Activation::Relu
    }

    /// Offline phase: dense capture passes on `batches` (each
    /// `(ids, batch, seq)`), exposer targets, predictor training.
    ///
    /// Training runs epoch-major, one pool launch per epoch: each launch
    /// trains every (layer, predictor) pair as its own task on the epoch's
    /// augmentation noise while its other tasks draw the next epoch's.
    /// Layers are independent and their sample shapes agree, so each layer
    /// sees exactly the updates, in exactly the order, of a sequential
    /// layer-by-layer loop drawing its own copy of the same noise, whatever
    /// the pool width.
    pub fn calibrate(&mut self, batches: &[(Vec<u32>, usize, usize)]) -> CalibrationReport {
        let _span = lx_obs::Span::enter("engine.calibrate").cat("engine");
        let (attn_samples, mlp_samples) = {
            let _span = lx_obs::Span::enter("engine.calibrate.capture").cat("engine");
            self.calibration_samples(batches)
        };
        {
            let _span = lx_obs::Span::enter("engine.calibrate.train").cat("engine");
            self.train_predictors(&attn_samples, &mlp_samples);
        }
        let _span = lx_obs::Span::enter("engine.calibrate.evaluate").cat("engine");
        let mut report = CalibrationReport::default();
        for (l, (attn, mlp)) in attn_samples.iter().zip(&mlp_samples).enumerate() {
            if !attn.is_empty() {
                let (r, p) = self.predicted.attn[l].evaluate(attn);
                report.attn_recall.push(r);
                report.attn_precision.push(p);
            }
            if !mlp.is_empty() {
                let (r, p) = self.predicted.mlp[l].evaluate(mlp);
                report.mlp_recall.push(r);
                report.mlp_precision.push(p);
            }
        }
        self.calibrated = true;
        // The predictors just changed under the policy; a cached plan from
        // the pre-calibration predictors must not be replayed.
        self.predicted.invalidate_plan_cache();
        report
    }

    /// Calibration's train phase: `calib_epochs` epochs, one pool launch
    /// each. The launch of epoch `e` holds its 2·L `train_epoch` tasks, one
    /// per (layer, attention | MLP predictor), reading one half of a double
    /// buffer of noise, plus one task per sample drawing epoch `e+1`'s noise
    /// into the other half; a draw-only launch fills epoch 0's half first.
    ///
    /// A task runs on one thread from start to end, so its GEMMs take the
    /// sequential path (a pool task is a worker to
    /// `lx_kernels::sequential_mode`) and each predictor's updates keep
    /// their order: the result does not depend on the pool width. Every
    /// training task recycles its temporaries through a [`Workspace`] of its
    /// own that lives for the whole phase, and the noise buffers keep their
    /// capacity, so epochs after the first allocate nothing.
    fn train_predictors(
        &mut self,
        attn_samples: &[Vec<AttnSample>],
        mlp_samples: &[Vec<MlpSample>],
    ) {
        // Every layer's samples have layer 0's shapes.
        let attn_lens = attn_samples.first().into_iter().flatten();
        let attn_lens: Vec<usize> = attn_lens.map(|s| s.pooled.len()).collect();
        let mlp_lens = mlp_samples.first().into_iter().flatten();
        let mlp_lens: Vec<usize> = mlp_lens.map(|s| s.x.len()).collect();
        let empty_noise = || EpochNoise {
            attn: vec![Vec::new(); attn_lens.len()],
            mlp: vec![Vec::new(); mlp_lens.len()],
        };
        let mut noise = [empty_noise(), empty_noise()];
        let layers = self.predicted.attn.len();
        let mut workspaces: Vec<Workspace> = (0..2 * layers).map(|_| Workspace::new()).collect();
        let epochs = self.config.calib_epochs as u64;
        // Launch `k` trains epoch `k − 1` and draws epoch `k`.
        for launch in 0..=epochs {
            let [even, odd] = &mut noise;
            let (drawn, next) = if launch % 2 == 0 {
                (&*odd, even)
            } else {
                (&*even, odd)
            };
            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            if launch > 0 {
                // The heavier MLP trainings go first.
                let (attn_ws, mlp_ws) = workspaces.split_at_mut(layers);
                let mlp = self.predicted.mlp.iter_mut().zip(mlp_samples);
                for (l, ((pred, samples), ws)) in mlp.zip(mlp_ws).enumerate() {
                    let train =
                        move || pred.train_epoch(samples, &drawn.mlp, PREDICTOR_LR, POS_WEIGHT);
                    tasks.push(train_task("engine.calibrate.train.mlp", l, ws, train));
                }
                let attn = self.predicted.attn.iter_mut().zip(attn_samples);
                for (l, ((pred, samples), ws)) in attn.zip(attn_ws).enumerate() {
                    let train =
                        move || pred.train_epoch(samples, &drawn.attn, PREDICTOR_LR, POS_WEIGHT);
                    tasks.push(train_task("engine.calibrate.train.attn", l, ws, train));
                }
            }
            if launch < epochs {
                // These seeds repeat across (epoch, sample) pairs: attention
                // sample si+1 of epoch e draws what sample si draws in epoch
                // e+1, and an MLP sample repeats the draw of the sample 31
                // epochs away. Changing them moves every calibrated weight
                // (and the benchmark's final loss), so they stay as they are.
                let e = launch;
                for (si, (buf, &len)) in next.mlp.iter_mut().zip(&mlp_lens).enumerate() {
                    let seed = PREDICTOR_SEED + 1000 + e + 31 * si as u64;
                    let span = "engine.calibrate.train.noise.mlp";
                    tasks.push(draw_task(span, si, buf, len, seed));
                }
                for (si, (buf, &len)) in next.attn.iter_mut().zip(&attn_lens).enumerate() {
                    let seed = PREDICTOR_SEED + e + si as u64;
                    let span = "engine.calibrate.train.noise.attn";
                    tasks.push(draw_task(span, si, buf, len, seed));
                }
            }
            lx_tensor::pool().run_scoped(tasks);
        }
    }

    /// Dense capture passes on `batches` and the exposer's targets: each
    /// layer's attention and MLP predictor samples, one per batch element.
    fn calibration_samples(
        &mut self,
        batches: &[(Vec<u32>, usize, usize)],
    ) -> (Vec<Vec<AttnSample>>, Vec<Vec<MlpSample>>) {
        let exposer = Exposer::new(
            self.config.block_size,
            self.config.attn_prob_threshold,
            MLP_THRESHOLD,
        );
        let n_layers = self.model.config.n_layers;
        let heads = self.model.config.n_heads;
        let d_ff = self.model.config.d_ff;
        let blk = self.config.block_size;
        let mlp_on = self.mlp_sparsity_applicable();
        let mut attn_samples: Vec<Vec<AttnSample>> = (0..n_layers).map(|_| Vec::new()).collect();
        let mut mlp_samples: Vec<Vec<MlpSample>> = (0..n_layers).map(|_| Vec::new()).collect();
        for (ids, batch, seq) in batches {
            let (batch, seq) = (*batch, *seq);
            let eff = self.model.effective_seq(seq);
            assert_eq!(eff % blk, 0, "effective seq {eff} must be block-aligned");
            let caps = self
                .model
                .execute(StepRequest::capture(
                    ids,
                    batch,
                    seq,
                    CaptureConfig {
                        attn: true,
                        mlp: mlp_on,
                    },
                ))
                .captures
                .expect("capture mode records captures");
            for (l, cap) in caps.iter().enumerate() {
                let block_input = cap.block_input.as_ref().expect("capture input");
                let pooled = pool_blocks(block_input, batch, eff, blk);
                assert_eq!(pooled.len(), batch, "one pooled input per element");
                if let Some(probs) = &cap.attn_probs {
                    // Each batch element's rows of the capture, read in place.
                    assert_eq!(probs.shape(), [batch * heads * eff, eff], "probs shape");
                    let elements = probs.as_slice().chunks_exact(heads * eff * eff);
                    for (pooled_b, probs_b) in pooled.into_iter().zip(elements) {
                        attn_samples[l].push(AttnSample {
                            pooled: pooled_b,
                            targets: exposer.attention_head_masks(probs_b, 1, heads, eff),
                        });
                    }
                }
                if let Some(acts) = &cap.mlp_activations {
                    assert_eq!(acts.shape(), [batch * eff, d_ff], "activations shape");
                    let d = block_input.cols();
                    let xs = block_input.as_slice().chunks_exact(eff * d);
                    for (x_b, acts_b) in xs.zip(acts.as_slice().chunks_exact(eff * d_ff)) {
                        let x = Tensor::from_vec(x_b.to_vec(), &[eff, d]);
                        let reduced =
                            exposer.mlp_filter(&exposer.mlp_block_importance(acts_b, d_ff));
                        mlp_samples[l].push(MlpSample { x, reduced });
                    }
                }
            }
        }
        (attn_samples, mlp_samples)
    }

    /// One timed training step in the given mode.
    pub fn train_step_mode(
        &mut self,
        ids: &[u32],
        targets: &[i32],
        batch: usize,
        seq: usize,
        opt: &mut dyn Optimizer,
        mode: StepMode,
    ) -> StepOutcome {
        self.train_step_accum(&[MicroBatch { ids, targets }], batch, seq, opt, mode)
    }

    /// One timed training step accumulating gradients over `batches`
    /// micro-batches (each `(batch, seq)`-shaped): every shard runs
    /// forward/backward under the mode's plan source, the optimizer steps
    /// once. With an inline planner (`Sparse`) this re-plans per shard — the
    /// predictor cost is amortised over the larger effective batch; the
    /// random ablations reuse one plan across shards. `Oracle` is rejected
    /// for multi-shard steps (its plan is ground truth for one batch).
    pub fn train_step_accum(
        &mut self,
        batches: &[MicroBatch<'_>],
        batch: usize,
        seq: usize,
        opt: &mut dyn Optimizer,
        mode: StepMode,
    ) -> StepOutcome {
        policy_for_mode!(self, mode, policy => {
            step_with(&mut self.model, policy, batches, batch, seq, Some(opt), None)
        })
    }

    /// One step through an *external* [`SparsityPolicy`] — the hook the
    /// predictor ablations use to compare plan sources under identical
    /// engine plumbing.
    pub fn train_step_policy(
        &mut self,
        batches: &[MicroBatch<'_>],
        batch: usize,
        seq: usize,
        opt: &mut dyn Optimizer,
        policy: &mut dyn SparsityPolicy,
    ) -> StepOutcome {
        step_with(
            &mut self.model,
            policy,
            batches,
            batch,
            seq,
            Some(opt),
            None,
        )
    }

    /// Evaluation-only pass in the given mode: forward and loss under the
    /// mode's plan source, no gradients, no optimizer.
    pub fn eval_step(
        &mut self,
        ids: &[u32],
        targets: &[i32],
        batch: usize,
        seq: usize,
        mode: StepMode,
    ) -> StepOutcome {
        policy_for_mode!(self, mode, policy => {
            step_with(
                &mut self.model,
                policy,
                &[MicroBatch { ids, targets }],
                batch,
                seq,
                None,
                None,
            )
        })
    }

    /// Fused evaluation pass over several independent micro-batches
    /// (cross-tenant batch fusion): every shard runs a stateless Eval
    /// forward under the mode's plan source, `prepare` is invoked with the
    /// model and shard index before each shard (the caller swaps tenant
    /// adapters there), and [`StepOutcome::micro_losses`] carries each
    /// shard's raw loss — bit-identical to running the shards as separate
    /// [`Self::eval_step`] calls. Batch-specific policies (`Oracle`) are
    /// rejected, same as accumulation.
    pub fn eval_step_fused(
        &mut self,
        batches: &[MicroBatch<'_>],
        batch: usize,
        seq: usize,
        mode: StepMode,
        prepare: Option<PrepareHook<'_>>,
    ) -> StepOutcome {
        policy_for_mode!(self, mode, policy => {
            step_with(&mut self.model, policy, batches, batch, seq, None, prepare)
        })
    }

    /// Long Exposure step (predicted sparsity).
    pub fn train_step(
        &mut self,
        ids: &[u32],
        targets: &[i32],
        batch: usize,
        seq: usize,
        opt: &mut dyn Optimizer,
    ) -> StepOutcome {
        self.train_step_mode(ids, targets, batch, seq, opt, StepMode::Sparse)
    }

    /// Dense baseline step.
    pub fn train_step_dense(
        &mut self,
        ids: &[u32],
        targets: &[i32],
        batch: usize,
        seq: usize,
        opt: &mut dyn Optimizer,
    ) -> StepOutcome {
        self.train_step_mode(ids, targets, batch, seq, opt, StepMode::Dense)
    }

    /// Serialise the calibrated predictors (see [`crate::checkpoint`]).
    pub fn export_predictors(&self) -> bytes::Bytes {
        let cfg = &self.model.config;
        let meta = crate::checkpoint::CheckpointMeta {
            d_model: cfg.d_model,
            n_heads: cfg.n_heads,
            rank: self.config.predictor_rank,
            n_layers: cfg.n_layers,
            mlp_blocks: cfg.d_ff / self.config.block_size,
            block_size: self.config.block_size,
        };
        crate::checkpoint::save_predictors(&meta, &self.predicted.attn, &self.predicted.mlp)
    }

    /// Restore predictors from a checkpoint; marks the engine calibrated.
    pub fn import_predictors(&mut self, data: bytes::Bytes) -> Result<(), String> {
        let (meta, attn, mlp) = crate::checkpoint::load_predictors(data)?;
        let cfg = &self.model.config;
        if meta.d_model != cfg.d_model
            || meta.n_heads != cfg.n_heads
            || meta.n_layers != cfg.n_layers
            || meta.block_size != self.config.block_size
            || meta.mlp_blocks * meta.block_size != cfg.d_ff
        {
            return Err(format!("checkpoint shape mismatch: {meta:?}"));
        }
        self.predicted.attn = attn;
        self.predicted.mlp = mlp;
        self.predicted.invalidate_plan_cache();
        self.calibrated = true;
        Ok(())
    }

    /// Reconfigure the predicted policy's cross-step plan reuse (resets any
    /// cached plan).
    pub fn set_plan_refresh(&mut self, refresh: PlanRefreshConfig) {
        self.config.plan_refresh = refresh;
        self.predicted.set_refresh(refresh);
    }

    /// Plan-reuse counters of the predicted policy (predicted vs. replayed
    /// steps, last inter-prediction overlap, drift state).
    pub fn plan_reuse_stats(&self) -> PlanReuseStats {
        self.predicted.plan_reuse_stats()
    }

    /// Drop the predicted policy's cached plan. Callers that change what the
    /// model computes between steps (e.g. `lx-serve` attaching a different
    /// tenant's adapter) must invalidate so a plan predicted in the old
    /// context is never replayed into the new one.
    pub fn invalidate_plan_cache(&mut self) {
        self.predicted.invalidate_plan_cache();
    }

    /// Predicted per-head attention masks for a layer given its block input
    /// (exposed for analysis/visualisation — Fig. 11b).
    pub fn predict_attention_masks(
        &self,
        layer: usize,
        x: &Tensor,
        batch: usize,
        seq: usize,
    ) -> Vec<lx_sparse::BlockMask> {
        self.predicted.attn[layer].predict_masks(x, batch, seq, self.config.block_size)
    }

    /// Predicted MLP neuron-block set for a layer given its block input.
    pub fn predict_mlp_set(&self, layer: usize, x: &Tensor) -> NeuronBlockSet {
        self.predicted.mlp[layer].predict(x)
    }

    /// Fig. 9 per-layer sparsity analysis on one capture batch.
    pub fn sparsity_report(
        &mut self,
        ids: &[u32],
        batch: usize,
        seq: usize,
        mlp_thresholds: &[f32],
    ) -> Vec<LayerSparsityReport> {
        let blk = self.config.block_size;
        let eff = self.model.effective_seq(seq);
        assert_eq!(eff % blk, 0);
        let n = eff / blk;
        let pool = PatternPool::default_pool(blk, &[n]);
        let heads = self.model.config.n_heads;
        let mlp_on = self.model.config.activation == Activation::Relu;
        let caps = self
            .model
            .execute(StepRequest::capture(
                ids,
                batch,
                seq,
                CaptureConfig {
                    attn: true,
                    mlp: mlp_on,
                },
            ))
            .captures
            .expect("capture mode records captures");
        let exposer = Exposer::new(blk, self.config.attn_prob_threshold, MLP_THRESHOLD);
        let causal_cost = PatternSpec::Causal.cost(n) as f32;
        let longformer = 1.0 - PatternSpec::LocalGlobal { w: 4, g: 2 }.cost(n) as f32 / causal_cost;
        let bigbird = 1.0
            - PatternSpec::BigBird {
                w: 2,
                g: 1,
                r: 2,
                seed: 7,
            }
            .cost(n) as f32
                / causal_cost;
        caps.iter()
            .enumerate()
            .map(|(l, cap)| {
                let probs = cap.attn_probs.as_ref().expect("attn capture");
                let head_masks = exposer.attention_head_masks(probs.as_slice(), batch, heads, eff);
                let union = Exposer::attention_union_mask(&head_masks);
                let shadowy_attn = Exposer::causal_relative_sparsity(&union);
                // Long Exposure: head-specific pooled patterns.
                let lx_attn = {
                    let mut total_cost = 0.0;
                    for m in &head_masks {
                        let (spec, _) = pool.best_match(m, ATTN_MIN_RECALL);
                        total_cost += spec.cost(n) as f32;
                    }
                    1.0 - total_cost / (causal_cost * heads as f32)
                };
                let (shadowy_mlp, lx_mlp) = if let Some(acts) = &cap.mlp_activations {
                    let imp = exposer.mlp_block_importance(acts.as_slice(), acts.cols());
                    let sweep = mlp_thresholds
                        .iter()
                        .map(|&th| {
                            let e = Exposer::new(blk, self.config.attn_prob_threshold, th);
                            (th, e.mlp_filter(&imp).sparsity())
                        })
                        .collect();
                    (Exposer::mlp_union_sparsity(acts), sweep)
                } else {
                    (0.0, Vec::new())
                };
                LayerSparsityReport {
                    layer: l,
                    shadowy_attn,
                    longformer_attn: longformer,
                    bigbird_attn: bigbird,
                    longexposure_attn: lx_attn,
                    shadowy_mlp,
                    lx_mlp,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::draw_noise;
    use lx_model::{prompt_aware_targets, ModelConfig, Sgd};
    use lx_peft::PeftMethod;

    fn small_engine() -> FinetuneEngine {
        let mut cfg = ModelConfig::test_tiny();
        cfg.d_ff = 32;
        let mut model = TransformerModel::new(cfg, 5);
        PeftMethod::lora_default().apply(&mut model, 6);
        FinetuneEngine::new(
            model,
            EngineConfig {
                block_size: 4,
                predictor_rank: 4,
                calib_epochs: 80,
                ..EngineConfig::default()
            },
        )
    }

    fn batch(seed: u64) -> (Vec<u32>, usize, usize) {
        let ids: Vec<u32> = lx_tensor::rng::uniform_vec(2 * 16, 0.0, 64.0, seed)
            .into_iter()
            .map(|v| v as u32)
            .collect();
        (ids, 2, 16)
    }

    #[test]
    fn calibration_produces_reasonable_recall() {
        let mut e = small_engine();
        let report = e.calibrate(&[batch(1), batch(2)]);
        assert!(e.calibrated);
        assert_eq!(report.attn_recall.len(), 2);
        assert_eq!(report.mlp_recall.len(), 2);
        // Attention targets on a tiny *random* model are mostly noise; the
        // bar here is "clearly better than chance". Structured-data quality
        // is exercised by fig11_predictor and the quickstart example.
        assert!(
            report.mean_attn_recall() > 0.55,
            "attn recall {}",
            report.mean_attn_recall()
        );
        assert!(
            report.mean_mlp_recall() > 0.7,
            "mlp recall {}",
            report.mean_mlp_recall()
        );
    }

    /// Pooled == sequential: `calibrate` trains each (layer, predictor) as
    /// a pool task, one launch per epoch, with the next epoch's noise drawn
    /// in the same launch; the oracle runs on this thread, layer by layer.
    /// CI runs it at 1, 2 and 4 pool threads on every ISA arm.
    #[test]
    fn epoch_major_calibration_matches_the_layer_major_loop_bitwise() {
        let batches = [batch(1), batch(2)];
        let mut epoch_major = small_engine();
        epoch_major.calibrate(&batches);
        // The sequential loop calibration ran before: layer by layer, each
        // layer drawing its own copy of every epoch's noise.
        let mut layer_major = small_engine();
        let (attn, mlp) = layer_major.calibration_samples(&batches);
        let c = layer_major.config.clone();
        for l in 0..layer_major.model.config.n_layers {
            for e in 0..c.calib_epochs as u64 {
                let lens = attn[l].iter().map(|s| s.pooled.len());
                let noise = draw_noise(lens, NOISE_STD, |si| PREDICTOR_SEED + e + si as u64);
                let pred = &mut layer_major.predicted.attn[l];
                pred.train_epoch(&attn[l], &noise, PREDICTOR_LR, POS_WEIGHT);
                let lens = mlp[l].iter().map(|s| s.x.len());
                let seed = |si: usize| PREDICTOR_SEED + 1000 + e + 31 * si as u64;
                let noise = draw_noise(lens, NOISE_STD, seed);
                let pred = &mut layer_major.predicted.mlp[l];
                pred.train_epoch(&mlp[l], &noise, PREDICTOR_LR, POS_WEIGHT);
            }
        }
        assert!(!attn[0].is_empty() && !mlp[0].is_empty());
        assert_eq!(
            epoch_major.export_predictors(),
            layer_major.export_predictors()
        );
    }

    #[test]
    fn sparse_step_trains_and_reports_density() {
        let mut e = small_engine();
        e.calibrate(&[batch(1)]);
        let (ids, b, s) = batch(3);
        let targets = prompt_aware_targets(&ids, b, s, 0);
        let mut opt = Sgd::new(0.05);
        let first = e.train_step(&ids, &targets, b, s, &mut opt);
        assert!(first.attn_density.unwrap() <= 1.0);
        assert!(first.mlp_density.unwrap() <= 1.0);
        assert!(first.loss.is_finite());
        let mut last = first.loss;
        for _ in 0..8 {
            last = e.train_step(&ids, &targets, b, s, &mut opt).loss;
        }
        assert!(
            last < first.loss,
            "sparse training must reduce loss: {} -> {last}",
            first.loss
        );
    }

    #[test]
    fn dense_step_has_no_predict_time() {
        let mut e = small_engine();
        let (ids, b, s) = batch(4);
        let targets = prompt_aware_targets(&ids, b, s, 0);
        let mut opt = Sgd::new(0.01);
        let stats = e.train_step_dense(&ids, &targets, b, s, &mut opt);
        assert_eq!(stats.predict, Duration::ZERO);
        assert!(stats.attn_density.is_none());
    }

    #[test]
    #[should_panic(expected = "calibrate")]
    fn sparse_step_requires_calibration() {
        let mut e = small_engine();
        let (ids, b, s) = batch(5);
        let targets = prompt_aware_targets(&ids, b, s, 0);
        let mut opt = Sgd::new(0.01);
        e.train_step(&ids, &targets, b, s, &mut opt);
    }

    #[test]
    fn random_modes_run_and_differ_from_sparse() {
        let mut e = small_engine();
        e.calibrate(&[batch(1)]);
        let (ids, b, s) = batch(6);
        let targets = prompt_aware_targets(&ids, b, s, 0);
        let mut opt = Sgd::new(0.01);
        let ra = e.train_step_mode(&ids, &targets, b, s, &mut opt, StepMode::RandomAttn);
        assert!(ra.attn_density.is_some());
        assert!(ra.mlp_density.is_none());
        let rm = e.train_step_mode(&ids, &targets, b, s, &mut opt, StepMode::RandomMlp);
        assert!(rm.attn_density.is_none());
        assert!((rm.mlp_density.unwrap() - 0.5).abs() < 0.2);
    }

    #[test]
    fn sparsity_report_structure() {
        let mut e = small_engine();
        let (ids, b, s) = batch(7);
        let reports = e.sparsity_report(&ids, b, s, &[0.01, 0.05]);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.shadowy_attn >= 0.0 && r.shadowy_attn <= 1.0);
            assert!(r.longexposure_attn >= 0.0);
            assert_eq!(r.lx_mlp.len(), 2);
            // Higher threshold -> at least as sparse.
            assert!(r.lx_mlp[1].1 >= r.lx_mlp[0].1 - 1e-6);
            // Head-specific masks expose at least as much sparsity as the
            // union within matching tolerance of pattern pool quantisation.
            assert!(r.longexposure_attn + 0.35 >= r.shadowy_attn);
        }
    }

    #[test]
    fn predictor_checkpoint_roundtrip_through_engine() {
        let mut e = small_engine();
        e.calibrate(&[batch(1)]);
        let blob = e.export_predictors();
        // A fresh engine with the same shapes imports and runs sparse
        // without recalibrating.
        let mut e2 = small_engine();
        assert!(!e2.calibrated);
        e2.import_predictors(blob).expect("import");
        assert!(e2.calibrated);
        let (ids, b, s) = batch(11);
        let targets = prompt_aware_targets(&ids, b, s, 0);
        let mut opt = Sgd::new(0.01);
        let s1 = e.train_step(&ids, &targets, b, s, &mut opt);
        let mut opt2 = Sgd::new(0.01);
        let s2 = e2.train_step(&ids, &targets, b, s, &mut opt2);
        // Same predictors + same weights -> identical densities.
        assert_eq!(s1.attn_density, s2.attn_density);
        assert_eq!(s1.mlp_density, s2.mlp_density);
    }

    #[test]
    fn import_rejects_mismatched_shapes() {
        let mut e = small_engine();
        e.calibrate(&[batch(1)]);
        let blob = e.export_predictors();
        let mut other = {
            let mut cfg = ModelConfig::test_tiny();
            cfg.d_model = 32;
            cfg.d_ff = 32;
            let model = TransformerModel::new(cfg, 5);
            FinetuneEngine::new(
                model,
                EngineConfig {
                    block_size: 4,
                    ..EngineConfig::default()
                },
            )
        };
        assert!(other.import_predictors(blob).is_err());
    }

    #[test]
    fn oracle_mode_plans_without_calibration() {
        // Ground truth needs no predictors; its capture pass is metered as
        // prediction overhead.
        let mut e = small_engine();
        let (ids, b, s) = batch(12);
        let targets = prompt_aware_targets(&ids, b, s, 0);
        let mut opt = Sgd::new(0.01);
        let stats = e.train_step_mode(&ids, &targets, b, s, &mut opt, StepMode::Oracle);
        assert!(stats.attn_density.unwrap() <= 1.0);
        assert!(stats.mlp_density.unwrap() <= 1.0);
        assert!(stats.predict > Duration::ZERO, "oracle capture is metered");
        assert!(stats.loss.is_finite());
    }

    #[test]
    fn accumulated_step_steps_the_optimizer_once() {
        let mut e = small_engine();
        e.calibrate(&[batch(1)]);
        let (ids_a, b, s) = batch(13);
        let (ids_b, _, _) = batch(14);
        let t_a = prompt_aware_targets(&ids_a, b, s, 0);
        let t_b = prompt_aware_targets(&ids_b, b, s, 0);
        let mut opt = lx_model::Adam::new(0.01);
        let micros = [
            lx_model::MicroBatch {
                ids: &ids_a,
                targets: &t_a,
            },
            lx_model::MicroBatch {
                ids: &ids_b,
                targets: &t_b,
            },
        ];
        let stats = e.train_step_accum(&micros, b, s, &mut opt, StepMode::Sparse);
        assert_eq!(stats.micro_batches, 2);
        assert!(stats.loss.is_finite());
        // Adam's step counter advances once per optimizer step, not per
        // micro-batch: a second accumulated step lands at t == 2.
        e.train_step_accum(&micros, b, s, &mut opt, StepMode::Sparse);
        assert_eq!(opt.step_count(), 2);
    }

    #[test]
    #[should_panic(expected = "ground truth for one specific batch")]
    fn oracle_rejects_micro_batch_accumulation() {
        let mut e = small_engine();
        let (ids, b, s) = batch(16);
        let targets = prompt_aware_targets(&ids, b, s, 0);
        let micros = [
            lx_model::MicroBatch {
                ids: &ids,
                targets: &targets,
            },
            lx_model::MicroBatch {
                ids: &ids,
                targets: &targets,
            },
        ];
        let mut opt = Sgd::new(0.01);
        e.train_step_accum(&micros, b, s, &mut opt, StepMode::Oracle);
    }

    #[test]
    fn fused_eval_matches_separate_eval_steps_bit_identically() {
        let mut e = small_engine();
        let (ids_a, b, s) = batch(20);
        let (ids_b, _, _) = batch(21);
        let t_a = prompt_aware_targets(&ids_a, b, s, 0);
        let t_b = prompt_aware_targets(&ids_b, b, s, 0);
        let micros = [
            lx_model::MicroBatch {
                ids: &ids_a,
                targets: &t_a,
            },
            lx_model::MicroBatch {
                ids: &ids_b,
                targets: &t_b,
            },
        ];
        let calls = std::cell::RefCell::new(Vec::new());
        let mut hook = |_: &mut TransformerModel, i: usize| calls.borrow_mut().push(i);
        let fused = e.eval_step_fused(&micros, b, s, StepMode::Dense, Some(&mut hook));
        assert_eq!(*calls.borrow(), vec![0, 1], "hook fires once per shard");
        assert_eq!(fused.micro_batches, 2);
        let solo_a = e.eval_step(&ids_a, &t_a, b, s, StepMode::Dense);
        let solo_b = e.eval_step(&ids_b, &t_b, b, s, StepMode::Dense);
        assert_eq!(fused.micro_losses[0].to_bits(), solo_a.loss.to_bits());
        assert_eq!(fused.micro_losses[1].to_bits(), solo_b.loss.to_bits());
    }

    #[test]
    fn eval_step_leaves_parameters_unchanged() {
        let mut e = small_engine();
        e.calibrate(&[batch(1)]);
        let (ids, b, s) = batch(15);
        let targets = prompt_aware_targets(&ids, b, s, 0);
        let mut before = Vec::new();
        e.model.for_each_param(&mut |p| {
            if p.trainable {
                before.push(p.value.as_slice().to_vec());
            }
        });
        let stats = e.eval_step(&ids, &targets, b, s, StepMode::Sparse);
        assert!(stats.loss.is_finite());
        assert!(stats.mlp_density.is_some(), "sparse eval uses the plan");
        let mut after = Vec::new();
        e.model.for_each_param(&mut |p| {
            if p.trainable {
                after.push(p.value.as_slice().to_vec());
            }
        });
        assert_eq!(before, after, "eval must not update parameters");
    }

    #[test]
    fn gelu_model_skips_mlp_sparsity() {
        let mut cfg = ModelConfig::test_tiny();
        cfg.activation = Activation::Gelu;
        let model = TransformerModel::new(cfg, 8);
        let mut e = FinetuneEngine::new(
            model,
            EngineConfig {
                block_size: 4,
                calib_epochs: 5,
                ..EngineConfig::default()
            },
        );
        let (ids, b, s) = batch(9);
        e.calibrate(&[(ids.clone(), b, s)]);
        let targets = prompt_aware_targets(&ids, b, s, 0);
        let mut opt = Sgd::new(0.01);
        let stats = e.train_step(&ids, &targets, b, s, &mut opt);
        assert!(stats.mlp_density.is_none(), "GeLU model must run MLP dense");
        assert!(stats.attn_density.is_some());
    }
}
