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

use crate::exposer::{Exposer, LayerExposure};
use crate::policy::{
    DensePolicy, OraclePolicy, PlanRefreshConfig, PlanReuseStats, PredictedPolicy, RandomPolicy,
    RandomTarget, SparsityPolicy, ATTN_MIN_RECALL, MLP_THRESHOLD,
};
use crate::predictor::{noise_seed, pool_blocks, AttnSample, MlpSample, NoiseKind};
use lx_model::{MicroBatch, Optimizer, PrepareHook, StepOutcome, StepRequest, TransformerModel};
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
/// Standard deviation of the noise added to calibration inputs.
const NOISE_STD: f32 = 0.02;

/// Seed of calibration's noise stream for sample `si` of the `kind`
/// predictors in epoch `epoch`: one distinct stream per triple.
fn calib_noise_seed(kind: NoiseKind, epoch: u64, si: usize) -> u64 {
    noise_seed(PREDICTOR_SEED, kind, epoch, si)
}

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
        lx_tensor::rng::irwin_hall_into(buf, NOISE_STD, seed);
    })
}

/// Predictor quality after calibration, per layer, and how long its two
/// heavy phases took.
#[derive(Debug, Clone, Default)]
pub struct CalibrationReport {
    pub attn_recall: Vec<f32>,
    pub attn_precision: Vec<f32>,
    pub mlp_recall: Vec<f32>,
    pub mlp_precision: Vec<f32>,
    /// Wall time of the dense capture passes and the exposer's targets.
    pub capture: Duration,
    /// Wall time of predictor training (every epoch of every layer).
    pub train: Duration,
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
/// one of the engine's built-in [`SparsityPolicy`] objects.
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
        assert!(!batches.is_empty(), "calibrate needs at least one batch");
        let _span = lx_obs::Span::enter("engine.calibrate").cat("engine");
        let t = Instant::now();
        let (attn_samples, mlp_samples) = {
            let _span = lx_obs::Span::enter("engine.calibrate.capture").cat("engine");
            self.calibration_samples(batches)
        };
        let capture = t.elapsed();
        let t = Instant::now();
        {
            let _span = lx_obs::Span::enter("engine.calibrate.train").cat("engine");
            self.train_predictors(&attn_samples, &mlp_samples);
        }
        let train = t.elapsed();
        let _span = lx_obs::Span::enter("engine.calibrate.evaluate").cat("engine");
        let mut report = CalibrationReport {
            capture,
            train,
            ..CalibrationReport::default()
        };
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
                let e = launch;
                for (si, (buf, &len)) in next.mlp.iter_mut().zip(&mlp_lens).enumerate() {
                    let seed = calib_noise_seed(NoiseKind::Mlp, e, si);
                    let span = "engine.calibrate.train.noise.mlp";
                    tasks.push(draw_task(span, si, buf, len, seed));
                }
                for (si, (buf, &len)) in next.attn.iter_mut().zip(&attn_lens).enumerate() {
                    let seed = calib_noise_seed(NoiseKind::Attn, e, si);
                    let span = "engine.calibrate.train.noise.attn";
                    tasks.push(draw_task(span, si, buf, len, seed));
                }
            }
            lx_tensor::pool().run_scoped(tasks);
        }
    }

    /// The exposer of the engine's ground truth: its block size and
    /// attention threshold, the MLP importance filter of the predictors.
    pub fn exposer(&self) -> Exposer {
        Exposer::new(
            self.config.block_size,
            self.config.attn_prob_threshold,
            MLP_THRESHOLD,
        )
    }

    /// Dense capture passes on `batches` and the exposer's targets: each
    /// layer's attention and MLP predictor samples, one per batch element.
    fn calibration_samples(
        &mut self,
        batches: &[(Vec<u32>, usize, usize)],
    ) -> (Vec<Vec<AttnSample>>, Vec<Vec<MlpSample>>) {
        let exposer = self.exposer();
        let n_layers = self.model.config.n_layers;
        let blk = self.config.block_size;
        let mut attn_samples: Vec<Vec<AttnSample>> = (0..n_layers).map(|_| Vec::new()).collect();
        let mut mlp_samples: Vec<Vec<MlpSample>> = (0..n_layers).map(|_| Vec::new()).collect();
        for (ids, batch, seq) in batches {
            let (batch, seq) = (*batch, *seq);
            let eff = self.model.effective_seq(seq);
            let layers = exposer.expose(&mut self.model, ids, batch, seq);
            for (l, layer) in layers.into_iter().enumerate() {
                let x = &layer.block_input;
                let pooled = pool_blocks(x, batch, eff, blk);
                for (pooled, targets) in pooled.into_iter().zip(layer.head_masks) {
                    attn_samples[l].push(AttnSample { pooled, targets });
                }
                let xs = x.as_slice().chunks_exact(eff * x.cols());
                for (x_b, imp) in xs.zip(&layer.mlp_importance) {
                    mlp_samples[l].push(MlpSample {
                        x: Tensor::from_vec(x_b.to_vec(), &[eff, x.cols()]),
                        reduced: exposer.mlp_filter(imp),
                    });
                }
            }
        }
        (attn_samples, mlp_samples)
    }

    /// The model and the built-in policy `mode` names, as disjoint borrows
    /// of the engine's fields.
    fn model_and_policy(
        &mut self,
        mode: StepMode,
    ) -> (&mut TransformerModel, &mut dyn SparsityPolicy) {
        let policy: &mut dyn SparsityPolicy = match mode {
            StepMode::Dense => &mut self.dense,
            StepMode::Sparse => {
                assert!(self.calibrated, "calibrate() before sparse training");
                &mut self.predicted
            }
            StepMode::Oracle => &mut self.oracle,
            StepMode::RandomAttn => &mut self.random_attn,
            StepMode::RandomMlp => &mut self.random_mlp,
        };
        (&mut self.model, policy)
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
        let (model, policy) = self.model_and_policy(mode);
        step_with(model, policy, batches, batch, seq, Some(opt), None)
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
        let (model, policy) = self.model_and_policy(mode);
        let batches = [MicroBatch { ids, targets }];
        step_with(model, policy, &batches, batch, seq, None, None)
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
        let (model, policy) = self.model_and_policy(mode);
        step_with(model, policy, batches, batch, seq, None, prepare)
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

    /// Fig. 9 per-layer sparsity analysis of one exposed batch (see
    /// [`Self::exposer`]): the batch's head masks against fixed patterns and
    /// the head-specific pool patterns, and its MLP importance filtered at
    /// each of `mlp_thresholds`.
    pub fn sparsity_report(
        &self,
        layers: &[LayerExposure],
        mlp_thresholds: &[f32],
    ) -> Vec<LayerSparsityReport> {
        let blk = self.config.block_size;
        let heads = self.model.config.n_heads;
        let Some(n) = layers.first().map(|l| l.head_masks[0][0].rows()) else {
            return Vec::new();
        };
        let pool = PatternPool::default_pool(blk, &[n]);
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
        layers
            .iter()
            .enumerate()
            .map(|(l, layer)| {
                let head_masks = layer.batch_head_masks();
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
                let (shadowy_mlp, lx_mlp) =
                    match (&layer.mlp_activations, layer.batch_mlp_importance()) {
                        (Some(acts), Some(imp)) => {
                            let sweep = mlp_thresholds
                                .iter()
                                .map(|&th| {
                                    let e = Exposer::new(blk, self.config.attn_prob_threshold, th);
                                    (th, e.mlp_filter(&imp).sparsity())
                                })
                                .collect();
                            (Exposer::mlp_union_sparsity(acts), sweep)
                        }
                        _ => (0.0, Vec::new()),
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
    use crate::exposer::oracle::{capture, dense_head_masks, dense_probs};
    use crate::predictor::draw_noise;
    use lx_model::{prompt_aware_targets, Activation, ModelConfig, Sgd};
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
                let seed = |si| calib_noise_seed(NoiseKind::Attn, e, si);
                let noise = draw_noise(lens, NOISE_STD, seed);
                let pred = &mut layer_major.predicted.attn[l];
                pred.train_epoch(&attn[l], &noise, PREDICTOR_LR, POS_WEIGHT);
                let lens = mlp[l].iter().map(|s| s.x.len());
                let seed = |si| calib_noise_seed(NoiseKind::Mlp, e, si);
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

    /// Every calibration noise draw has a stream of its own: at the default
    /// 150 epochs and 64 samples, no two (kind, epoch, sample) triples share
    /// a seed, nor the first word their generators draw.
    #[test]
    fn calibration_noise_streams_never_collide() {
        use rand::{RngCore, SeedableRng};
        let epochs = EngineConfig::default().calib_epochs as u64;
        let mut seeds = std::collections::HashSet::new();
        let mut first_words = std::collections::HashSet::new();
        for kind in [NoiseKind::Attn, NoiseKind::Mlp] {
            for e in 0..epochs {
                for si in 0..64 {
                    let seed = calib_noise_seed(kind, e, si);
                    assert!(seeds.insert(seed), "{kind:?} epoch {e} sample {si}");
                    let word = rand::rngs::StdRng::seed_from_u64(seed).next_u64();
                    assert!(first_words.insert(word), "{kind:?} epoch {e} sample {si}");
                }
            }
        }
        assert_eq!(seeds.len(), 2 * epochs as usize * 64);
    }

    #[test]
    #[should_panic(expected = "calibrate needs at least one batch")]
    fn empty_calibration_is_rejected() {
        small_engine().calibrate(&[]);
    }

    /// Calibration samples through the dense path the exposer replaced:
    /// each capture's block data expanded with `block_data_to_dense` and
    /// scanned densely, one batch element at a time.
    fn dense_path_samples(
        e: &mut FinetuneEngine,
        batches: &[(Vec<u32>, usize, usize)],
    ) -> (Vec<Vec<AttnSample>>, Vec<Vec<MlpSample>>) {
        let exposer = e.exposer();
        let (heads, blk) = (e.model.config.n_heads, e.config.block_size);
        let n_layers = e.model.config.n_layers;
        let mut attn: Vec<Vec<AttnSample>> = (0..n_layers).map(|_| Vec::new()).collect();
        let mut mlp: Vec<Vec<MlpSample>> = (0..n_layers).map(|_| Vec::new()).collect();
        for (ids, batch, seq) in batches {
            let (batch, seq) = (*batch, *seq);
            for (l, cap) in capture(&mut e.model, ids, batch, seq).iter().enumerate() {
                let dense = dense_probs(&cap.attn_layout, &cap.attn_probs);
                let pooled = pool_blocks(&cap.block_input, batch, seq, blk);
                let elements = dense.as_slice().chunks_exact(heads * seq * seq);
                for (pooled, probs) in pooled.into_iter().zip(elements) {
                    let targets = dense_head_masks(&exposer, probs, 1, heads, seq);
                    attn[l].push(AttnSample { pooled, targets });
                }
                let acts = cap.mlp_activations.as_ref().expect("ReLU activations");
                let (d, d_ff) = (cap.block_input.cols(), acts.cols());
                let xs = cap.block_input.as_slice().chunks_exact(seq * d);
                for (x, a) in xs.zip(acts.as_slice().chunks_exact(seq * d_ff)) {
                    mlp[l].push(MlpSample {
                        x: Tensor::from_vec(x.to_vec(), &[seq, d]),
                        reduced: exposer.mlp_filter(&exposer.mlp_block_importance(a, d_ff)),
                    });
                }
            }
        }
        (attn, mlp)
    }

    /// `Exposer::expose` hands calibration the samples the dense path
    /// builds, and predictors trained on either export identical bytes.
    #[test]
    fn calibration_samples_match_the_dense_path() {
        let batches = [batch(1), batch(2)];
        let mut exposed = small_engine();
        let (attn, mlp) = exposed.calibration_samples(&batches);
        let mut dense = small_engine();
        let (dense_attn, dense_mlp) = dense_path_samples(&mut dense, &batches);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (got, want) in attn.iter().flatten().zip(dense_attn.iter().flatten()) {
            assert_eq!(bits(&got.pooled), bits(&want.pooled));
            assert_eq!(got.targets, want.targets);
        }
        for (got, want) in mlp.iter().flatten().zip(dense_mlp.iter().flatten()) {
            assert_eq!(bits(&got.x), bits(&want.x));
            assert_eq!(got.reduced, want.reduced);
        }
        // Two batches of two elements per layer, on both sides.
        let samples = 2 * 2 * exposed.model.config.n_layers;
        for side in [&attn, &dense_attn] {
            assert_eq!(side.iter().flatten().count(), samples);
        }
        for side in [&mlp, &dense_mlp] {
            assert_eq!(side.iter().flatten().count(), samples);
        }
        exposed.train_predictors(&attn, &mlp);
        dense.train_predictors(&dense_attn, &dense_mlp);
        assert_eq!(exposed.export_predictors(), dense.export_predictors());
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
        let layers = e.exposer().expose(&mut e.model, &ids, b, s);
        let reports = e.sparsity_report(&layers, &[0.01, 0.05]);
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
