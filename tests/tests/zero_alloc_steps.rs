//! Differential suite for the step-persistent workspace and shadowy-
//! sparsity reuse layer:
//!
//! * workspace-pooled steps are **bit-identical** to fresh-allocation steps
//!   over multi-step training runs in dense, sparse and `F16Frozen` modes;
//! * a steady-state training step performs **zero** heap tensor allocations
//!   after ≤ 2 warmup steps (asserted via the `memtrack` fresh-allocation
//!   counters), in dense and sparse modes, including under micro-batch
//!   accumulation;
//! * plan reuse (`PlanRefreshConfig`) keeps the loss curve within 0.05 of
//!   every-step prediction over 24 steps while actually skipping predictor
//!   work.

use long_exposure::engine::{EngineConfig, FinetuneEngine, StepMode};
use long_exposure::PlanRefreshConfig;
use lx_model::{
    prompt_aware_targets, Adam, LossScaler, ModelConfig, Precision, Sgd, SparsePlan, StepRequest,
    TransformerModel,
};
use lx_peft::PeftMethod;
use lx_sparse::{BlockCsr, MultiHeadLayout, NeuronBlockSet, PatternSpec};
use lx_tensor::memtrack;
use std::sync::{Arc, Mutex, MutexGuard};

/// The `memtrack` fresh-allocation counters are process-global, and tests in
/// this binary run on parallel threads — every test takes this lock so the
/// zero-alloc measurement windows never see another test's allocations.
fn alloc_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const BATCH: usize = 2;
const SEQ: usize = 8;
const BLOCK: usize = 4;

fn sample(seed: u64) -> (Vec<u32>, Vec<i32>) {
    let vocab = ModelConfig::test_tiny().vocab_size as f32;
    let ids: Vec<u32> = lx_tensor::rng::uniform_vec(BATCH * SEQ, 0.0, vocab, seed)
        .into_iter()
        .map(|v| v as u32)
        .collect();
    let targets = prompt_aware_targets(&ids, BATCH, SEQ, 0);
    (ids, targets)
}

/// A fixed sparse plan (causal attention, odd neuron blocks) for the tiny
/// config — deterministic sparse execution without predictors.
fn tiny_plan(cfg: &ModelConfig) -> SparsePlan {
    let csr = Arc::new(BlockCsr::from_mask(
        &PatternSpec::Causal.mask(SEQ / BLOCK),
        BLOCK,
    ));
    let n_blk = cfg.d_ff / BLOCK;
    let mut plan = SparsePlan::dense(cfg.n_layers);
    for layer in plan.layers.iter_mut() {
        layer.attn = Some(Arc::new(MultiHeadLayout::combine(vec![
            csr.clone();
            cfg.n_heads
        ])));
        layer.mlp = Some(Arc::new(NeuronBlockSet::from_indices(
            (0..n_blk as u32).filter(|i| i % 2 == 1).collect(),
            n_blk,
            BLOCK,
        )));
    }
    plan
}

#[derive(Clone, Copy, PartialEq)]
enum Scenario {
    Dense,
    Sparse,
    F16Sparse,
}

/// Train `steps` steps, returning per-step losses and the final trainable
/// parameter values.
fn train_run(scenario: Scenario, pooled: bool, steps: usize) -> (Vec<f32>, Vec<Vec<f32>>) {
    let cfg = ModelConfig::test_tiny();
    let mut model = TransformerModel::new(cfg.clone(), 42);
    model.set_workspace_enabled(pooled);
    let plan = tiny_plan(&cfg);
    let mut scaler = LossScaler::default();
    match scenario {
        Scenario::Dense | Scenario::Sparse => {
            model.for_each_param(&mut |p| p.trainable = true);
        }
        Scenario::F16Sparse => {
            model.freeze_all();
            for block in &mut model.blocks {
                block.attn.wq.attach_lora(4, 8.0, 31);
                block.mlp.fc1.attach_lora(4, 8.0, 33);
                block.mlp.fc2.attach_lora(4, 8.0, 34);
            }
            model.set_precision(Precision::F16Frozen);
        }
    }
    let mut sgd = Sgd::new(0.05);
    let mut adam = Adam::new(0.02);
    let mut losses = Vec::new();
    for step in 0..steps as u64 {
        let (ids, targets) = sample(700 + step);
        let out = match scenario {
            Scenario::Dense => {
                model.execute(StepRequest::train(&ids, &targets, BATCH, SEQ, &mut sgd))
            }
            Scenario::Sparse => {
                model.execute(StepRequest::train(&ids, &targets, BATCH, SEQ, &mut sgd).plan(&plan))
            }
            Scenario::F16Sparse => model.execute(
                StepRequest::train(&ids, &targets, BATCH, SEQ, &mut adam)
                    .plan(&plan)
                    .loss_scale(&mut scaler),
            ),
        };
        losses.push(out.loss);
    }
    let mut params = Vec::new();
    model.for_each_param(&mut |p| {
        if p.trainable {
            params.push(p.value.as_slice().to_vec());
        }
    });
    (losses, params)
}

#[test]
fn pooled_steps_are_bit_identical_to_fresh_allocation_steps() {
    let _guard = alloc_lock();
    for scenario in [Scenario::Dense, Scenario::Sparse, Scenario::F16Sparse] {
        let (losses_pooled, params_pooled) = train_run(scenario, true, 8);
        let (losses_fresh, params_fresh) = train_run(scenario, false, 8);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(
            bits(&losses_pooled),
            bits(&losses_fresh),
            "loss trajectories must be bit-identical"
        );
        assert_eq!(params_pooled.len(), params_fresh.len());
        for (a, b) in params_pooled.iter().zip(&params_fresh) {
            assert_eq!(bits(a), bits(b), "parameters must be bit-identical");
        }
    }
}

/// `steps` training steps in `scenario` after `warmup` steps; returns the
/// number of fresh heap tensor allocations during the measured steps.
fn allocs_after_warmup(scenario: Scenario, warmup: usize, steps: usize) -> usize {
    let cfg = ModelConfig::test_tiny();
    let mut model = TransformerModel::new(cfg.clone(), 42);
    let plan = tiny_plan(&cfg);
    let mut scaler = LossScaler::default();
    match scenario {
        Scenario::Dense | Scenario::Sparse => {
            model.for_each_param(&mut |p| p.trainable = true);
        }
        Scenario::F16Sparse => {
            model.freeze_all();
            for block in &mut model.blocks {
                block.attn.wq.attach_lora(4, 8.0, 31);
                block.mlp.fc1.attach_lora(4, 8.0, 33);
                block.mlp.fc2.attach_lora(4, 8.0, 34);
            }
            model.set_precision(Precision::F16Frozen);
        }
    }
    let mut sgd = Sgd::new(0.05);
    let mut adam = Adam::new(0.02);
    let mut mark = memtrack::alloc_stats();
    for step in 0..(warmup + steps) as u64 {
        if step == warmup as u64 {
            mark = memtrack::alloc_stats();
        }
        let (ids, targets) = sample(800 + step);
        match scenario {
            Scenario::Dense => {
                model.execute(StepRequest::train(&ids, &targets, BATCH, SEQ, &mut sgd))
            }
            Scenario::Sparse => {
                model.execute(StepRequest::train(&ids, &targets, BATCH, SEQ, &mut sgd).plan(&plan))
            }
            Scenario::F16Sparse => model.execute(
                StepRequest::train(&ids, &targets, BATCH, SEQ, &mut adam)
                    .plan(&plan)
                    .loss_scale(&mut scaler),
            ),
        };
    }
    memtrack::alloc_stats().since(&mark).count
}

#[test]
fn steady_state_steps_perform_zero_heap_tensor_allocations() {
    let _guard = alloc_lock();
    for (scenario, label) in [
        (Scenario::Dense, "dense"),
        (Scenario::Sparse, "sparse"),
        (Scenario::F16Sparse, "f16-sparse"),
    ] {
        let allocs = allocs_after_warmup(scenario, 2, 6);
        assert_eq!(
            allocs, 0,
            "{label}: steady-state steps must not heap-allocate tensors"
        );
    }
}

#[test]
fn steady_state_holds_across_micro_batches() {
    let _guard = alloc_lock();
    let mut model = TransformerModel::new(ModelConfig::test_tiny(), 42);
    model.for_each_param(&mut |p| p.trainable = true);
    let mut opt = Sgd::new(0.05);
    let step = |model: &mut TransformerModel, opt: &mut Sgd, seed: u64| {
        let (ids_a, t_a) = sample(900 + seed);
        let (ids_b, t_b) = sample(950 + seed);
        model.execute(StepRequest::train(&ids_a, &t_a, BATCH, SEQ, opt).micro_batch(&ids_b, &t_b));
    };
    for s in 0..2 {
        step(&mut model, &mut opt, s); // warmup
    }
    let mark = memtrack::alloc_stats();
    for s in 2..8 {
        step(&mut model, &mut opt, s);
    }
    assert_eq!(
        memtrack::alloc_stats().since(&mark).count,
        0,
        "accumulated steps must stay allocation-free"
    );
    let ws = model.workspace_stats();
    assert!(ws.hits > 0 && ws.recycled > 0, "{ws:?}");
}

/// Calibration's train phase recycles every predictor temporary through a
/// workspace per (layer, predictor) task and refills its noise buffers in
/// place, so epochs after the first allocate no tensors: calibrating with 2
/// epochs and with 6 performs the same number of fresh allocations.
#[test]
fn calibration_epochs_after_warm_up_allocate_nothing() {
    let _guard = alloc_lock();
    let fresh_allocs = |calib_epochs: usize| {
        let model = TransformerModel::new(ModelConfig::test_tiny(), 9);
        let config = EngineConfig {
            block_size: BLOCK,
            calib_epochs,
            ..EngineConfig::default()
        };
        let mut engine = FinetuneEngine::new(model, config);
        let ids: Vec<u32> = (0..(BATCH * SEQ) as u32).map(|i| (i * 7) % 64).collect();
        let mark = memtrack::alloc_stats();
        let report = engine.calibrate(&[(ids, BATCH, SEQ)]);
        assert!(!report.attn_recall.is_empty() && !report.mlp_recall.is_empty());
        memtrack::alloc_stats().since(&mark).count
    };
    let (two, six) = (fresh_allocs(2), fresh_allocs(6));
    assert!(two > 0, "capture and the first epoch allocate");
    assert_eq!(two, six, "epochs 3..6 must not heap-allocate tensors");
}

fn small_engine(refresh: PlanRefreshConfig) -> FinetuneEngine {
    let mut cfg = ModelConfig::test_tiny();
    cfg.d_ff = 32;
    let mut model = TransformerModel::new(cfg, 5);
    PeftMethod::lora_default().apply(&mut model, 6);
    let mut engine = FinetuneEngine::new(
        model,
        EngineConfig {
            block_size: 4,
            predictor_rank: 4,
            calib_epochs: 80,
            plan_refresh: refresh,
            ..EngineConfig::default()
        },
    );
    let batch = |seed: u64| {
        let ids: Vec<u32> = lx_tensor::rng::uniform_vec(2 * 16, 0.0, 64.0, seed)
            .into_iter()
            .map(|v| v as u32)
            .collect();
        (ids, 2usize, 16usize)
    };
    engine.calibrate(&[batch(1), batch(2)]);
    engine
}

/// The paper's regime: `StepMode::Sparse` with the predictors planning every
/// layer of every step, so attention layouts and neuron sets — and with them
/// the size of every block-data and compact-activation buffer — change from
/// step to step. Once the pool has seen the sizes the predictors produce,
/// steps allocate nothing: scratch is sized by layout-independent bounds and
/// the rest recycles through the workspace.
#[test]
fn per_step_planned_sparse_steps_stay_allocation_free() {
    let _guard = alloc_lock();
    let mut engine = small_engine(PlanRefreshConfig::default());
    let mut opt = Adam::new(0.01);
    let mut densities = std::collections::BTreeSet::new();
    let mut step = |engine: &mut FinetuneEngine, seed: u64| {
        let ids: Vec<u32> = lx_tensor::rng::uniform_vec(2 * 16, 0.0, 64.0, seed)
            .into_iter()
            .map(|v| v as u32)
            .collect();
        let targets = prompt_aware_targets(&ids, 2, 16, 0);
        let out = engine.train_step_mode(&ids, &targets, 2, 16, &mut opt, StepMode::Sparse);
        let bits = |d: Option<f32>| d.expect("sparse step").to_bits();
        densities.insert((bits(out.attn_density), bits(out.mlp_density)));
    };
    for s in 0..12 {
        step(&mut engine, 300 + s); // warmup: the pool meets the plan sizes
    }
    let mark = memtrack::alloc_stats();
    for s in 12..24 {
        step(&mut engine, 300 + s);
    }
    assert_eq!(
        memtrack::alloc_stats().since(&mark).count,
        0,
        "per-step planned sparse steps must not heap-allocate tensors"
    );
    assert_eq!(engine.plan_reuse_stats().predicted_steps, 24);
    assert!(densities.len() > 1, "the plans must actually vary");
}

#[test]
fn plan_reuse_keeps_the_loss_curve_close_while_skipping_predictions() {
    let _guard = alloc_lock();
    let run = |refresh: PlanRefreshConfig| {
        let mut engine = small_engine(refresh);
        let mut opt = Adam::new(0.01);
        let mut losses = Vec::new();
        for step in 0..24u64 {
            let ids: Vec<u32> = lx_tensor::rng::uniform_vec(2 * 16, 0.0, 64.0, 100 + step)
                .into_iter()
                .map(|v| v as u32)
                .collect();
            let targets = prompt_aware_targets(&ids, 2, 16, 0);
            let out = engine.train_step_mode(&ids, &targets, 2, 16, &mut opt, StepMode::Sparse);
            losses.push(out.loss);
        }
        (losses, engine.plan_reuse_stats())
    };
    let (every, stats_every) = run(PlanRefreshConfig::default());
    let (reused, stats_reused) = run(PlanRefreshConfig {
        interval: 4,
        min_overlap: 0.0,
    });
    assert_eq!(stats_every.predicted_steps, 24);
    assert_eq!(stats_reused.predicted_steps, 6, "{stats_reused:?}");
    assert_eq!(stats_reused.reused_steps, 18, "{stats_reused:?}");
    let max_dev = every
        .iter()
        .zip(&reused)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(
        max_dev <= 0.05,
        "plan reuse must track every-step prediction: max dev {max_dev}"
    );
}
