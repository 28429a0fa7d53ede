//! End-to-end pipeline tests: calibration → sparse fine-tuning →
//! convergence and downstream evaluation, across PEFT methods.

use long_exposure::engine::{EngineConfig, FinetuneEngine, StepMode};
use lx_data::instruct::InstructGenerator;
use lx_data::tasks::{evaluate_accuracy, Task, TaskKind};
use lx_data::{Batcher, SyntheticWorld};
use lx_integration::{batch_ids, tiny_model};
use lx_model::{prompt_aware_targets, score_continuation, Sgd};
use lx_peft::PeftMethod;
use std::sync::{Mutex, MutexGuard};

const BLOCK: usize = 4;
const SEQ: usize = 16;
const BATCH: usize = 2;

/// `memtrack`'s peak is process-wide and tests in this binary run on
/// parallel threads: every test takes this lock, so the footprint test's
/// measurement windows never see a sibling test's buffers.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn engine_for(method: PeftMethod, seed: u64) -> FinetuneEngine {
    let mut model = tiny_model(seed);
    method.apply(&mut model, seed + 1);
    let mut engine = FinetuneEngine::new(
        model,
        EngineConfig {
            block_size: BLOCK,
            predictor_rank: 4,
            calib_epochs: 40,
            attn_prob_threshold: 8.0 / SEQ as f32,
            ..EngineConfig::default()
        },
    );
    let vocab = engine.model.config.vocab_size;
    let calib: Vec<(Vec<u32>, usize, usize)> = (0..2)
        .map(|i| (batch_ids(BATCH, SEQ, vocab, seed + 10 + i), BATCH, SEQ))
        .collect();
    engine.calibrate(&calib);
    engine
}

#[test]
fn sparse_training_converges_for_every_peft_method() {
    let _serial = serial();
    for method in [
        PeftMethod::lora_default(),
        PeftMethod::Adapter { bottleneck: 4 },
        PeftMethod::BitFit,
        PeftMethod::Full,
    ] {
        let mut engine = engine_for(method, 21);
        let vocab = engine.model.config.vocab_size;
        let ids = batch_ids(BATCH, SEQ, vocab, 33);
        let targets = prompt_aware_targets(&ids, BATCH, SEQ, 0);
        let mut opt = Sgd::new(0.05);
        let first = engine.train_step(&ids, &targets, BATCH, SEQ, &mut opt).loss;
        let mut last = first;
        for _ in 0..12 {
            last = engine.train_step(&ids, &targets, BATCH, SEQ, &mut opt).loss;
        }
        assert!(
            last < first,
            "{}: sparse loss must drop ({first} -> {last})",
            method.name()
        );
    }
}

#[test]
fn sparse_and_dense_reach_similar_loss() {
    let _serial = serial();
    // Fig. 11a's claim in miniature: predicted sparsity tracks dense
    // convergence while random patterns lag.
    let run = |mode: StepMode| {
        let mut engine = engine_for(PeftMethod::lora_default(), 5);
        engine.model.embedding.tokens.trainable = true;
        let vocab = engine.model.config.vocab_size;
        let ids = batch_ids(BATCH, SEQ, vocab, 6);
        let targets = prompt_aware_targets(&ids, BATCH, SEQ, 0);
        let mut opt = Sgd::new(0.05);
        let mut last = 0.0;
        for _ in 0..20 {
            last = engine
                .train_step_mode(&ids, &targets, BATCH, SEQ, &mut opt, mode)
                .loss;
        }
        last
    };
    let dense = run(StepMode::Dense);
    let sparse = run(StepMode::Sparse);
    assert!(
        sparse < dense * 1.3 + 0.2,
        "sparse final loss {sparse} should track dense {dense}"
    );
}

#[test]
fn densities_are_reported_and_meaningful() {
    let _serial = serial();
    let mut engine = engine_for(PeftMethod::lora_default(), 8);
    let vocab = engine.model.config.vocab_size;
    let ids = batch_ids(BATCH, SEQ, vocab, 9);
    let targets = prompt_aware_targets(&ids, BATCH, SEQ, 0);
    let mut opt = Sgd::new(0.01);
    let stats = engine.train_step(&ids, &targets, BATCH, SEQ, &mut opt);
    let attn = stats.attn_density.expect("attention density");
    let mlp = stats.mlp_density.expect("MLP density");
    assert!(attn > 0.0 && attn <= 1.0);
    assert!(mlp > 0.0 && mlp <= 1.0);
    // The causal triangle occupies ~(n+1)/2n of the grid; the chosen
    // patterns can never exceed it.
    let n = (SEQ / BLOCK) as f32;
    assert!(attn <= (n + 1.0) / (2.0 * n) + 1e-4);
}

#[test]
fn downstream_eval_pipeline_runs() {
    let _serial = serial();
    // A miniature Table IV pipeline: instruction-tune then score tasks.
    let mut engine = engine_for(PeftMethod::lora_default(), 40);
    engine.model.embedding.tokens.trainable = true;
    let vocab = engine.model.config.vocab_size as u32;
    let world = SyntheticWorld::new(vocab, 5);
    let mut batcher = Batcher::new(InstructGenerator::new(world.clone()).stream(20_000, 1));
    let mut opt = Sgd::new(0.05);
    for _ in 0..10 {
        let ids = batcher.next_batch(BATCH, SEQ);
        let targets = prompt_aware_targets(&ids, BATCH, SEQ, 0);
        engine.train_step(&ids, &targets, BATCH, SEQ, &mut opt);
    }
    let task = Task::new(TaskKind::Piqa, world);
    let examples = task.examples(10);
    let acc = evaluate_accuracy(&examples, |p, c| {
        score_continuation(&mut engine.model, p, c)
    });
    assert!((0.0..=1.0).contains(&acc));
}

#[test]
fn memory_tracker_sees_smaller_sparse_footprint() {
    let _serial = serial();
    // The O(s²) vs O(s) attention-buffer gap needs a sequence long enough
    // that score buffers dominate the fixed bookkeeping (paper Fig. 8 uses
    // 512–4096; the tiny model's max is 64).
    let seq = 64;
    let mut model = tiny_model(50);
    PeftMethod::lora_default().apply(&mut model, 51);
    let mut engine = FinetuneEngine::new(
        model,
        EngineConfig {
            block_size: BLOCK,
            predictor_rank: 4,
            calib_epochs: 30,
            attn_prob_threshold: 8.0 / seq as f32,
            ..EngineConfig::default()
        },
    );
    let vocab = engine.model.config.vocab_size;
    engine.calibrate(&[(batch_ids(BATCH, seq, vocab, 52), BATCH, seq)]);
    let ids = batch_ids(BATCH, seq, vocab, 53);
    let targets = prompt_aware_targets(&ids, BATCH, seq, 0);
    let mut opt = Sgd::new(0.01);
    let ((), dense_peak) = lx_tensor::memtrack::measure_peak(|| {
        engine.train_step_dense(&ids, &targets, BATCH, seq, &mut opt);
    });
    let ((), sparse_peak) = lx_tensor::memtrack::measure_peak(|| {
        engine.train_step(&ids, &targets, BATCH, seq, &mut opt);
    });
    assert!(
        sparse_peak <= dense_peak,
        "sparse step peak {sparse_peak} must not exceed dense {dense_peak}"
    );
}
