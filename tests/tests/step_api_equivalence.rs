//! Cross-crate equivalence proofs for the unified `StepRequest`/`StepOutcome`
//! execution API. The bit-identical reproductions of the *removed* legacy
//! entry points (`train_step`, `train_step_scaled`, `forward_planned`) live
//! inside `lx-model` (`crates/model/src/exec.rs`), where the private legacy
//! call sequences can still be spelled out; this suite proves the
//! composition laws visible from outside the crate:
//!
//! * `Mode::Train` ≡ `Mode::Grad` + a manual optimizer sweep, bit for bit;
//! * N-micro-batch accumulation ≡ one fused batch within f32 tolerance,
//!   through both the raw model API and the engine;
//! * evaluation reads exactly the loss a training step would have reported;
//! * `Mode::Score` ≡ candidate scoring through `score_parts`.

use long_exposure::engine::{EngineConfig, FinetuneEngine, StepMode};
use lx_integration::{batch_ids, tiny_model};
use lx_model::{
    prompt_aware_targets, score_parts, MicroBatch, Optimizer, Sgd, StepRequest, TransformerModel,
};
use lx_peft::PeftMethod;

const BATCH: usize = 2;
const SEQ: usize = 16;
const BLOCK: usize = 4;

fn lora_model(seed: u64) -> TransformerModel {
    let mut m = tiny_model(seed);
    PeftMethod::lora_default().apply(&mut m, seed + 1);
    m
}

fn sample(m: &TransformerModel, seed: u64) -> (Vec<u32>, Vec<i32>) {
    let ids = batch_ids(BATCH, SEQ, m.config.vocab_size, seed);
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

#[test]
fn train_mode_is_grad_mode_plus_optimizer_bit_identically() {
    let mut fused = lora_model(3);
    let mut composed = lora_model(3);
    let mut opt_a = Sgd::new(0.05);
    let mut opt_b = Sgd::new(0.05);
    for step in 0..4u64 {
        let (ids, targets) = sample(&fused, 50 + step);
        let a = fused
            .execute(StepRequest::train(&ids, &targets, BATCH, SEQ, &mut opt_a))
            .loss;
        // The manual composition every custom update loop relies on:
        // gradients from grad mode, then its own optimizer pass.
        let b = composed
            .execute(StepRequest::grad(&ids, &targets, BATCH, SEQ))
            .loss;
        opt_b.begin_step();
        composed.for_each_param(&mut |p| opt_b.update(p));
        assert_eq!(a.to_bits(), b.to_bits(), "step {step} loss");
    }
    assert_eq!(
        trainable_values(&mut fused),
        trainable_values(&mut composed)
    );
}

#[test]
fn engine_accumulation_matches_one_fused_batch() {
    // Two micro-batches of BATCH rows against one fused batch of 2·BATCH
    // rows, dense mode (sparse plans are per-batch-content, so only the
    // dense path admits an exact fused counterpart). Losses and the
    // parameters after the single optimizer update must agree to f32
    // re-association tolerance.
    let engine_of = |seed| {
        FinetuneEngine::new(
            lora_model(seed),
            EngineConfig {
                block_size: BLOCK,
                ..EngineConfig::default()
            },
        )
    };
    let mut accum = engine_of(7);
    let mut fused = engine_of(7);
    let (ids_a, t_a) = sample(&accum.model, 70);
    let (ids_b, t_b) = sample(&accum.model, 71);
    let fused_ids: Vec<u32> = ids_a.iter().chain(&ids_b).copied().collect();
    let fused_t: Vec<i32> = t_a.iter().chain(&t_b).copied().collect();
    let mut opt_a = Sgd::new(0.05);
    let mut opt_b = Sgd::new(0.05);
    let micros = [
        MicroBatch {
            ids: &ids_a,
            targets: &t_a,
        },
        MicroBatch {
            ids: &ids_b,
            targets: &t_b,
        },
    ];
    let out_acc = accum.train_step_accum(&micros, BATCH, SEQ, &mut opt_a, StepMode::Dense);
    let out_fused = fused.train_step_mode(
        &fused_ids,
        &fused_t,
        2 * BATCH,
        SEQ,
        &mut opt_b,
        StepMode::Dense,
    );
    assert_eq!(out_acc.micro_batches, 2);
    assert!(
        (out_acc.loss - out_fused.loss).abs() <= 1e-5 * (1.0 + out_fused.loss.abs()),
        "losses: {} vs {}",
        out_acc.loss,
        out_fused.loss
    );
    let pa = trainable_values(&mut accum.model);
    let pf = trainable_values(&mut fused.model);
    assert_eq!(pa.len(), pf.len());
    for ((name, a), (_, f)) in pa.iter().zip(&pf) {
        for (x, y) in a.iter().zip(f) {
            assert!(
                (x - y).abs() <= 1e-5 * (1.0 + y.abs()),
                "{name}: accumulated update {x} vs fused {y}"
            );
        }
    }
}

#[test]
fn sparse_accumulation_trains_and_replans_per_micro_batch() {
    let mut engine = FinetuneEngine::new(
        lora_model(9),
        EngineConfig {
            block_size: BLOCK,
            predictor_rank: 4,
            calib_epochs: 40,
            attn_prob_threshold: 8.0 / SEQ as f32,
            ..EngineConfig::default()
        },
    );
    let calib = sample(&engine.model, 90);
    engine.calibrate(&[(calib.0, BATCH, SEQ)]);
    let (ids_a, t_a) = sample(&engine.model, 91);
    let (ids_b, t_b) = sample(&engine.model, 92);
    let micros = [
        MicroBatch {
            ids: &ids_a,
            targets: &t_a,
        },
        MicroBatch {
            ids: &ids_b,
            targets: &t_b,
        },
    ];
    let mut opt = Sgd::new(0.05);
    let first = engine.train_step_accum(&micros, BATCH, SEQ, &mut opt, StepMode::Sparse);
    assert_eq!(first.micro_batches, 2);
    assert!(first.attn_density.unwrap() <= 1.0);
    assert!(first.mlp_density.unwrap() <= 1.0);
    let mut last = first.loss;
    for _ in 0..8 {
        last = engine
            .train_step_accum(&micros, BATCH, SEQ, &mut opt, StepMode::Sparse)
            .loss;
    }
    assert!(
        last < first.loss,
        "accumulated sparse training must reduce loss: {} -> {last}",
        first.loss
    );
}

#[test]
fn eval_reports_exactly_the_loss_a_train_step_would() {
    // Loss is computed before the update, so on identical state the eval
    // pass and the training step must report bit-identical losses.
    let mut trained = lora_model(11);
    let mut evaluated = lora_model(11);
    let (ids, targets) = sample(&trained, 110);
    let eval_loss = evaluated
        .execute(StepRequest::eval(&ids, &targets, BATCH, SEQ))
        .loss;
    let mut opt = Sgd::new(0.05);
    let train_loss = trained
        .execute(StepRequest::train(&ids, &targets, BATCH, SEQ, &mut opt))
        .loss;
    assert_eq!(eval_loss.to_bits(), train_loss.to_bits());
}

#[test]
fn score_mode_orders_candidates_like_eval_losses() {
    // Mode::Score sums log-probabilities over the continuation rows; a
    // higher score must correspond to a lower targeted eval loss.
    let mut m = lora_model(13);
    let mut opt = Sgd::new(0.1);
    let ids: Vec<u32> = (1..=SEQ as u32).collect();
    let targets = prompt_aware_targets(&ids, 1, SEQ, 0);
    for _ in 0..20 {
        m.execute(StepRequest::train(&ids, &targets, 1, SEQ, &mut opt));
    }
    let prompt: Vec<u32> = ids[..4].to_vec();
    let trained_cont: Vec<u32> = ids[4..8].to_vec();
    let wrong_cont: Vec<u32> = vec![40, 41, 42, 43];
    let score = |m: &mut TransformerModel, cont: &[u32]| {
        let (sids, stargets) = score_parts(&prompt, cont, 0);
        m.execute(StepRequest::score(&sids, &stargets, 1, sids.len()))
            .loss
    };
    let good = score(&mut m, &trained_cont);
    let bad = score(&mut m, &wrong_cont);
    assert!(
        good > bad,
        "trained continuation must score higher: {good} vs {bad}"
    );
}
