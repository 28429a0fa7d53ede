//! Shared harness for the experiment binaries (one per paper table/figure)
//! and the Criterion benches. README's "Experiments" table maps each bin to
//! the paper figure it measures.

pub mod cli;
pub mod report;

pub use cli::BenchCli;
pub use report::{compare_to_baseline, emit_json, header, load_bench_json, row, BenchReport};

use long_exposure::engine::{EngineConfig, FinetuneEngine, StepMode};
use lx_data::e2e::E2eGenerator;
use lx_data::{Batcher, SyntheticWorld};
use lx_model::{
    prompt_aware_targets, AdamW, ModelConfig, Optimizer, StepOutcome, TransformerModel,
};
use lx_peft::PeftMethod;
use std::time::Duration;

/// Standard sim-model block size (32 needs seq ≥ 512; most measured runs use
/// 16 so short sequences stay block-aligned).
pub const SIM_BLOCK: usize = 16;

/// Build a sim model with emulated pre-trained structure: activation
/// concentration ([`TransformerModel::induce_activation_sparsity`]) + ALiBi
/// locality + sharpened attention ([`TransformerModel::sharpen_attention`]).
pub fn sim_model(cfg: ModelConfig, seed: u64) -> TransformerModel {
    let mut model = TransformerModel::new(cfg, seed);
    model.induce_activation_sparsity(0.93, 0.25, SIM_BLOCK, seed + 1);
    model.sharpen_attention(3.0);
    model
}

/// Build a calibrated engine over E2E-like data for `(batch, seq)`.
pub fn calibrated_engine(
    cfg: ModelConfig,
    method: PeftMethod,
    batch: usize,
    seq: usize,
    seed: u64,
) -> (FinetuneEngine, Batcher) {
    let mut model = sim_model(cfg.clone(), seed);
    method.apply(&mut model, seed + 2);
    let world = SyntheticWorld::new(cfg.vocab_size as u32, seed + 3);
    let mut batcher = Batcher::new(E2eGenerator::new(world).stream(200_000, seed));
    let mut engine = FinetuneEngine::new(
        model,
        EngineConfig {
            block_size: SIM_BLOCK,
            attn_prob_threshold: 8.0 / seq as f32,
            calib_epochs: 80,
            ..EngineConfig::default()
        },
    );
    let calib: Vec<(Vec<u32>, usize, usize)> = (0..3)
        .map(|_| (batcher.next_batch(batch, seq), batch, seq))
        .collect();
    engine.calibrate(&calib);
    (engine, batcher)
}

/// Run `n` timed steps (after one untimed warm-up) and average the outcomes.
pub fn mean_step(
    engine: &mut FinetuneEngine,
    batcher: &mut Batcher,
    batch: usize,
    seq: usize,
    mode: StepMode,
    n: usize,
    opt: &mut dyn Optimizer,
) -> StepOutcome {
    let prompt = engine.model.embedding.prompt_len();
    let run = |engine: &mut FinetuneEngine, batcher: &mut Batcher, opt: &mut dyn Optimizer| {
        let ids = batcher.next_batch(batch, seq);
        let targets = prompt_aware_targets(&ids, batch, seq, prompt);
        engine.train_step_mode(&ids, &targets, batch, seq, opt, mode)
    };
    let _ = run(engine, batcher, opt); // warm-up
    let mut acc: Option<StepOutcome> = None;
    for i in 0..n {
        let s = run(engine, batcher, opt);
        acc = Some(match acc {
            None => s,
            Some(mut a) => {
                a.loss += s.loss;
                a.predict += s.predict;
                a.forward += s.forward;
                a.backward += s.backward;
                a.optim += s.optim;
                a.attn_density = merge_density(a.attn_density, s.attn_density, i);
                a.mlp_density = merge_density(a.mlp_density, s.mlp_density, i);
                a
            }
        });
    }
    let mut a = acc.expect("n > 0");
    let nf = n as u32;
    a.loss /= n as f32;
    a.predict /= nf;
    a.forward /= nf;
    a.backward /= nf;
    a.optim /= nf;
    a
}

/// Running mean: `acc` already averages `n_seen` samples; fold in one more.
fn merge_density(acc: Option<f32>, next: Option<f32>, n_seen: usize) -> Option<f32> {
    match (acc, next) {
        (Some(a), Some(b)) => Some((a * n_seen as f32 + b) / (n_seen as f32 + 1.0)),
        (a, b) => a.or(b),
    }
}

/// A default optimizer matching common fine-tuning practice.
pub fn default_opt() -> AdamW {
    AdamW::new(1e-3, 0.01)
}

pub fn fmt_ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_engine_builds_and_steps() {
        let (mut engine, mut batcher) = calibrated_engine(
            ModelConfig::opt_sim_small(),
            PeftMethod::lora_default(),
            1,
            64,
            5,
        );
        let mut opt = default_opt();
        let stats = mean_step(
            &mut engine,
            &mut batcher,
            1,
            64,
            StepMode::Sparse,
            1,
            &mut opt,
        );
        assert!(stats.loss.is_finite());
        assert!(
            stats.mlp_density.unwrap() < 1.0,
            "MLP sparsity should engage"
        );
    }
}
