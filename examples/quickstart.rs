//! Quickstart: fine-tune an OPT-style sim model with LoRA, dense vs
//! Long Exposure, and print the per-phase speedup.
//!
//! ```sh
//! cargo run --release -p lx-examples --example quickstart
//! ```

use long_exposure::{EngineConfig, FinetuneEngine};
use lx_data::e2e::E2eGenerator;
use lx_data::{Batcher, SyntheticWorld};
use lx_model::{prompt_aware_targets, AdamW, ModelConfig, TransformerModel};
use lx_peft::PeftMethod;

fn main() {
    let (batch, seq, block) = (2, 256, 16);
    let cfg = ModelConfig::opt_sim_small();
    println!("== Long Exposure quickstart ==");
    println!(
        "model {} ({} layers, d={}, ReLU MLP), batch {batch}, seq {seq}",
        cfg.name, cfg.n_layers, cfg.d_model
    );

    // 1. Model + PEFT method (LoRA on Q/V). The bias shift emulates the
    //    activation concentration of a pre-trained checkpoint (see
    //    `TransformerModel::induce_activation_sparsity`).
    let mut model = TransformerModel::new(cfg.clone(), 42);
    model.induce_activation_sparsity(0.93, 0.25, block, 11);
    model.sharpen_attention(3.0);
    PeftMethod::lora_default().apply(&mut model, 7);
    let trainable = model.num_trainable();
    let total = model.num_params();
    println!(
        "LoRA: {trainable} / {total} params trainable ({:.3}%)",
        100.0 * trainable as f64 / total as f64
    );

    // 2. Data: synthetic E2E-like stream.
    let world = SyntheticWorld::new(cfg.vocab_size as u32, 1);
    let gen = E2eGenerator::new(world);
    let mut batcher = Batcher::new(gen.stream(50_000, 0));

    // 3. Engine with calibration.
    let mut engine = FinetuneEngine::new(
        model,
        EngineConfig {
            block_size: block,
            calib_epochs: 150,
            attn_prob_threshold: 8.0 / seq as f32,
            ..EngineConfig::default()
        },
    );
    let calib: Vec<(Vec<u32>, usize, usize)> = (0..4)
        .map(|_| (batcher.next_batch(batch, seq), batch, seq))
        .collect();
    println!("calibrating predictors on {} batches…", calib.len());
    let report = engine.calibrate(&calib);
    println!(
        "predictor recall: attention {:.1}%  MLP {:.1}%",
        100.0 * report.mean_attn_recall(),
        100.0 * report.mean_mlp_recall()
    );

    // 4. Train a few steps each way and compare.
    let mut opt = AdamW::new(1e-3, 0.01);
    let steps = 5;
    let mut dense_total = std::time::Duration::ZERO;
    let mut sparse_total = std::time::Duration::ZERO;
    for i in 0..steps {
        let ids = batcher.next_batch(batch, seq);
        let targets = prompt_aware_targets(&ids, batch, seq, 0);
        let d = engine.train_step_dense(&ids, &targets, batch, seq, &mut opt);
        let s = engine.train_step(&ids, &targets, batch, seq, &mut opt);
        if i > 0 {
            // skip warm-up
            dense_total += d.total();
            sparse_total += s.total();
        }
        println!(
            "step {i}: dense {:>6.1?} | long-exposure {:>6.1?} (predict {:>5.1?}, attn density {:.2}, mlp density {:.2}) loss {:.3}",
            d.total(),
            s.total(),
            s.predict,
            s.attn_density.unwrap_or(1.0),
            s.mlp_density.unwrap_or(1.0),
            s.loss
        );
    }
    println!(
        "\nend-to-end speedup over {} timed steps: {:.2}x",
        steps - 1,
        dense_total.as_secs_f64() / sparse_total.as_secs_f64()
    );
}
