//! **Ablation**: the predictor design choices of §V —
//! (a) √s sequence downsampling vs full-resolution inputs (cost), and
//! (b) recall-weighted loss + noise augmentation vs plain BCE (quality).
//!
//! These back the paper's two predictor "criteria": efficiency (§V-A) and
//! accuracy under drifting inputs (§V-B).

use long_exposure::exposer::Exposer;
use long_exposure::predictor::{draw_noise, pool_blocks, AttnPredictor, AttnSample};
use lx_bench::{header, row, sim_model, SIM_BLOCK};
use lx_data::e2e::E2eGenerator;
use lx_data::{Batcher, SyntheticWorld};
use lx_model::{CaptureConfig, ModelConfig};
use lx_tensor::gemm::{matmul, Epilogue, Layout};
use lx_tensor::Tensor;
use std::time::Instant;

fn main() {
    let cli = lx_bench::BenchCli::parse("ablation_predictor");
    let (batch, seq) = (2, 256);
    let cfg = ModelConfig::opt_sim_small();
    let mut model = sim_model(cfg.clone(), 42);
    let world = SyntheticWorld::new(cfg.vocab_size as u32, 3);
    let mut batcher = Batcher::new(E2eGenerator::new(world).stream(100_000, 0));

    // ---- (a) downsampling cost ----
    println!("== Ablation (a): sequence downsampling (§V-A) ==\n");
    let x = Tensor::randn(&[batch * seq, cfg.d_model], 1.0, 1);
    let pred = {
        let mut p = AttnPredictor::new(cfg.d_model, cfg.n_heads, 8, 2);
        p.set_distance_slopes(lx_model::mha::alibi_slopes(cfg.n_heads), SIM_BLOCK);
        p
    };
    let time_it = |f: &mut dyn FnMut()| {
        f();
        let t0 = Instant::now();
        for _ in 0..10 {
            f();
        }
        t0.elapsed().as_secs_f64() / 10.0
    };
    let t_pooled = time_it(&mut || {
        let _ = pred.predict_masks(&x, batch, seq, SIM_BLOCK);
    });
    // Full resolution: predict at block 1 granularity (s×s score estimate),
    // then coarsen — what a naive flattened predictor would pay.
    let heads: Vec<(Tensor, Tensor)> = (0..cfg.n_heads).map(|h| pred.head(h)).collect();
    let t_full = time_it(&mut || {
        let pooled = pool_blocks(&x, batch, seq, 1); // no pooling
        for sample in &pooled {
            for (wq, wk) in &heads {
                let q = matmul(sample, wq, Layout::Normal, Epilogue::None);
                let k = matmul(sample, wk, Layout::Normal, Epilogue::None);
                let s_hat = matmul(&q, &k, Layout::Transposed, Epilogue::None);
                std::hint::black_box(&s_hat);
            }
        }
    });
    header(&["variant", "time ms", "relative"]);
    row(&[
        "downsampled (block-pooled)".into(),
        format!("{:.3}", t_pooled * 1e3),
        "1.0x".into(),
    ]);
    row(&[
        "full resolution".into(),
        format!("{:.3}", t_full * 1e3),
        format!("{:.1}x", t_full / t_pooled),
    ]);
    println!("\nshape to check: full-resolution prediction costs ~(s/block)² more score work.\n");

    // ---- (b) training options quality ----
    println!("== Ablation (b): recall weighting + noise augmentation (§V-B) ==\n");
    let ids = batcher.next_batch(batch, seq);
    let caps = model
        .execute(lx_model::StepRequest::capture(
            &ids,
            batch,
            seq,
            CaptureConfig {
                attn: true,
                mlp: false,
            },
        ))
        .captures
        .expect("capture mode records captures");
    let exposer = Exposer::new(SIM_BLOCK, 8.0 / seq as f32, 0.3);
    // Build per-sample attention training sets from layer 0.
    let cap = &caps[0];
    let block_input = cap.block_input.as_ref().unwrap();
    let probs = cap.attn_probs.as_ref().unwrap();
    let pooled = pool_blocks(block_input, batch, seq, SIM_BLOCK);
    let eff = seq;
    let mut samples = Vec::new();
    assert_eq!(probs.shape(), [batch * cfg.n_heads * eff, eff]);
    let per_batch = cfg.n_heads * eff * eff;
    for (pooled_b, probs_b) in pooled
        .into_iter()
        .zip(probs.as_slice().chunks_exact(per_batch))
    {
        samples.push(AttnSample {
            pooled: pooled_b,
            targets: exposer.attention_head_masks(probs_b, 1, cfg.n_heads, eff),
        });
    }
    header(&["training variant", "recall", "precision"]);
    for (name, pos_weight, noise) in [
        ("plain BCE", 1.0f32, 0.0f32),
        ("recall-weighted", 4.0, 0.0),
        ("recall-weighted + noise", 4.0, 0.05),
    ] {
        let mut p = AttnPredictor::new(cfg.d_model, cfg.n_heads, 8, 7);
        p.set_distance_slopes(lx_model::mha::alibi_slopes(cfg.n_heads), SIM_BLOCK);
        for e in 0..120 {
            let lens = samples.iter().map(|s| s.pooled.len());
            let noise = draw_noise(lens, noise, |si| e + si as u64);
            p.train_epoch(&samples, &noise, 0.5, pos_weight);
        }
        let (r, pr) = p.evaluate(&samples);
        row(&[
            name.into(),
            format!("{:.1}%", 100.0 * r),
            format!("{:.1}%", 100.0 * pr),
        ]);
    }
    println!("\nshape to check: recall weighting buys recall (the metric that protects accuracy) at some precision cost.");
    cli.finish();
}
