//! **Figure 7**: end-to-end execution time per batch and speedup of OPT
//! fine-tuning, dense PEFT vs Long Exposure.
//!
//! Measured: real CPU wall-clock on the sim models across sequence lengths
//! and PEFT methods (speedup must grow with sequence length).
//!
//! Paper: avg 1.25× (OPT-1.3B, s=512, A100) → 2.49× (s=1024); up to 2.49×
//! for 2.7B; parallel results on A6000.

use long_exposure::engine::StepMode;
use lx_bench::{calibrated_engine, default_opt, fmt_ms, header, mean_step, row};
use lx_model::ModelConfig;
use lx_peft::PeftMethod;

fn main() {
    let cli = lx_bench::BenchCli::parse("fig7_speedup");
    let steps = 3;
    println!("== Fig. 7 (measured): sim models, dense vs Long Exposure ==\n");
    header(&[
        "model",
        "seq",
        "method",
        "dense ms",
        "long-exp ms",
        "speedup",
        "attn dens",
        "mlp dens",
    ]);
    let mut densities = Vec::new();
    for cfg in [ModelConfig::opt_sim_small(), ModelConfig::opt_sim_base()] {
        for seq in [256usize, 512] {
            let batch = if seq > 256 { 1 } else { 2 };
            for (mname, method) in [
                ("lora", PeftMethod::lora_default()),
                ("adapter", PeftMethod::adapter_default()),
                ("bitfit", PeftMethod::BitFit),
            ] {
                let (mut engine, mut batcher) =
                    calibrated_engine(cfg.clone(), method, batch, seq, 42);
                let mut opt = default_opt();
                let dense = mean_step(
                    &mut engine,
                    &mut batcher,
                    batch,
                    seq,
                    StepMode::Dense,
                    steps,
                    &mut opt,
                );
                let lx = mean_step(
                    &mut engine,
                    &mut batcher,
                    batch,
                    seq,
                    StepMode::Sparse,
                    steps,
                    &mut opt,
                );
                let speedup = dense.total().as_secs_f64() / lx.total().as_secs_f64();
                row(&[
                    cfg.name.clone(),
                    seq.to_string(),
                    mname.to_string(),
                    fmt_ms(dense.total()),
                    fmt_ms(lx.total()),
                    format!("{speedup:.2}x"),
                    format!("{:.2}", lx.attn_density.unwrap_or(1.0)),
                    format!("{:.2}", lx.mlp_density.unwrap_or(1.0)),
                ]);
                densities.push((
                    lx.attn_density.unwrap_or(1.0) as f64,
                    lx.mlp_density.unwrap_or(1.0) as f64,
                ));
            }
        }
    }
    let attn_d = densities.iter().map(|d| d.0).sum::<f64>() / densities.len() as f64;
    let mlp_d = densities.iter().map(|d| d.1).sum::<f64>() / densities.len() as f64;
    println!("\nmean measured densities: attention {attn_d:.2}, MLP {mlp_d:.2}");

    println!("\nshape to check: speedup grows with seq (O(s²)→O(s) attention).");
    cli.finish();
}
