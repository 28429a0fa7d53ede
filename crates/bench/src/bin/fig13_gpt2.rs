//! **Figure 13**: GPT-2 (GeLU) scalability — only the attention optimisation
//! applies, yet Long Exposure still wins. Measured on the GPT-2-style sim
//! model.
//!
//! Paper: average speedups up to 1.63× (GPT2-Large) and 1.55× (GPT2-XL)
//! across seq 512/1024 with LoRA/Adapter/BitFit.

use long_exposure::engine::StepMode;
use lx_bench::{calibrated_engine, default_opt, fmt_ms, header, mean_step, row};
use lx_model::ModelConfig;
use lx_peft::PeftMethod;

fn main() {
    let cli = lx_bench::BenchCli::parse("fig13_gpt2");
    let steps = 3;
    println!("== Fig. 13 (measured): GPT-2-style sim model (GeLU: attention-only sparsity) ==\n");
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
    let cfg = ModelConfig::gpt2_sim();
    for seq in [256usize, 512] {
        let batch = if seq > 256 { 1 } else { 2 };
        for (mname, method) in [
            ("lora", PeftMethod::lora_default()),
            ("adapter", PeftMethod::adapter_default()),
            ("bitfit", PeftMethod::BitFit),
        ] {
            let (mut engine, mut batcher) = calibrated_engine(cfg.clone(), method, batch, seq, 42);
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
            assert!(lx.mlp_density.is_none(), "GeLU model must not sparsify MLP");
            row(&[
                cfg.name.clone(),
                seq.to_string(),
                mname.to_string(),
                fmt_ms(dense.total()),
                fmt_ms(lx.total()),
                format!(
                    "{:.2}x",
                    dense.total().as_secs_f64() / lx.total().as_secs_f64()
                ),
                format!("{:.2}", lx.attn_density.unwrap_or(1.0)),
                "dense (GeLU)".into(),
            ]);
        }
    }

    println!(
        "\nshape to check: smaller-than-OPT but consistent speedups; MLP stays dense for GeLU."
    );
    cli.finish();
}
