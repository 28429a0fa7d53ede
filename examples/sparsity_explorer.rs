//! Visualise shadowy sparsity (paper Figs. 1 & 4): per-head attention masks
//! vs their union, and per-token vs union MLP sparsity.
//!
//! ```sh
//! cargo run --release -p lx-examples --example sparsity_explorer
//! ```

use long_exposure::exposer::Exposer;
use lx_data::e2e::E2eGenerator;
use lx_data::{Batcher, SyntheticWorld};
use lx_model::{CaptureConfig, ModelConfig, TransformerModel};

fn main() {
    let (batch, seq, block) = (2, 128, 16);
    let cfg = ModelConfig::opt_sim_small();
    let mut model = TransformerModel::new(cfg.clone(), 42);
    let world = SyntheticWorld::new(cfg.vocab_size as u32, 3);
    let mut batcher = Batcher::new(E2eGenerator::new(world).stream(20_000, 0));
    let ids = batcher.next_batch(batch, seq);

    let caps = model
        .execute(lx_model::StepRequest::capture(
            &ids,
            batch,
            seq,
            CaptureConfig {
                attn: true,
                mlp: true,
            },
        ))
        .captures
        .expect("capture mode records captures");
    let exposer = Exposer::new(block, 0.05, 0.02);

    for (l, cap) in caps.iter().enumerate() {
        println!("=== layer {l} ===");
        let probs = cap.attn_probs.as_ref().unwrap();
        let masks = exposer.attention_head_masks(probs.as_slice(), batch, cfg.n_heads, seq);
        for (h, m) in masks.iter().enumerate() {
            println!(
                "head {h}: {} active blocks, causal-relative sparsity {:.2}",
                m.count(),
                Exposer::causal_relative_sparsity(m)
            );
        }
        let union = Exposer::attention_union_mask(&masks);
        println!(
            "union (\"shadowy\"): {} blocks, sparsity {:.2} — head-specific masks expose more",
            union.count(),
            Exposer::causal_relative_sparsity(&union)
        );
        println!("union mask ({}x{} blocks):", union.rows(), union.cols());
        print!("{}", union.to_ascii());

        let acts = cap.mlp_activations.as_ref().unwrap();
        println!(
            "MLP: per-token sparsity {:.2}, union (\"shadowy\") sparsity {:.2}",
            Exposer::mlp_per_token_sparsity(acts),
            Exposer::mlp_union_sparsity(acts),
        );
        let imp = exposer.mlp_block_importance(acts.as_slice(), acts.cols());
        for th in [0.01f32, 0.02, 0.05] {
            let e = Exposer::new(block, 0.05, th);
            let set = e.mlp_filter(&imp);
            println!(
                "  importance filter θ={:.0}%: keeps {}/{} blocks (sparsity {:.2})",
                th * 100.0,
                set.n_active(),
                set.n_blocks_total,
                set.sparsity()
            );
        }
        println!();
    }
}
