//! Run every experiment binary in sequence, mirroring the paper's full
//! evaluation section. Equivalent to invoking each `--bin` by hand; results
//! stream to stdout (tee to a file to archive them). All flags are forwarded
//! to every bin (`--json` refreshes the whole `BENCH_*.json` perf
//! trajectory; bins ignore flags they don't know).

use std::process::Command;

const BINS: &[&str] = &[
    "table1_breakdown",
    "table4_accuracy",
    "fig7_speedup",
    "fig8_memory",
    "fig9_sparsity",
    "fig10_breakdown",
    "fig11_predictor",
    "fig12_operators",
    "fig13_gpt2",
    "ablation_predictor",
    "kernel_bench",
];

fn main() {
    let cli = lx_bench::BenchCli::parse("all_experiments");
    let exe = std::env::current_exe().expect("current exe");
    let dir = exe.parent().expect("bin dir");
    let forward = cli.forwarded();
    let mut failed = Vec::new();
    for bin in BINS {
        println!("\n######################################################");
        println!("### {bin}");
        println!("######################################################\n");
        let status = Command::new(dir.join(bin))
            .args(forward)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        if !status.success() {
            failed.push(*bin);
        }
    }
    if failed.is_empty() {
        println!("\nall {} experiments completed", BINS.len());
    } else {
        eprintln!("\nFAILED: {failed:?}");
        std::process::exit(1);
    }
}
