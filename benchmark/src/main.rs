//! `lx-benchmark`: the repository's end-to-end yardstick. See `README.md`
//! beside this crate for the workloads, metrics and how to read the output.

mod ft;
mod json;
mod measure;
mod probes;
mod recipe;
mod serve;
mod spec;
mod stats;
mod trace;

use json::Json;
use measure::Outcome;
use spec::{Better, END_TO_END, FT_DENSE, FT_SPARSE, WORKLOADS};
use std::process::ExitCode;
use std::time::Instant;

/// One invocation's settings (`--workload` is handled by the caller).
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the end-to-end pass.
    pub trace: bool,
    /// Harness smoke: one set-up, five steps, no loss-trend gate.
    pub quick: bool,
}

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--quick] [--aa]\n  workloads: ft-dense-s512 ft-sparse-s512 ft-sparse-nf4-s64 \
serve-mixed-32t (default: all four)\n  --aa: run the full set twice and compare against the \
bounds in BENCHMARK.json";

struct Cli {
    workload: Option<&'static str>,
    aa: bool,
    run: RunArgs,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        aa: false,
        run: RunArgs {
            seed: 42,
            seconds: 12.0,
            trace: false,
            quick: false,
        },
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().find(|w| **w == name);
                cli.workload = Some(known.ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => cli.run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s}: want 0 < S <= 60"));
                }
                cli.run.seconds = s;
            }
            "--trace" => {
                cli.run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: want 0 or 1")),
                }
            }
            "--quick" => cli.run.quick = true,
            "--aa" => cli.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn run_workload(name: &'static str, args: &RunArgs) -> Outcome {
    let t0 = Instant::now();
    let mut out = match ft::spec(name) {
        Some(spec) => ft::run(&spec, args),
        None => serve::run(args),
    };
    out.seal();
    out.info
        .push(("total_wall_s".into(), t0.elapsed().as_secs_f64()));
    out.print();
    out
}

fn value_of(outcomes: &[Outcome], workload: &str, metric: &str) -> Option<f64> {
    outcomes
        .iter()
        .find(|o| o.workload == workload)
        .and_then(|o| o.metrics.get(metric).copied())
}

/// Fig. 7's ratio. Informational only: it is a quotient of two gated
/// metrics, so gating it too would count the same change twice.
fn print_sparse_speedup(outcomes: &[Outcome]) {
    let dense = value_of(outcomes, FT_DENSE, "tokens_per_s");
    let sparse = value_of(outcomes, FT_SPARSE, "tokens_per_s");
    if let (Some(dense), Some(sparse)) = (dense, sparse) {
        println!(
            "sparse_speedup {:.4} ({FT_SPARSE} {sparse:.1} tokens/s over {FT_DENSE} {dense:.1} \
             tokens/s; informational, never gated)",
            sparse / dense
        );
    }
}

/// A/A self-check: the full set twice on the same tree, second pass in
/// reverse order; every end-to-end metric must agree within its bound.
fn run_aa(args: &RunArgs) -> Result<bool, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let bounds = spec::bounds_from_benchmark_json(&Json::parse(&text)?)?;
    let first: Vec<Outcome> = WORKLOADS.iter().map(|w| run_workload(w, args)).collect();
    let second: Vec<Outcome> = WORKLOADS
        .iter()
        .rev()
        .map(|w| run_workload(w, args))
        .collect();
    let mut ok = first.iter().chain(&second).all(Outcome::correct);
    println!(
        "\n== A/A: two passes over the same tree (seed {}) ==",
        args.seed
    );
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "metric", "workload", "pass A", "pass B", "diff", "bound"
    );
    for def in &END_TO_END {
        let bound = bounds
            .iter()
            .find(|(name, _)| name == def.name)
            .map(|(_, b)| *b)
            .ok_or(format!("BENCHMARK.json has no bound for {}", def.name))?;
        for workload in WORKLOADS {
            let a = value_of(&first, workload, def.name).expect("sealed outcome");
            let b = value_of(&second, workload, def.name).expect("sealed outcome");
            // Either pass may be the worse one; an A/A pair has no direction.
            let diff = stats::relative_worsening(a, b, def.better == Better::Higher).abs();
            let verdict = if diff <= bound { "ok" } else { "DISAGREE" };
            ok &= diff <= bound;
            println!(
                "{:<14} {:<20} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}% {verdict}",
                def.name,
                workload,
                a,
                b,
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    print_sparse_speedup(&first);
    print_sparse_speedup(&second);
    Ok(ok)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("lx-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (policy, _) = recipe::install_policy();
    println!(
        "header {}",
        recipe::header(cli.run.seed, cli.run.seconds, &policy)
    );
    if cli.aa {
        return match run_aa(&cli.run) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("lx-benchmark --aa: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let names: Vec<&'static str> = cli.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    let outcomes: Vec<Outcome> = names.iter().map(|w| run_workload(w, &cli.run)).collect();
    print_sparse_speedup(&outcomes);
    // The contract's result object is the last line of stdout, one per
    // workload (the acceptance driver always names exactly one).
    for out in &outcomes {
        println!("{}", out.result_json());
    }
    if outcomes.iter().all(Outcome::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
