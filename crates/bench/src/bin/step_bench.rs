//! Steady-state training-step benchmark for the cross-step reuse layer:
//! per-step wall time, heap-tensor allocation counts (via the `memtrack`
//! fresh-allocation counters), workspace hit rates, and the predict-time
//! amortisation of plan reuse (`PlanRefreshConfig`).
//!
//! Tables:
//! 1. **steady state** — dense and sparse steps after warmup: mean step
//!    time, predict share, allocations per steady-state step (must be 0),
//!    workspace hits/misses.
//! 2. **plan reuse** — identical calibrated engines run 24 identical steps
//!    with every-step prediction vs a reuse interval: total predict time,
//!    f16 slab blocks decoded, the predict-time ratio (`reuse speedup`) and
//!    the worst per-step loss deviation between the arms.
//!
//! Flags:
//! * `--smoke` — tiny model; gates on **zero steady-state allocations**
//!   (dense + sparse), reuse actually reducing predict time, the reuse
//!   arm's loss curve staying within 0.05 of every-step prediction, and the
//!   disabled-instrumentation overhead estimate staying under 1% of a step.
//!   Exits non-zero on violation (the CI gate).
//! * `--json` — write `BENCH_step_bench.json`.
//! * `--trace <path>` — record the plan-reuse arms in an `lx-obs` trace
//!   session and write a Chrome trace-event JSON (Perfetto-loadable).
//! * `--compare <baseline.json>` / `--tolerance <frac>` — gate the
//!   `reuse speedup` column against a committed baseline
//!   (see `ci/baselines/step_bench.json`).

use long_exposure::engine::StepMode;
use long_exposure::PlanRefreshConfig;
use lx_bench::{calibrated_engine, default_opt, header, load_bench_json, row, BenchCli};
use lx_model::{prompt_aware_targets, ModelConfig, Precision};
use lx_obs::{inert_span_cost_ns, registry, Histogram, TraceSession};
use lx_peft::PeftMethod;
use lx_tensor::memtrack;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

// The workspace pool needs to see every slab-gather width the drifting plan
// produces before allocations reach zero.
const WARMUP: usize = 3;
const REUSE_STEPS: usize = 24;

fn fmt_ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

struct SteadyState {
    mode: &'static str,
    step_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    predict_share: f64,
    allocs_per_step: f64,
    hits: u64,
    misses: u64,
}

/// Run `WARMUP` untimed steps, then `measured` steps with the allocation
/// counters marked, in one mode.
fn steady_state(
    cfg: ModelConfig,
    precision: Precision,
    batch: usize,
    seq: usize,
    mode: StepMode,
    label: &'static str,
    measured: usize,
) -> SteadyState {
    let (mut engine, mut batcher) =
        calibrated_engine(cfg, PeftMethod::lora_default(), batch, seq, 42);
    engine.model.set_precision(precision);
    let mut opt = default_opt();
    let prompt = engine.model.embedding.prompt_len();
    let mut run = |engine: &mut long_exposure::FinetuneEngine, batcher: &mut lx_data::Batcher| {
        let ids = batcher.next_batch(batch, seq);
        let targets = prompt_aware_targets(&ids, batch, seq, prompt);
        engine.train_step_mode(&ids, &targets, batch, seq, &mut opt, mode)
    };
    for _ in 0..WARMUP {
        run(&mut engine, &mut batcher);
    }
    let mark = memtrack::alloc_stats();
    let t0 = Instant::now();
    let mut predict = Duration::ZERO;
    // Per-step latencies feed a log-bucketed histogram so the --json report
    // carries p50/p99, not just the mean (tail steps hide behind a mean).
    let lat = Histogram::new();
    for _ in 0..measured {
        let t_step = Instant::now();
        let out = run(&mut engine, &mut batcher);
        lat.record_duration(t_step.elapsed());
        predict += out.predict;
    }
    let wall = t0.elapsed();
    let allocs = memtrack::alloc_stats().since(&mark);
    let ws = engine.model.workspace_stats();
    SteadyState {
        mode: label,
        step_ms: wall.as_secs_f64() * 1e3 / measured as f64,
        p50_ms: lat.p50() as f64 / 1e6,
        p99_ms: lat.p99() as f64 / 1e6,
        predict_share: predict.as_secs_f64() / wall.as_secs_f64().max(1e-12),
        allocs_per_step: allocs.count as f64 / measured as f64,
        hits: ws.hits,
        misses: ws.misses,
    }
}

/// Estimate the cost of the *disabled* instrumentation on one steady-state
/// sparse step: count the span records and counter calls a traced step makes,
/// multiply by the measured inert-path cost of one operation, and express it
/// as a fraction of the measured step time. Must run while no trace session
/// is active (the whole point is the inert path).
struct OverheadEstimate {
    span_cost_ns: f64,
    ops_per_step: u64,
    fraction: f64,
}

fn overhead_estimate(
    cfg: ModelConfig,
    precision: Precision,
    batch: usize,
    seq: usize,
    step_ms: f64,
) -> OverheadEstimate {
    let span_cost_ns = inert_span_cost_ns(200_000);
    let (mut engine, mut batcher) =
        calibrated_engine(cfg, PeftMethod::lora_default(), batch, seq, 42);
    engine.model.set_precision(precision);
    let mut opt = default_opt();
    let prompt = engine.model.embedding.prompt_len();
    let mut run = |engine: &mut long_exposure::FinetuneEngine, batcher: &mut lx_data::Batcher| {
        let ids = batcher.next_batch(batch, seq);
        let targets = prompt_aware_targets(&ids, batch, seq, prompt);
        engine.train_step_mode(&ids, &targets, batch, seq, &mut opt, StepMode::Sparse);
    };
    for _ in 0..WARMUP {
        run(&mut engine, &mut batcher);
    }
    // One op per `inc` / `add` call, whatever amount it adds: an element
    // counter bumped once per GEMM is one op, not thousands.
    let ops_before: BTreeMap<String, u16> = registry().counter_ops().into_iter().collect();
    let session = TraceSession::start().expect("overhead probe needs the trace ring");
    run(&mut engine, &mut batcher);
    let trace = session.finish();
    let counter_ops: u64 = registry()
        .counter_ops()
        .into_iter()
        .map(|(key, after)| {
            let before = ops_before.get(&key).copied().unwrap_or(0);
            u64::from(after.wrapping_sub(before))
        })
        .sum();
    // Spans + counter bumps + the always-on step histogram record. A counter
    // bump (one relaxed atomic add) costs no more than an inert span check,
    // so pricing every operation at `span_cost_ns` is conservative.
    let ops_per_step = trace.records.len() as u64 + counter_ops + 1;
    OverheadEstimate {
        span_cost_ns,
        ops_per_step,
        fraction: ops_per_step as f64 * span_cost_ns / (step_ms * 1e6).max(1.0),
    }
}

struct ReuseArm {
    predict: Duration,
    decoded: u64,
    losses: Vec<f32>,
    predicted_steps: u64,
    reused_steps: u64,
}

/// 24 identical sparse steps with the given refresh interval, from an
/// identically-seeded calibrated engine (so the arms see the same data).
fn reuse_arm(
    cfg: ModelConfig,
    precision: Precision,
    batch: usize,
    seq: usize,
    interval: usize,
) -> ReuseArm {
    let (mut engine, mut batcher) =
        calibrated_engine(cfg, PeftMethod::lora_default(), batch, seq, 42);
    engine.model.set_precision(precision);
    engine.set_plan_refresh(PlanRefreshConfig {
        interval,
        min_overlap: 0.0,
    });
    let mut opt = default_opt();
    let prompt = engine.model.embedding.prompt_len();
    let mut predict = Duration::ZERO;
    let mut losses = Vec::with_capacity(REUSE_STEPS);
    for _ in 0..REUSE_STEPS {
        let ids = batcher.next_batch(batch, seq);
        let targets = prompt_aware_targets(&ids, batch, seq, prompt);
        let out = engine.train_step_mode(&ids, &targets, batch, seq, &mut opt, StepMode::Sparse);
        predict += out.predict;
        losses.push(out.loss);
    }
    let (decoded, _) = engine.model.slab_cache_stats();
    let stats = engine.plan_reuse_stats();
    ReuseArm {
        predict,
        decoded,
        losses,
        predicted_steps: stats.predicted_steps,
        reused_steps: stats.reused_steps,
    }
}

fn main() {
    let cli = BenchCli::parse("step_bench");
    let smoke = cli.smoke;
    let precision = cli.precision();
    let (cfg, batch, seq, measured) = if smoke {
        (ModelConfig::test_tiny(), 2, 32, 8)
    } else {
        (ModelConfig::opt_sim_small(), 2, 256, 8)
    };
    println!(
        "== step_bench: steady-state reuse ({}, batch {batch}, seq {seq}, warmup {WARMUP}{}) ==\n",
        cfg.name,
        if smoke { ", smoke" } else { "" }
    );

    header(&[
        "mode",
        "step ms",
        "p50 ms",
        "p99 ms",
        "predict share",
        "allocs/step",
        "ws hits",
        "ws misses",
    ]);
    let mut steady = Vec::new();
    for (label, mode) in [("dense", StepMode::Dense), ("sparse", StepMode::Sparse)] {
        let s = steady_state(cfg.clone(), precision, batch, seq, mode, label, measured);
        row(&[
            s.mode.to_string(),
            format!("{:.2}", s.step_ms),
            format!("{:.2}", s.p50_ms),
            format!("{:.2}", s.p99_ms),
            format!("{:.1}%", s.predict_share * 100.0),
            format!("{:.2}", s.allocs_per_step),
            s.hits.to_string(),
            s.misses.to_string(),
        ]);
        steady.push(s);
    }

    // The inert-path probe must run before any --trace session activates the
    // ring (it measures the disabled path); its table is emitted after the
    // reuse table so baseline table indices stay stable.
    let overhead =
        smoke.then(|| overhead_estimate(cfg.clone(), precision, batch, seq, steady[1].step_ms));

    let trace_path = cli.value("--trace").map(PathBuf::from);
    let trace_session = trace_path
        .as_ref()
        .map(|_| TraceSession::start().expect("step_bench --trace: session already active"));

    println!();
    header(&[
        "arm",
        "predicted",
        "reused",
        "predict ms",
        "slabs decoded",
        "reuse speedup",
        "max loss dev",
    ]);
    // The speedup row regression-gates via `--compare`.
    let every = reuse_arm(cfg.clone(), precision, batch, seq, 1);
    let reused = reuse_arm(cfg.clone(), precision, batch, seq, 4);
    let max_dev = every
        .losses
        .iter()
        .zip(&reused.losses)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    let speedup = every.predict.as_secs_f64() / reused.predict.as_secs_f64().max(1e-12);
    row(&[
        "predict every step".into(),
        every.predicted_steps.to_string(),
        every.reused_steps.to_string(),
        fmt_ms(every.predict),
        every.decoded.to_string(),
        "1.00x".into(),
        "0.000".into(),
    ]);
    row(&[
        "reuse interval 4".into(),
        reused.predicted_steps.to_string(),
        reused.reused_steps.to_string(),
        fmt_ms(reused.predict),
        reused.decoded.to_string(),
        format!("{speedup:.2}x"),
        format!("{max_dev:.3}"),
    ]);
    if let Some(est) = &overhead {
        println!();
        header(&["instrumentation", "span cost ns", "ops/step", "overhead"]);
        row(&[
            "disabled-path estimate".into(),
            format!("{:.1}", est.span_cost_ns),
            est.ops_per_step.to_string(),
            format!("{:.3}%", est.fraction * 100.0),
        ]);
    }
    if let (Some(session), Some(path)) = (trace_session, trace_path.as_ref()) {
        let trace = session.finish();
        match trace.write_chrome(path) {
            Ok(()) => println!(
                "\nwrote Chrome trace to {} ({} spans, {} dropped) — load in Perfetto",
                path.display(),
                trace.records.len(),
                trace.dropped
            ),
            Err(e) => eprintln!(
                "\nstep_bench: failed to write trace {}: {e}",
                path.display()
            ),
        }
        println!("{}", trace.summary());
    }

    println!(
        "\nshape to check: allocs/step is 0 after warmup in both modes; plan reuse cuts \
         predict time and slab decodes while the loss curve stays within 0.05."
    );
    cli.finish();

    let mut gate_failed = false;
    if let Some(path) = cli.value("--compare") {
        let tolerance = cli
            .value("--tolerance")
            .map(|t| {
                t.parse::<f64>()
                    .expect("--tolerance takes a fraction, e.g. 0.6")
            })
            .unwrap_or(0.6);
        match load_bench_json(std::path::Path::new(&path)) {
            Ok(baseline) => {
                let (checked, regressions) =
                    lx_bench::compare_to_baseline(&baseline, "reuse speedup", tolerance);
                println!(
                    "\nbench-regression gate vs {path}: {} comparisons at {:.0}% tolerance",
                    checked.len(),
                    tolerance * 100.0
                );
                for line in &checked {
                    println!("  {line}");
                }
                for line in &regressions {
                    eprintln!("  REGRESSION {line}");
                }
                if checked.is_empty() && regressions.is_empty() {
                    eprintln!("step_bench: baseline matched no rows — wrong file?");
                    gate_failed = true;
                }
                gate_failed |= !regressions.is_empty();
            }
            Err(e) => {
                eprintln!("step_bench: cannot load baseline: {e}");
                gate_failed = true;
            }
        }
    }
    if smoke {
        for s in &steady {
            if s.allocs_per_step > 0.0 {
                eprintln!(
                    "step_bench: {} steady state allocated {:.2} heap tensors/step (expected 0)",
                    s.mode, s.allocs_per_step
                );
                gate_failed = true;
            }
        }
        if reused.predict >= every.predict {
            eprintln!(
                "step_bench: plan reuse did not reduce predict time ({:?} vs {:?})",
                reused.predict, every.predict
            );
            gate_failed = true;
        }
        if reused.decoded > every.decoded {
            eprintln!(
                "step_bench: plan reuse decoded more slabs ({} vs {})",
                reused.decoded, every.decoded
            );
            gate_failed = true;
        }
        if max_dev > 0.05 {
            eprintln!("step_bench: reuse loss curve deviated by {max_dev} (> 0.05)");
            gate_failed = true;
        }
        if let Some(est) = &overhead {
            if est.fraction >= 0.01 {
                eprintln!(
                    "step_bench: disabled instrumentation estimated at {:.3}% of a step (gate: <1%)",
                    est.fraction * 100.0
                );
                gate_failed = true;
            }
        }
    }
    if gate_failed {
        std::process::exit(1);
    }
}
