//! Multi-tenant serving throughput: `--tenants M` concurrent jobs (default 8
//! on `--smoke`, 128 full — every 2nd tenant an Interactive fusable eval job,
//! the rest Batch LoRA training) over ONE calibrated predictor set, drained
//! by the `lx-cluster` scheduler at each replica count in `--replicas`
//! (default `1`: the single shared backbone). Reports an aggregate
//! steps/s-vs-replicas table with p50/p99 step latency from the
//! `serve.step.ns` histogram, fused-step and steal counters.
//!
//! ```sh
//! cargo run --release -p lx-bench --bin serve_throughput
//! cargo run --release -p lx-bench --bin serve_throughput -- --smoke --replicas 1,2,4
//! ```
//!
//! `--smoke` shrinks the workload (4 steps of 2 accumulated micro-batches
//! each, seq 32) and turns the run into a CI gate: every tenant must
//! complete with finite losses and a per-step progress event stream that
//! mirrors its final report, fusion must engage when enough eval tenants
//! co-queue, and — only when the host exposes enough cores — replica-scaling
//! floors must hold, else the exit code is non-zero.
//!
//! `--precision f32|f16|nf4` picks the backbone storage plan
//! (default f16, the production configuration).
//!
//! `--trace <path>` records the run in an `lx-obs` trace session and writes
//! a Chrome trace-event JSON: tenant slices, adapter swaps and step phases
//! on one Perfetto timeline.
//!
//! `--compare <baseline.json> [--tolerance <frac>]` additionally gates the
//! `speedup` column against a committed baseline
//! (`ci/baselines/serve_throughput.json`); improvements never fail.

use long_exposure::engine::{EngineConfig, StepMode};
use lx_bench::{fmt_ms, header, load_bench_json, row, sim_model, BenchCli, SIM_BLOCK};
use lx_cluster::{ClusterConfig, ClusterScheduler, QosClass, QosQuotas};
use lx_model::{ModelConfig, Precision};
use lx_obs::TraceSession;
use lx_serve::{AdapterRegistry, DatasetSpec, JobSpec, StepEvent};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct Workload {
    steps_per_tenant: u64,
    batch: usize,
    seq: usize,
    /// Micro-batches accumulated per optimizer step.
    micro_batches: usize,
}

const FULL: Workload = Workload {
    steps_per_tenant: 8,
    batch: 1,
    seq: 64,
    micro_batches: 1,
};

const SMOKE: Workload = Workload {
    steps_per_tenant: 4,
    batch: 1,
    seq: 32,          // still a multiple of SIM_BLOCK
    micro_batches: 2, // exercise gradient accumulation in the CI gate
};

fn backbone(seed: u64) -> lx_model::TransformerModel {
    let mut model = sim_model(ModelConfig::opt_sim_small(), seed);
    model.freeze_all();
    model
}

fn engine_cfg(w: &Workload) -> EngineConfig {
    EngineConfig {
        block_size: SIM_BLOCK,
        attn_prob_threshold: 8.0 / w.seq as f32,
        calib_epochs: 80,
        ..EngineConfig::default()
    }
}

fn calib_batches(w: &Workload) -> Vec<(Vec<u32>, usize, usize)> {
    let spec = DatasetSpec::E2e {
        world_seed: 0x5eed,
        salt: 0,
    };
    let mut batcher = spec.build_batcher(1024, 50_000);
    (0..3)
        .map(|_| (batcher.next_batch(w.batch, w.seq), w.batch, w.seq))
        .collect()
}

/// Cluster tenant mix: every 2nd tenant is an Interactive, fusable eval job
/// (single micro-batch, shared shape), the rest Batch LoRA training.
fn cluster_specs(w: &Workload, tenants: usize) -> Vec<(JobSpec, QosClass)> {
    (0..tenants)
        .map(|i| {
            let mut spec =
                JobSpec::lora(format!("tenant-{i:03}"), w.steps_per_tenant, w.batch, w.seq);
            spec.dataset = DatasetSpec::E2e {
                world_seed: 0x5eed,
                salt: 1000 + i as u64,
            };
            spec.stream_len = 50_000;
            if i % 2 == 1 {
                spec.eval_only = true;
                spec.micro_batches = 1;
                (spec, QosClass::Interactive)
            } else {
                spec.micro_batches = w.micro_batches;
                (spec, QosClass::Batch)
            }
        })
        .collect()
}

/// Minimum aggregate-steps/s scaling expected over the 1-replica arm, when
/// the host actually has the cores to show it.
fn scaling_floor(replicas: usize) -> Option<f64> {
    match replicas {
        0 | 1 => None,
        2 | 3 => Some(1.4),
        _ => Some(2.5),
    }
}

/// The replica sweep. Emits exactly one collected table (the
/// baseline/compare unit) and returns gate violations (enforced on --smoke).
fn cluster_sweep(
    w: &Workload,
    precision: Precision,
    replica_list: &[usize],
    tenants: usize,
) -> Vec<String> {
    let n_eval = tenants / 2;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Speedups are relative to the first listed arm, so scaling floors only
    // mean anything when that arm is the 1-replica baseline (a single-count
    // CI matrix arm gates completion and fusion, not scaling).
    let scaled_vs_one = replica_list.first() == Some(&1);
    println!(
        "\n== cluster scaling sweep: {} tenants ({} Batch train + {} Interactive eval, fusable) \
         × {} steps, replicas {:?}, {} host core(s) ==",
        tenants,
        tenants - n_eval,
        n_eval,
        w.steps_per_tenant,
        replica_list,
        cores,
    );
    let step_hist = lx_obs::registry().histogram("serve.step.ns");
    let mut violations = Vec::new();
    let mut baseline_sps: Option<f64> = None;
    struct Arm {
        replicas: usize,
        steps: u64,
        wall_ms: f64,
        sps: f64,
        speedup: f64,
        floor: Option<f64>,
        enforced: bool,
        p50_ms: f64,
        p99_ms: f64,
        fused: u64,
        steals: u64,
    }
    let mut arms: Vec<Arm> = Vec::new();
    for &replicas in replica_list {
        let mut cluster = ClusterScheduler::new(
            |_| backbone(42),
            engine_cfg(w),
            ClusterConfig {
                replicas,
                slice_steps: 2,
                mode: StepMode::Sparse,
                precision,
                // Size quotas to the offered load: backpressure behaviour is
                // proven by the integration suite; the sweep measures
                // steady-state throughput.
                quotas: QosQuotas {
                    interactive: n_eval.max(64),
                    batch: tenants.max(256),
                    ..QosQuotas::default()
                },
                fusion: true,
                max_fused: 8,
                sequential_gemm: true,
            },
            Arc::new(AdapterRegistry::in_memory()),
        );
        let t0 = Instant::now();
        cluster.calibrate_shared(&calib_batches(w));
        println!(
            "replicas {replicas}: calibrated once on replica 0, broadcast in {} ms",
            fmt_ms(t0.elapsed())
        );
        // Every tenant streams per-step progress events; the gate below
        // checks the stream mirrors the terminal report.
        let events: Arc<Mutex<Vec<StepEvent>>> = Arc::new(Mutex::new(Vec::new()));
        for (spec, class) in cluster_specs(w, tenants) {
            let tenant = spec.tenant.clone();
            let sink_events = events.clone();
            let sink = Box::new(move |e| sink_events.lock().unwrap().push(e));
            if !cluster
                .submit_with_progress(spec, class, Some(sink))
                .is_admitted()
            {
                violations.push(format!("replicas {replicas}: {tenant} not admitted"));
            }
        }
        step_hist.reset();
        let t0 = Instant::now();
        let report = cluster.run_to_completion();
        let wall = t0.elapsed();
        let snap = cluster.metrics();
        if report.reports.len() != tenants {
            violations.push(format!(
                "replicas {replicas}: {} of {tenants} tenants completed",
                report.reports.len()
            ));
        }
        for f in &report.failures {
            violations.push(format!(
                "replicas {replicas}: {} failed: {}",
                f.tenant, f.error
            ));
        }
        if !report.quarantined.is_empty() {
            violations.push(format!(
                "replicas {replicas}: replicas {:?} quarantined without fault injection",
                report.quarantined
            ));
        }
        let events = events.lock().unwrap();
        for r in &report.reports {
            if r.steps != w.steps_per_tenant {
                violations.push(format!(
                    "replicas {replicas}/{}: {} of {} steps",
                    r.tenant, r.steps, w.steps_per_tenant
                ));
            }
            if !r.losses.iter().all(|l| l.is_finite()) {
                violations.push(format!("replicas {replicas}/{}: non-finite loss", r.tenant));
            }
            // One event per step, in order, carrying the report's losses.
            let streamed: Vec<f32> = events
                .iter()
                .filter(|e| e.tenant == r.tenant)
                .map(|e| e.loss)
                .collect();
            if streamed != r.losses {
                violations.push(format!(
                    "replicas {replicas}/{}: progress events do not mirror the report",
                    r.tenant
                ));
            }
        }
        if snap.utilisation() <= 0.0 {
            violations.push(format!("replicas {replicas}: zero utilisation"));
        }
        // Fusion must engage once ≥2 fusable eval tenants share each
        // replica's queue on average; below that, placement may legitimately
        // scatter them one-per-replica.
        if n_eval >= 2 * replicas && report.fused_steps == 0 {
            violations.push(format!(
                "replicas {replicas}: no fused eval steps despite {n_eval} fusable tenants"
            ));
        }
        let sps = snap.total_steps as f64 / wall.as_secs_f64();
        let speedup = sps / *baseline_sps.get_or_insert(sps);
        let floor = if scaled_vs_one {
            scaling_floor(replicas)
        } else {
            None
        };
        let enforced = floor.is_some() && cores >= replicas;
        if let Some(f) = floor {
            if enforced {
                if speedup < f {
                    violations.push(format!(
                        "replicas {replicas}: aggregate scaling {speedup:.2}x below the {f:.2}x floor"
                    ));
                }
            } else {
                println!(
                    "serve_throughput: SKIP {replicas}-replica {f:.2}x scaling floor — host exposes \
                     {cores} core(s)"
                );
            }
        }
        arms.push(Arm {
            replicas,
            steps: snap.total_steps,
            wall_ms: wall.as_secs_f64() * 1e3,
            sps,
            speedup,
            floor,
            enforced,
            p50_ms: step_hist.p50() as f64 / 1e6,
            p99_ms: step_hist.p99() as f64 / 1e6,
            fused: report.fused_steps,
            steals: report.steals,
        });
    }
    println!();
    header(&[
        "replicas",
        "tenants",
        "steps",
        "wall ms",
        "steps/s",
        "speedup",
        "floor",
        "step p50 ms",
        "step p99 ms",
        "fused steps",
        "steals",
    ]);
    for a in &arms {
        let floor = match (a.floor, a.enforced) {
            (Some(f), true) => format!("{f:.2}x"),
            (Some(f), false) => format!("({f:.2}x skip)"),
            (None, _) => "-".to_string(),
        };
        row(&[
            a.replicas.to_string(),
            tenants.to_string(),
            a.steps.to_string(),
            format!("{:.1}", a.wall_ms),
            format!("{:.2}", a.sps),
            format!("{:.2}x", a.speedup),
            floor,
            format!("{:.2}", a.p50_ms),
            format!("{:.2}", a.p99_ms),
            a.fused.to_string(),
            a.steals.to_string(),
        ]);
    }
    violations
}

fn main() {
    let cli = BenchCli::parse("serve_throughput");
    let smoke = cli.smoke;
    let w = if smoke { &SMOKE } else { &FULL };
    // Default to the production storage plan (half-stored shared backbone);
    // `--precision f32` keeps the trajectory comparable with older runs.
    let precision = cli.precision();
    println!("== serve_throughput: multi-tenant PEFT serving benchmark ({precision} backbone) ==");
    let trace_path = cli.value("--trace").map(PathBuf::from);
    let trace_session = trace_path
        .as_ref()
        .map(|_| TraceSession::start().expect("serve_throughput --trace: session already active"));
    let replica_list: Vec<usize> = cli
        .value("--replicas")
        .unwrap_or("1")
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .expect("--replicas takes a comma list of counts, e.g. 1,2,4")
        })
        .collect();
    assert!(
        replica_list.iter().all(|&r| r >= 1),
        "--replicas needs at least one count >= 1"
    );
    let tenants = cli
        .value("--tenants")
        .map(|t| t.parse::<usize>().expect("--tenants takes a count"))
        .unwrap_or(if smoke { 8 } else { 128 });
    let violations = cluster_sweep(w, precision, &replica_list, tenants);
    if let (Some(session), Some(path)) = (trace_session, trace_path.as_ref()) {
        let trace = session.finish();
        match trace.write_chrome(path) {
            Ok(()) => println!(
                "wrote Chrome trace to {} ({} spans, {} dropped) — load in Perfetto",
                path.display(),
                trace.records.len(),
                trace.dropped
            ),
            Err(e) => eprintln!(
                "serve_throughput: failed to write trace {}: {e}",
                path.display()
            ),
        }
    }
    cli.finish();
    let mut compare_failed = false;
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
                    lx_bench::compare_to_baseline(&baseline, "speedup", tolerance);
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
                    eprintln!("serve_throughput: baseline matched no rows — wrong file?");
                    compare_failed = true;
                }
                compare_failed |= !regressions.is_empty();
            }
            Err(e) => {
                eprintln!("serve_throughput: cannot load baseline: {e}");
                compare_failed = true;
            }
        }
    }
    if smoke && !violations.is_empty() {
        for v in &violations {
            eprintln!("serve_throughput smoke gate: {v}");
        }
        std::process::exit(1);
    }
    if compare_failed {
        std::process::exit(1);
    }
}
