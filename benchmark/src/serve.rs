//! `serve-mixed-32t`: an operator draining 32 tenants' jobs through the
//! replicated-backbone cluster. Closed loop: each round submits all 32 jobs
//! up-front and waits for the backlog to drain; rounds repeat for the
//! window's duration (no layer can admit work mid-drain yet).

use crate::json::Json;
use crate::measure::{latency_metrics, Counters, Outcome};
use crate::probes::{self, ProbeInput};
use crate::recipe::{self, SplitMix, ADAPTER_SEED, WARMUP_STEPS};
use crate::spec::SERVE_MIXED;
use crate::{stats, trace, RunArgs};
use long_exposure::engine::StepMode;
use lx_cluster::{ClusterConfig, ClusterReport, ClusterScheduler, QosClass, QosQuotas};
use lx_model::{ModelConfig, Precision};
use lx_obs::Span;
use lx_peft::PeftMethod;
use lx_serve::{AdapterRegistry, DatasetSpec, JobSpec, StepEvent};
use lx_tensor::memtrack;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TENANTS: usize = 32;
const STEPS_PER_TENANT: u64 = 8;
const BATCH: usize = 1;
const SEQ: usize = 64;
const SLICE_STEPS: u64 = 2;
/// Tokens materialised per tenant stream (a job consumes 512).
const STREAM_LEN: usize = 8_000;
const PRECISION: Precision = Precision::F16Frozen;

/// What a tenant asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    BatchLora,
    BatchAdapter,
    /// The issue asked for BitFit here; `JobSpec::validate` rejects it
    /// (not detachable), so the third method is prompt tuning.
    BestEffortPrompt,
    InteractiveEval,
}

const ROLE_MIX: [(Role, usize); 4] = [
    (Role::BatchLora, 16),
    (Role::BatchAdapter, 4),
    (Role::BestEffortPrompt, 4),
    (Role::InteractiveEval, 8),
];

impl Role {
    fn method(self) -> PeftMethod {
        match self {
            Role::BatchLora | Role::InteractiveEval => PeftMethod::lora_default(),
            Role::BatchAdapter => PeftMethod::adapter_default(),
            Role::BestEffortPrompt => PeftMethod::PromptTuning { prompt_len: 16 },
        }
    }

    fn class(self) -> QosClass {
        match self {
            Role::BatchLora | Role::BatchAdapter => QosClass::Batch,
            Role::BestEffortPrompt => QosClass::BestEffort,
            Role::InteractiveEval => QosClass::Interactive,
        }
    }
}

fn replicas() -> usize {
    recipe::nproc().min(2)
}

/// The round's 32 jobs in submission order. `seed` picks the world, which
/// tenant plays which role, the order they arrive in and their data salts;
/// `label` keeps warm-up tenants apart from measured ones in the registry.
fn jobs(seed: u64, label: char, round: usize, steps: u64) -> Vec<(JobSpec, Role)> {
    let mut rng = SplitMix(seed ^ ((round as u64) << 32));
    let mut roles: Vec<Role> = ROLE_MIX
        .iter()
        .flat_map(|&(role, n)| std::iter::repeat_n(role, n))
        .collect();
    rng.shuffle(&mut roles);
    let mut order: Vec<usize> = (0..TENANTS).collect();
    rng.shuffle(&mut order);
    order
        .into_iter()
        .map(|i| {
            let role = roles[i];
            let mut spec = JobSpec::lora(format!("{label}{round:03}-t{i:02}"), steps, BATCH, SEQ);
            spec.method = role.method();
            spec.dataset = DatasetSpec::E2e {
                world_seed: seed,
                salt: rng.next(),
            };
            spec.adapter_seed = ADAPTER_SEED + i as u64;
            spec.stream_len = STREAM_LEN;
            spec.eval_only = role == Role::InteractiveEval;
            (spec, role)
        })
        .collect()
}

#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    total: Duration,
    policy: Duration,
    build: Duration,
    calibrate: Duration,
    warmup: Duration,
}

struct Rig {
    cluster: ClusterScheduler,
    times: SetupTimes,
    recall: f64,
    rounds_done: usize,
}

type EventLog = Arc<Mutex<Vec<(StepEvent, Instant)>>>;

/// One submit-all-then-drain round.
struct Round {
    /// Submission plus drain.
    wall: Duration,
    drain: Duration,
    tokens: u64,
    events: Vec<(StepEvent, Instant)>,
    report: ClusterReport,
    /// Per job: its submit call → its last step's progress event.
    job_s: Vec<f64>,
    /// Drain start → the last Interactive job's final event.
    interactive_drain_s: f64,
    rejected: u64,
}

fn setup(seed: u64) -> Rig {
    let t0 = Instant::now();
    let mut times = SetupTimes {
        policy: recipe::install_policy().1,
        ..SetupTimes::default()
    };
    let t = Instant::now();
    let n = replicas();
    let mut cluster = ClusterScheduler::new(
        |_| {
            let mut model = recipe::sim_model(ModelConfig::opt_sim_small());
            model.freeze_all();
            model
        },
        recipe::engine_config(SEQ, 1),
        ClusterConfig {
            replicas: n,
            slice_steps: SLICE_STEPS,
            mode: StepMode::Sparse,
            precision: PRECISION,
            quotas: QosQuotas {
                interactive: TENANTS,
                batch: TENANTS,
                best_effort: TENANTS,
            },
            fusion: true,
            max_fused: 8,
            sequential_gemm: true,
        },
        Arc::new(AdapterRegistry::in_memory()),
    );
    times.build = t.elapsed();
    let t = Instant::now();
    let vocab = ModelConfig::opt_sim_small().vocab_size as u32;
    let mut calib_stream = DatasetSpec::E2e {
        world_seed: seed,
        salt: seed ^ 0xca11b,
    }
    .build_batcher(vocab, STREAM_LEN);
    let calib: Vec<(Vec<u32>, usize, usize)> = (0..3)
        .map(|_| (calib_stream.next_batch(BATCH, SEQ), BATCH, SEQ))
        .collect();
    let report = cluster.calibrate_shared(&calib);
    times.calibrate = t.elapsed();
    let mut rig = Rig {
        cluster,
        times,
        recall: f64::from(report.mean_attn_recall() + report.mean_mlp_recall()) / 2.0,
        rounds_done: 0,
    };
    // Warm-up: a full-width round of WARMUP_STEPS steps per tenant fills
    // every replica's pools and lazily-built state.
    let t = Instant::now();
    let mut discard = Outcome::default();
    round(&mut rig, seed, 'w', WARMUP_STEPS as u64, &mut discard);
    assert!(
        discard.violations.is_empty(),
        "warm-up round: {:?}",
        discard.violations
    );
    rig.times.warmup = t.elapsed();
    rig.times.total = t0.elapsed();
    rig
}

fn round(rig: &mut Rig, seed: u64, label: char, steps: u64, out: &mut Outcome) -> Round {
    let index = rig.rounds_done;
    rig.rounds_done += 1;
    let _round_span = Span::enter("bench.driver.step")
        .cat("bench")
        .tenant(SERVE_MIXED)
        .index(index as u64);
    let log: EventLog = Arc::new(Mutex::new(Vec::new()));
    let work = jobs(seed, label, index, steps);
    let t0 = Instant::now();
    let mut submitted = Vec::with_capacity(work.len());
    let mut rejected = 0;
    for (spec, role) in &work {
        let _s = Span::enter("bench.lx-cluster.submit")
            .cat("bench")
            .tenant(&spec.tenant);
        let sink_log = log.clone();
        let at = Instant::now();
        let verdict = rig.cluster.submit_with_progress(
            spec.clone(),
            role.class(),
            Some(Box::new(move |e| {
                sink_log
                    .lock()
                    .expect("progress log")
                    .push((e, Instant::now()));
            })),
        );
        if verdict.is_admitted() {
            submitted.push((spec.tenant.clone(), *role, at));
        } else {
            rejected += 1;
            out.violation(1, format!("{} not admitted: {verdict:?}", spec.tenant));
        }
    }
    let drain_start = Instant::now();
    let report = {
        let _s = Span::enter("bench.lx-cluster.run_to_completion")
            .cat("bench")
            .index(index as u64);
        rig.cluster.run_to_completion()
    };
    let done = Instant::now();
    let events = std::mem::take(&mut *log.lock().expect("progress log"));

    let finished_at = |tenant: &str| {
        events
            .iter()
            .find(|(e, _)| e.tenant == tenant && e.step == e.total_steps)
            .map(|(_, at)| *at)
    };
    let mut job_s = Vec::new();
    let mut interactive_done = drain_start;
    for (tenant, role, at) in &submitted {
        if let Some(end) = finished_at(tenant) {
            job_s.push((end - *at).as_secs_f64());
            if *role == Role::InteractiveEval {
                interactive_done = interactive_done.max(end);
            }
        }
    }
    Round {
        wall: done - t0,
        drain: done - drain_start,
        tokens: events.iter().map(|(e, _)| e.tokens(BATCH, SEQ)).sum(),
        events,
        report,
        job_s,
        interactive_drain_s: (interactive_done - drain_start).as_secs_f64(),
        rejected,
    }
}

/// The correctness gate of one round.
fn gate(r: &Round, steps: u64, out: &mut Outcome) {
    out.attempted += TENANTS as u64 + TENANTS as u64 * steps;
    let report = &r.report;
    for f in &report.failures {
        out.violation(1, format!("{} failed: {}", f.tenant, f.error));
    }
    if !report.quarantined.is_empty() {
        out.violation(1, format!("replicas {:?} quarantined", report.quarantined));
    }
    let expected = TENANTS as u64 - r.rejected;
    if report.reports.len() as u64 + report.failures.len() as u64 != expected {
        let missing = expected.saturating_sub(report.reports.len() as u64);
        out.violation(
            missing,
            format!("{} of {expected} jobs reported", report.reports.len()),
        );
    }
    if report.fused_steps == 0 {
        out.violation(
            1,
            "no fused eval steps despite 8 fusable Interactive jobs".into(),
        );
    }
    for job in &report.reports {
        if job.steps != steps {
            out.violation(1, format!("{}: {} of {steps} steps", job.tenant, job.steps));
        }
        let non_finite = job.losses.iter().filter(|l| !l.is_finite()).count() as u64;
        if non_finite > 0 {
            out.violation(non_finite, format!("{}: non-finite loss", job.tenant));
        }
        let streamed: Vec<f32> = r
            .events
            .iter()
            .filter(|(e, _)| e.tenant == job.tenant)
            .map(|(e, _)| e.loss)
            .collect();
        let mirrors = streamed.len() == job.losses.len()
            && streamed
                .iter()
                .zip(&job.losses)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !mirrors {
            out.violation(
                1,
                format!("{}: progress events do not mirror the report", job.tenant),
            );
        }
    }
}

struct Window {
    rounds: Vec<Round>,
    wall: Duration,
    counters: Counters,
    peak_bytes: usize,
}

impl Window {
    fn step_ms(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| r.events.iter())
            .map(|(e, _)| e.step_time.as_secs_f64() * 1e3)
            .collect()
    }

    fn tokens_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| r.tokens as f64 / r.wall.as_secs_f64())
            .collect();
        stats::median(&rates)
    }

    fn drain_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.drain.as_secs_f64()).sum()
    }

    fn median_of(&self, f: impl Fn(&Round) -> f64) -> f64 {
        stats::median(&self.rounds.iter().map(f).collect::<Vec<_>>())
    }
}

fn window(rig: &mut Rig, seed: u64, seconds: f64, min_rounds: usize, out: &mut Outcome) -> Window {
    let mark = Counters::now();
    memtrack::reset_peak();
    let t0 = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || t0.elapsed().as_secs_f64() < seconds {
        let r = round(rig, seed, 'r', STEPS_PER_TENANT, out);
        gate(&r, STEPS_PER_TENANT, out);
        rounds.push(r);
    }
    Window {
        rounds,
        wall: t0.elapsed(),
        counters: Counters::now().since(&mark),
        peak_bytes: memtrack::peak_bytes(),
    }
}

fn run_untraced(args: &RunArgs) -> Outcome {
    let mut out = Outcome {
        workload: SERVE_MIXED,
        ..Outcome::default()
    };
    let (mut rig, setup_s) = recipe::repeated_setup(args.quick, || {
        let rig = setup(args.seed);
        let took = rig.times.total;
        (rig, took)
    });
    let (seconds, min_rounds) = if args.quick {
        (0.0, 1)
    } else {
        (args.seconds, 2)
    };
    // Round numbering restarts so a seed names the same jobs in every run.
    rig.rounds_done = 0;
    let w = window(&mut rig, args.seed, seconds, min_rounds, &mut out);

    out.metrics.insert("tokens_per_s", w.tokens_per_s());
    latency_metrics(&mut out, &w.step_ms());
    // Mean final loss over round 0's jobs: fixed work, so it repeats
    // exactly for a seed however many rounds the window fits.
    let finals: Vec<f64> = w.rounds[0]
        .report
        .reports
        .iter()
        .map(|job| f64::from(job.final_loss()))
        .collect();
    out.metrics.insert("final_loss", stats::mean(&finals));
    out.metrics.insert("setup_s", setup_s);
    out.info.push(("rounds".into(), w.rounds.len() as f64));
    out.info.push(("window_s".into(), w.wall.as_secs_f64()));
    out.info
        .push(("job_s_p50".into(), w.median_of(|r| stats::median(&r.job_s))));
    out.info.push((
        "interactive_drain_s".into(),
        w.median_of(|r| r.interactive_drain_s),
    ));
    out.info.push((
        "fused_steps_per_round".into(),
        w.median_of(|r| r.report.fused_steps as f64),
    ));
    out.info
        .push(("peak_tensor_bytes".into(), w.peak_bytes as f64));
    for (name, d) in [
        ("setup.build_s", rig.times.build),
        ("setup.calibrate_s", rig.times.calibrate),
        ("setup.warmup_s", rig.times.warmup),
    ] {
        out.info.push((name.into(), d.as_secs_f64()));
    }
    out
}

fn run_traced(args: &RunArgs) -> Outcome {
    let mut out = Outcome {
        workload: SERVE_MIXED,
        traced: true,
        ..Outcome::default()
    };
    let mut rig = setup(args.seed);
    rig.rounds_done = 0;
    let (seconds, min_rounds) = if args.quick {
        (0.0, 1)
    } else {
        (args.seconds, 2)
    };
    let untraced = window(&mut rig, args.seed, seconds / 3.0, min_rounds, &mut out);
    let busy_mark = rig.cluster.metrics().total_busy;
    let (w, recorded) = trace::record(SERVE_MIXED, || {
        window(
            &mut rig,
            args.seed,
            seconds * 2.0 / 3.0,
            min_rounds,
            &mut out,
        )
    });
    let snapshot = rig.cluster.metrics();

    let events: Vec<&StepEvent> = w
        .rounds
        .iter()
        .flat_map(|r| r.events.iter().map(|(e, _)| e))
        .collect();
    let steps = events.len();
    w.counters.per_step_metrics(steps, &mut out);
    let records = &recorded.trace.records;
    let by_span = trace::name_times(records);
    let self_ns = |name: &str| by_span.get(name).map_or(0, |t| t.self_ns);
    // A fused eval step serves several tenants with one model step.
    let model_steps = by_span.get("model.step").map_or(1, |t| t.spans.max(1)) as f64;
    let density = |f: fn(&StepEvent) -> Option<f32>| {
        let sampled: Vec<f64> = events.iter().filter_map(|e| f(e).map(f64::from)).collect();
        stats::mean_or(&sampled, 1.0)
    };
    let (attn_density, mlp_density) = (density(|e| e.attn_density), density(|e| e.mlp_density));
    let replica_ns = (replicas() as f64) * w.drain_s() * 1e9;
    let slices: u64 = snapshot.per_tenant.values().map(|t| t.slices).sum();
    let swap: Duration = snapshot.per_tenant.values().map(|t| t.swap).sum();
    let fusable_steps = (w.rounds.len() as u64) * 8 * STEPS_PER_TENANT;
    let fused_jobs: u64 = w.rounds.iter().map(|r| r.report.fused_jobs).sum();
    let wait = lx_obs::registry().histogram("serve.cluster.wait_ns");

    let m = &mut out.metrics;
    m.insert(
        "long-exposure.predict_share",
        100.0 * trace::total_ns(records, "model.predict") as f64
            / trace::total_ns(records, "model.step").max(1) as f64,
    );
    // Every-step prediction; the cluster does not expose its engines' plan
    // caches, so reuse is not observable from outside.
    m.insert("long-exposure.plan_reuse_ratio", 0.0);
    m.insert("long-exposure.calib_recall", rig.recall);
    m.insert(
        "long-exposure.calibrate_s",
        rig.times.calibrate.as_secs_f64(),
    );
    m.insert(
        "lx-model.forward_ms",
        self_ns("model.forward_pass") as f64 / 1e6 / model_steps,
    );
    m.insert(
        "lx-model.backward_ms",
        self_ns("model.backward") as f64 / 1e6 / model_steps,
    );
    m.insert(
        "lx-model.optimizer_ms",
        self_ns("model.optimizer") as f64 / 1e6 / model_steps,
    );
    m.insert("lx-model.attn_density", attn_density);
    m.insert("lx-model.mlp_density", mlp_density);
    m.insert("lx-model.skipped_steps", 0.0);
    m.insert("lx-tensor.peak_bytes", w.peak_bytes as f64);
    m.insert(
        "lx-serve.swap_ms_per_slice",
        swap.as_secs_f64() * 1e3 / slices.max(1) as f64,
    );
    m.insert(
        "lx-serve.utilisation",
        (snapshot.total_busy - busy_mark).as_secs_f64() * 1e9 / replica_ns,
    );
    m.insert("lx-serve.slice_wait_ms_p50", wait.p50() as f64 / 1e6);
    m.insert(
        "lx-cluster.fused_share",
        fused_jobs as f64 / fusable_steps as f64,
    );
    m.insert(
        "lx-cluster.replica_idle_share",
        1.0 - trace::worker_busy_ns(records, recorded.driver_tid) as f64 / replica_ns,
    );
    m.insert(
        "lx-cluster.job_s_p50",
        w.median_of(|r| stats::median(&r.job_s)),
    );
    m.insert(
        "lx-cluster.interactive_drain_s",
        w.median_of(|r| r.interactive_drain_s),
    );
    m.insert("lx-runtime.policy_s", rig.times.policy.as_secs_f64());
    m.insert(
        "lx-obs.trace_overhead",
        w.tokens_per_s() / untraced.tokens_per_s(),
    );
    m.insert("lx-obs.dropped_spans", recorded.trace.dropped as f64);

    let cfg = ModelConfig::opt_sim_small();
    let methods: Vec<PeftMethod> = ROLE_MIX.iter().map(|(role, _)| role.method()).collect();
    let (batch_ms, kernel_detail) = probes::run(
        &ProbeInput {
            cfg: &cfg,
            batch: BATCH,
            seq: SEQ,
            precision: PRECISION,
            attn_density,
            mlp_density,
            methods: &methods,
            stream_len: STREAM_LEN,
        },
        &mut out,
    );
    // Tenants draw their batches inside the replica workers, out of reach
    // of the driver's spans: the replayed cost stands in.
    out.metrics.insert("lx-data.batch_ms_per_step", batch_ms);
    out.info
        .push(("traced_rounds".into(), w.rounds.len() as f64));
    out.info
        .push(("untraced_tokens_per_s".into(), untraced.tokens_per_s()));
    out.info
        .push(("traced_tokens_per_s".into(), w.tokens_per_s()));
    let extra = [
        ("steps", Json::from(steps)),
        ("lx-kernels.replay", kernel_detail),
    ];
    if let Err(e) = trace::write_artifacts(&recorded, &out, extra) {
        out.violation(1, e);
    }
    out
}

pub fn run(args: &RunArgs) -> Outcome {
    if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}
