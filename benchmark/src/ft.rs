//! The three single-adapter fine-tuning workloads (`ft-*`): one user, one
//! LoRA adapter on opt-sim-base, closed loop — the caller waits for each
//! optimizer step before drawing the next batch.

use crate::json::Json;
use crate::measure::{latency_metrics, Counters, Outcome};
use crate::probes::{self, ProbeInput};
use crate::recipe::{self, ADAPTER_SEED, WARMUP_STEPS};
use crate::spec::{FT_DENSE, FT_SPARSE, FT_SPARSE_NF4};
use crate::{stats, trace, RunArgs};
use long_exposure::engine::{FinetuneEngine, StepMode};
use lx_data::e2e::E2eGenerator;
use lx_data::{Batcher, SyntheticWorld};
use lx_model::{prompt_aware_targets, AdamW, ModelConfig, Precision, StepOutcome};
use lx_obs::Span;
use lx_peft::PeftMethod;
use lx_tensor::memtrack;
use std::time::{Duration, Instant};

/// Steps every full run completes, however slow the host: `final_loss` is
/// read at this fixed step index so it means the same on every commit.
const QUALITY_STEPS: usize = 30;
/// Steps per throughput segment (`tokens_per_s` is the median segment).
const SEGMENT_STEPS: usize = 4;
/// Held-out batches of the sparse-vs-dense agreement check.
const AGREEMENT_BATCHES: usize = 3;
/// Largest |sparse − dense| evaluation loss the gate accepts.
const AGREEMENT_TOLERANCE: f32 = 0.05;
const STREAM_LEN: usize = 100_000;

pub struct FtSpec {
    pub name: &'static str,
    pub batch: usize,
    pub seq: usize,
    pub mode: StepMode,
    pub precision: Precision,
    /// Steps between predictor runs (1 = predict every step).
    pub plan_interval: usize,
    /// Calibration batches of `batch × seq` tokens.
    pub calib_batches: usize,
}

pub fn spec(name: &str) -> Option<FtSpec> {
    let base = FtSpec {
        name: FT_DENSE,
        batch: 1,
        seq: 512,
        mode: StepMode::Dense,
        precision: Precision::F32,
        plan_interval: 1,
        calib_batches: 0,
    };
    match name {
        FT_DENSE => Some(base),
        FT_SPARSE => Some(FtSpec {
            name: FT_SPARSE,
            mode: StepMode::Sparse,
            calib_batches: 3,
            ..base
        }),
        // Same 512 tokens per step, cut into eight short sequences.
        FT_SPARSE_NF4 => Some(FtSpec {
            name: FT_SPARSE_NF4,
            batch: 8,
            seq: 64,
            mode: StepMode::Sparse,
            precision: Precision::Nf4Frozen,
            plan_interval: 4,
            calib_batches: 1,
        }),
        _ => None,
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    total: Duration,
    policy: Duration,
    model: Duration,
    adapter: Duration,
    precision: Duration,
    calibrate: Duration,
    warmup: Duration,
}

/// A built, calibrated, warmed-up engine with its input stream.
struct Rig {
    engine: FinetuneEngine,
    batcher: Batcher,
    opt: AdamW,
    times: SetupTimes,
    /// Mean of the calibration report's attention and MLP recall.
    recall: f64,
    steps_done: u64,
}

/// Everything before the first measured step: policy, model build, adapter
/// init, precision demotion, calibration, warm-up.
fn setup(spec: &FtSpec, seed: u64) -> Rig {
    let t0 = Instant::now();
    let mut times = SetupTimes {
        policy: recipe::install_policy().1,
        ..SetupTimes::default()
    };

    let cfg = ModelConfig::opt_sim_base();
    let t = Instant::now();
    let mut model = recipe::sim_model(cfg.clone());
    times.model = t.elapsed();
    let t = Instant::now();
    PeftMethod::lora_default().apply(&mut model, ADAPTER_SEED);
    times.adapter = t.elapsed();
    let t = Instant::now();
    model.set_precision(spec.precision);
    times.precision = t.elapsed();

    // `--seed` reaches the program only through these token streams. The
    // calibration stream is separate so dense and sparse train on the very
    // same batches.
    let generator = E2eGenerator::new(SyntheticWorld::new(cfg.vocab_size as u32, seed));
    let batcher = Batcher::new(generator.stream(STREAM_LEN, seed));
    let mut engine =
        FinetuneEngine::new(model, recipe::engine_config(spec.seq, spec.plan_interval));
    let mut recall = 0.0;
    if spec.mode == StepMode::Sparse {
        let t = Instant::now();
        let mut calib_stream = Batcher::new(generator.stream(STREAM_LEN / 10, seed ^ 0xca11b));
        let calib: Vec<(Vec<u32>, usize, usize)> = (0..spec.calib_batches)
            .map(|_| {
                (
                    calib_stream.next_batch(spec.batch, spec.seq),
                    spec.batch,
                    spec.seq,
                )
            })
            .collect();
        let report = engine.calibrate(&calib);
        recall = f64::from(report.mean_attn_recall() + report.mean_mlp_recall()) / 2.0;
        times.calibrate = t.elapsed();
    }
    let mut rig = Rig {
        engine,
        batcher,
        opt: AdamW::new(1e-3, 0.01),
        times,
        recall,
        steps_done: 0,
    };
    let t = Instant::now();
    for _ in 0..WARMUP_STEPS {
        rig.step(spec);
    }
    rig.times.warmup = t.elapsed();
    rig.times.total = t0.elapsed();
    rig
}

impl Rig {
    /// One closed-loop iteration: draw the batch, build targets, train.
    /// Returns the wall time around `train_step_mode` and its outcome.
    fn step(&mut self, spec: &FtSpec) -> (Duration, StepOutcome) {
        let index = self.steps_done;
        self.steps_done += 1;
        let _cycle = Span::enter("bench.driver.step")
            .cat("bench")
            .tenant(spec.name)
            .index(index);
        let ids = {
            let _s = Span::enter("bench.lx-data.next_batch")
                .cat("bench")
                .index(index);
            self.batcher.next_batch(spec.batch, spec.seq)
        };
        let targets = {
            let _s = Span::enter("bench.lx-data.prompt_aware_targets")
                .cat("bench")
                .index(index);
            prompt_aware_targets(&ids, spec.batch, spec.seq, 0)
        };
        let _s = Span::enter("bench.long-exposure.train_step_mode")
            .cat("bench")
            .index(index);
        let t = Instant::now();
        let out = self.engine.train_step_mode(
            &ids,
            &targets,
            spec.batch,
            spec.seq,
            &mut self.opt,
            spec.mode,
        );
        (t.elapsed(), out)
    }

    /// Evaluation loss of `ids` under `mode` (no gradients, no update).
    fn eval(&mut self, spec: &FtSpec, ids: &[u32], mode: StepMode) -> f32 {
        let targets = prompt_aware_targets(ids, spec.batch, spec.seq, 0);
        self.engine
            .eval_step(ids, &targets, spec.batch, spec.seq, mode)
            .loss
    }
}

/// One measured window.
#[derive(Default)]
struct Window {
    step_ms: Vec<f64>,
    losses: Vec<f32>,
    /// Tokens per second of each complete `SEGMENT_STEPS`-step segment,
    /// batch draw and target building included.
    segment_rates: Vec<f64>,
    wall: Duration,
    counters: Counters,
    peak_bytes: usize,
    attn_density: Vec<f64>,
    mlp_density: Vec<f64>,
    skipped: u64,
}

impl Window {
    fn tokens_per_s(&self, spec: &FtSpec) -> f64 {
        if self.segment_rates.is_empty() {
            (self.step_ms.len() * spec.batch * spec.seq) as f64 / self.wall.as_secs_f64()
        } else {
            stats::median(&self.segment_rates)
        }
    }
}

fn window(rig: &mut Rig, spec: &FtSpec, seconds: f64, min_steps: usize) -> Window {
    let mark = Counters::now();
    memtrack::reset_peak();
    let mut w = Window::default();
    let t0 = Instant::now();
    let mut segment_start = t0;
    while w.step_ms.len() < min_steps || t0.elapsed().as_secs_f64() < seconds {
        let (took, out) = rig.step(spec);
        w.step_ms.push(took.as_secs_f64() * 1e3);
        w.losses.push(out.loss);
        w.attn_density.extend(out.attn_density.map(f64::from));
        w.mlp_density.extend(out.mlp_density.map(f64::from));
        w.skipped += u64::from(out.skipped);
        if w.step_ms.len().is_multiple_of(SEGMENT_STEPS) {
            let now = Instant::now();
            let tokens = (SEGMENT_STEPS * spec.batch * spec.seq) as f64;
            w.segment_rates
                .push(tokens / (now - segment_start).as_secs_f64());
            segment_start = now;
        }
    }
    w.wall = t0.elapsed();
    w.counters = Counters::now().since(&mark);
    w.peak_bytes = memtrack::peak_bytes();
    w
}

/// Count every non-finite loss as a failed step.
fn gate_finite(losses: &[f32], out: &mut Outcome) {
    let non_finite = losses.iter().filter(|l| !l.is_finite()).count() as u64;
    if non_finite > 0 {
        out.violation(
            non_finite,
            format!("{non_finite} steps with a non-finite loss"),
        );
    }
}

fn mean_loss(losses: &[f32]) -> f64 {
    losses.iter().map(|&l| f64::from(l)).sum::<f64>() / losses.len().max(1) as f64
}

/// The correctness gate of an `ft-*` window.
fn gate(rig: &mut Rig, spec: &FtSpec, w: &Window, quick: bool, out: &mut Outcome) {
    out.attempted += w.losses.len() as u64;
    gate_finite(&w.losses, out);
    if !quick {
        let first = mean_loss(&w.losses[..10]);
        let last = mean_loss(&w.losses[QUALITY_STEPS - 10..QUALITY_STEPS]);
        if last >= first {
            out.violation(
                1,
                format!("loss did not fall: first-10 mean {first:.4}, steps 21-30 mean {last:.4}"),
            );
        }
    }
    // Outputs against a reference, on held-out batches and the trained
    // weights: the sparse path must agree with the dense one; the dense path
    // must agree with itself bit for bit.
    for i in 0..AGREEMENT_BATCHES {
        out.attempted += 1;
        let ids = rig.batcher.next_batch(spec.batch, spec.seq);
        let dense = rig.eval(spec, &ids, StepMode::Dense);
        if spec.mode == StepMode::Sparse {
            let sparse = rig.eval(spec, &ids, StepMode::Sparse);
            // A non-finite difference compares false: a disagreement too.
            let agrees = (sparse - dense).abs() <= AGREEMENT_TOLERANCE;
            if !agrees {
                out.violation(
                    1,
                    format!("held-out batch {i}: sparse loss {sparse:.4} vs dense {dense:.4}"),
                );
            }
        } else if rig.eval(spec, &ids, StepMode::Dense).to_bits() != dense.to_bits() {
            out.violation(
                1,
                format!("held-out batch {i}: dense evaluation not repeatable"),
            );
        }
    }
    if spec.mode == StepMode::Dense && w.counters.tensor_allocs != 0 {
        out.violation(
            1,
            format!(
                "{} tensor heap allocations in the steady-state window (expected 0)",
                w.counters.tensor_allocs
            ),
        );
    }
}

/// Untraced run: the end-to-end metrics.
fn run_untraced(spec: &FtSpec, args: &RunArgs) -> Outcome {
    let mut out = Outcome {
        workload: spec.name,
        ..Outcome::default()
    };
    let (mut rig, setup_s) = recipe::repeated_setup(args.quick, || {
        let rig = setup(spec, args.seed);
        let took = rig.times.total;
        (rig, took)
    });
    let (seconds, min_steps) = if args.quick {
        (0.0, 5)
    } else {
        (args.seconds, QUALITY_STEPS)
    };
    let w = window(&mut rig, spec, seconds, min_steps);
    gate(&mut rig, spec, &w, args.quick, &mut out);

    out.metrics.insert("tokens_per_s", w.tokens_per_s(spec));
    latency_metrics(&mut out, &w.step_ms);
    let quality = &w.losses[..w.losses.len().min(QUALITY_STEPS)];
    out.metrics.insert(
        "final_loss",
        mean_loss(&quality[quality.len().saturating_sub(10)..]),
    );
    out.metrics.insert("setup_s", setup_s);
    let t = rig.times;
    for (name, d) in [
        ("setup.model_s", t.model),
        ("setup.adapter_s", t.adapter),
        ("setup.precision_s", t.precision),
        ("setup.calibrate_s", t.calibrate),
        ("setup.warmup_s", t.warmup),
    ] {
        out.info.push((name.into(), d.as_secs_f64()));
    }
    out.info
        .push(("window_steps".into(), w.step_ms.len() as f64));
    out.info.push(("window_s".into(), w.wall.as_secs_f64()));
    out.info
        .push(("peak_tensor_bytes".into(), w.peak_bytes as f64));
    out.info.push((
        "allocs_per_step".into(),
        w.counters.tensor_allocs as f64 / w.step_ms.len() as f64,
    ));
    out
}

/// Traced run: a short untraced window (the overhead baseline), the traced
/// window, then the layer probes. Writes the Chrome trace and `layers.json`.
fn run_traced(spec: &FtSpec, args: &RunArgs) -> Outcome {
    let mut out = Outcome {
        workload: spec.name,
        traced: true,
        ..Outcome::default()
    };
    let mut rig = setup(spec, args.seed);
    let (seconds, min_steps) = if args.quick {
        (0.0, SEGMENT_STEPS)
    } else {
        (args.seconds, 2 * SEGMENT_STEPS)
    };
    let untraced = window(&mut rig, spec, seconds / 3.0, min_steps);
    let (w, recorded) = trace::record(spec.name, || {
        window(&mut rig, spec, seconds * 2.0 / 3.0, min_steps)
    });
    out.attempted = (untraced.losses.len() + w.losses.len()) as u64;
    gate_finite(&w.losses, &mut out);

    let steps = w.step_ms.len();
    let per_step_ms = |ns: u64| ns as f64 / 1e6 / steps as f64;
    w.counters.per_step_metrics(steps, &mut out);
    let by_span = trace::name_times(&recorded.trace.records);
    let self_ns = |name: &str| by_span.get(name).map_or(0, |t| t.self_ns);
    let m = &mut out.metrics;
    m.insert(
        "long-exposure.predict_share",
        100.0 * trace::total_ns(&recorded.trace.records, "model.predict") as f64
            / recorded.window_ns as f64,
    );
    let reuse = rig.engine.plan_reuse_stats();
    m.insert(
        "long-exposure.plan_reuse_ratio",
        reuse.reused_steps as f64 / (reuse.predicted_steps + reuse.reused_steps).max(1) as f64,
    );
    m.insert("long-exposure.calib_recall", rig.recall);
    m.insert(
        "long-exposure.calibrate_s",
        rig.times.calibrate.as_secs_f64(),
    );
    m.insert(
        "lx-model.forward_ms",
        per_step_ms(self_ns("model.forward_pass")),
    );
    m.insert(
        "lx-model.backward_ms",
        per_step_ms(self_ns("model.backward")),
    );
    m.insert(
        "lx-model.optimizer_ms",
        per_step_ms(self_ns("model.optimizer")),
    );
    m.insert(
        "lx-model.attn_density",
        stats::mean_or(&w.attn_density, 1.0),
    );
    m.insert("lx-model.mlp_density", stats::mean_or(&w.mlp_density, 1.0));
    m.insert("lx-model.skipped_steps", w.skipped as f64);
    m.insert("lx-tensor.peak_bytes", w.peak_bytes as f64);
    m.insert(
        "lx-data.batch_ms_per_step",
        per_step_ms(
            self_ns("bench.lx-data.next_batch") + self_ns("bench.lx-data.prompt_aware_targets"),
        ),
    );
    // One adapter, attached once in set-up; no scheduler, no replicas.
    for name in [
        "lx-serve.swap_ms_per_slice",
        "lx-serve.utilisation",
        "lx-serve.slice_wait_ms_p50",
        "lx-cluster.fused_share",
        "lx-cluster.replica_idle_share",
        "lx-cluster.job_s_p50",
        "lx-cluster.interactive_drain_s",
    ] {
        m.insert(name, 0.0);
    }
    m.insert("lx-runtime.policy_s", rig.times.policy.as_secs_f64());
    m.insert(
        "lx-obs.trace_overhead",
        w.tokens_per_s(spec) / untraced.tokens_per_s(spec),
    );
    m.insert("lx-obs.dropped_spans", recorded.trace.dropped as f64);

    let cfg = rig.engine.model.config.clone();
    let (_, kernel_detail) = probes::run(
        &ProbeInput {
            cfg: &cfg,
            batch: spec.batch,
            seq: spec.seq,
            precision: spec.precision,
            attn_density: stats::mean_or(&w.attn_density, 1.0),
            mlp_density: stats::mean_or(&w.mlp_density, 1.0),
            methods: &[PeftMethod::lora_default()],
            stream_len: STREAM_LEN,
        },
        &mut out,
    );
    out.info.push(("traced_steps".into(), steps as f64));
    out.info
        .push(("untraced_tokens_per_s".into(), untraced.tokens_per_s(spec)));
    out.info
        .push(("traced_tokens_per_s".into(), w.tokens_per_s(spec)));
    let extra = [
        ("steps", Json::from(steps)),
        ("lx-kernels.replay", kernel_detail),
    ];
    if let Err(e) = trace::write_artifacts(&recorded, &out, extra) {
        out.violation(1, e);
    }
    out
}

pub fn run(spec: &FtSpec, args: &RunArgs) -> Outcome {
    if args.trace {
        run_traced(spec, args)
    } else {
        run_untraced(spec, args)
    }
}
