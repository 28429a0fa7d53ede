//! Cross-crate observability integration: StepOutcome↔span equivalence,
//! concurrent span recording from worker threads, histogram percentile
//! accuracy against an exact oracle, grouped-GEMM call/task accounting, and
//! the serve-side trace dump.
//!
//! A trace session is process-global (one active ring), so every test that
//! starts one serialises on [`obs_lock`].

use lx_model::{
    prompt_aware_targets, LayerPlan, LayerPlanner, ModelConfig, PlanSource, Sgd, StepRequest,
    TransformerModel,
};
use lx_obs::{registry, validate_chrome_trace_file, Histogram, Span, SpanRecord, TraceSession};
use lx_sparse::{BlockCsr, MultiHeadLayout, NeuronBlockSet, PatternSpec};
use lx_tensor::Tensor;
use std::sync::{Arc, Mutex, MutexGuard};

const BATCH: usize = 2;
const SEQ: usize = 8;
const BLOCK: usize = 4;

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Deterministic inline planner: causal attention, odd neuron blocks.
struct FixedPlanner;

impl LayerPlanner for FixedPlanner {
    fn plan_layer(&mut self, _layer: usize, _x: &Tensor, _b: usize, seq: usize) -> LayerPlan {
        let d_ff = ModelConfig::test_tiny().d_ff;
        let csr = Arc::new(BlockCsr::from_mask(
            &PatternSpec::Causal.mask(seq / BLOCK),
            BLOCK,
        ));
        let n_blk = d_ff / BLOCK;
        LayerPlan {
            attn: Some(Arc::new(MultiHeadLayout::combine(vec![csr; 2]))),
            mlp: Some(Arc::new(NeuronBlockSet::from_indices(
                (0..n_blk as u32).filter(|i| i % 2 == 1).collect(),
                n_blk,
                BLOCK,
            ))),
        }
    }
}

fn dur_sum(records: &[&SpanRecord]) -> u64 {
    records.iter().map(|r| r.dur_ns).sum()
}

/// The acceptance criterion for the tracing layer: the per-phase durations a
/// [`lx_model::StepOutcome`] reports are *bit-identical* to the spans the
/// same step published — fig10/fig11 columns and the Chrome trace can never
/// disagree.
#[test]
fn step_outcome_phase_durations_equal_span_durations() {
    let _guard = obs_lock();
    let mut model = TransformerModel::new(ModelConfig::test_tiny(), 7);
    let ids: Vec<u32> = (0..(BATCH * SEQ) as u32).map(|i| i % 64).collect();
    let ids2: Vec<u32> = ids.iter().map(|i| (i + 13) % 64).collect();
    let targets = prompt_aware_targets(&ids, BATCH, SEQ, 0);
    let targets2 = prompt_aware_targets(&ids2, BATCH, SEQ, 0);
    let mut opt = Sgd::new(0.01);
    let mut planner = FixedPlanner;

    let session = TraceSession::start().expect("no other session active");
    let out = model.execute(
        StepRequest::train(&ids, &targets, BATCH, SEQ, &mut opt)
            .micro_batch(&ids2, &targets2)
            .plan_source(PlanSource::Planner(&mut planner)),
    );
    let trace = session.finish();
    assert_eq!(trace.dropped, 0, "ring must not wrap in a one-step trace");

    let steps = trace.named("model.step");
    let micro = trace.named("model.micro_batch");
    let fwd = trace.named("model.forward_pass");
    let predict = trace.named("model.predict");
    let backward = trace.named("model.backward");
    let optim = trace.named("model.optimizer");
    assert_eq!(steps.len(), 1);
    assert_eq!(micro.len(), 2, "one span per micro-batch");
    assert_eq!(fwd.len(), 2);
    assert_eq!(predict.len(), 2 * 2, "n_layers spans per micro-batch");
    assert_eq!(backward.len(), 2);
    assert_eq!(optim.len(), 1);

    // Exact (bit-level) equivalence for the directly-measured phases.
    assert_eq!(out.predict.as_nanos() as u64, dur_sum(&predict));
    assert_eq!(out.backward.as_nanos() as u64, dur_sum(&backward));
    assert_eq!(out.optim.as_nanos() as u64, dur_sum(&optim));
    // `forward` is defined as the forward-pass span minus the planner time
    // metered inside it, per micro-batch.
    let forward_expected: u64 = fwd
        .iter()
        .map(|f| {
            let inner: u64 = predict
                .iter()
                .filter(|p| f.contains(p))
                .map(|p| p.dur_ns)
                .sum();
            f.dur_ns.saturating_sub(inner)
        })
        .sum();
    assert_eq!(out.forward.as_nanos() as u64, forward_expected);

    // Nesting: micro-batches sit inside the step; each forward pass sits
    // inside the micro-batch with the same index; every predict span sits
    // inside some forward pass.
    let step = steps[0];
    for m in &micro {
        assert!(step.contains(m), "micro_batch outside model.step");
    }
    for f in &fwd {
        let parent = micro
            .iter()
            .find(|m| m.index == f.index)
            .expect("micro_batch span for forward index");
        assert!(parent.contains(f), "forward_pass outside its micro_batch");
    }
    for p in &predict {
        assert!(
            fwd.iter().any(|f| f.contains(p)),
            "predict span outside every forward_pass"
        );
    }
}

#[test]
fn concurrent_worker_spans_are_neither_lost_nor_duplicated() {
    let _guard = obs_lock();
    const TASKS: usize = 8;
    const PER_TASK: usize = 200;
    let session = TraceSession::start().expect("no other session active");
    let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..TASKS)
        .map(|t| {
            Box::new(move || {
                for j in 0..PER_TASK {
                    let _s = Span::enter("test.worker")
                        .cat("test")
                        .index((t * PER_TASK + j) as u64);
                }
            }) as Box<dyn FnOnce() + Send>
        })
        .collect();
    lx_parallel::pool().run_scoped(tasks);
    let trace = session.finish();
    assert_eq!(trace.dropped, 0, "capacity covers every span");

    let workers = trace.named("test.worker");
    assert_eq!(workers.len(), TASKS * PER_TASK, "no lost records");
    let mut seen = vec![false; TASKS * PER_TASK];
    for r in &workers {
        let idx = r.index.expect("worker spans carry an index") as usize;
        assert!(!seen[idx], "duplicate record for index {idx}");
        seen[idx] = true;
    }
    assert!(seen.iter().all(|&s| s), "every index recorded exactly once");

    // Within one thread, publication order must match time order: records
    // grouped by tid carry non-decreasing start timestamps.
    let mut by_tid: std::collections::BTreeMap<u64, Vec<&SpanRecord>> = Default::default();
    for r in workers {
        by_tid.entry(r.tid).or_default().push(r);
    }
    for (tid, records) in by_tid {
        for pair in records.windows(2) {
            assert!(
                pair[0].start_ns <= pair[1].start_ns,
                "tid {tid}: non-monotonic start timestamps"
            );
        }
    }
}

#[test]
fn histogram_percentiles_track_a_sorted_oracle() {
    // Log-bucketed (8 sub-buckets per octave) ⇒ ≤ ~7% relative error per
    // value; allow 13% + 1 for midpoint rounding across distributions.
    let mut state: u64 = 0x9e3779b97f4a7c15;
    let mut lcg = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let distributions: Vec<(&str, Vec<u64>)> = vec![
        ("uniform", (0..4000).map(|_| lcg() % 1_000_000).collect()),
        ("small", (0..4000).map(|_| lcg() % 12).collect()),
        (
            "heavy-tail",
            (0..4000)
                .map(|_| {
                    let base = lcg() % 1000;
                    if lcg() % 50 == 0 {
                        base * 10_000
                    } else {
                        base
                    }
                })
                .collect(),
        ),
    ];
    for (name, values) in distributions {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let oracle =
                sorted[((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1)];
            let got = h.percentile(q);
            let tol = (oracle as f64 * 0.13) as u64 + 1;
            assert!(
                got.abs_diff(oracle) <= tol,
                "{name} p{q}: histogram {got} vs oracle {oracle} (tol {tol})"
            );
        }
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.min(), sorted[0]);
        assert_eq!(h.max(), *sorted.last().unwrap());
    }
}

#[test]
fn serve_shutdown_dumps_a_valid_chrome_trace() {
    let _guard = obs_lock();
    let dir = std::env::temp_dir().join(format!("lx_obs_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve_trace.json");

    let scheduler = lx_cluster::ClusterScheduler::new(
        |_| {
            let mut model = TransformerModel::new(ModelConfig::test_tiny(), 21);
            model.freeze_all();
            model
        },
        long_exposure::engine::EngineConfig {
            block_size: BLOCK,
            ..Default::default()
        },
        lx_cluster::ClusterConfig {
            replicas: 1,
            slice_steps: 2,
            ..Default::default()
        },
        Arc::new(lx_serve::AdapterRegistry::in_memory()),
    );
    let svc = lx_cluster::FinetuneService::spawn_traced(scheduler, path.clone());
    let spec = lx_serve::JobSpec {
        stream_len: 2_000,
        ..lx_serve::JobSpec::lora("traced", 4, 1, 16)
    };
    svc.submit(spec, lx_cluster::QosClass::Batch)
        .wait()
        .expect("job completes");

    // Scrape-style exposition reflects the run: service series plus the
    // global registry (GEMM counters, workspace pool, slice histograms).
    let prom = svc.metrics().render_prometheus();
    assert!(prom.contains("lx_serve_tenant_steps_total{tenant=\"traced\"} 4"));
    assert!(prom.contains("kernel_gemm_calls"));
    assert!(prom.contains("workspace_hits"));
    assert!(prom.contains("serve_slice_run_ns{tenant=\"traced\",quantile=\"0.99\"}"));

    svc.shutdown();
    let stats = validate_chrome_trace_file(&path).expect("trace file is valid");
    assert!(stats.events > 0, "trace captured the scheduled slices");
    let text = std::fs::read_to_string(&path).unwrap();
    for name in ["serve.slice", "serve.attach", "serve.detach", "model.step"] {
        assert!(text.contains(name), "trace missing {name} spans");
    }
    // The slice histograms fed the registry too.
    let hists = registry().histograms();
    let wait = hists
        .iter()
        .find(|(k, _)| k.starts_with("serve.slice.wait_ns") && k.contains("traced"))
        .expect("wait histogram registered");
    assert!(wait.1.count >= 2, "one wait sample per scheduled slice");
    std::fs::remove_dir_all(&dir).ok();
}

/// The exposition's tenant cap covers the registry too: the per-tenant
/// slice histograms of every admitted tenant stay registered, but only the
/// top-K tenants' series render.
#[test]
fn serve_exposition_caps_every_tenant_labelled_series() {
    let _guard = obs_lock();
    let scheduler = lx_cluster::ClusterScheduler::new(
        |_| {
            let mut model = TransformerModel::new(ModelConfig::test_tiny(), 22);
            model.freeze_all();
            model
        },
        long_exposure::engine::EngineConfig {
            block_size: BLOCK,
            ..Default::default()
        },
        lx_cluster::ClusterConfig {
            replicas: 1,
            ..Default::default()
        },
        Arc::new(lx_serve::AdapterRegistry::in_memory()),
    );
    let svc = lx_cluster::FinetuneService::spawn(scheduler);
    let jobs: Vec<_> = (0..40)
        .map(|i| {
            let spec = lx_serve::JobSpec {
                stream_len: 2_000,
                ..lx_serve::JobSpec::lora(format!("capped-{i:02}"), 1, 1, 16)
            };
            svc.submit(spec, lx_cluster::QosClass::Batch)
        })
        .collect();
    for job in jobs {
        job.wait().expect("job completes");
    }
    let prom = svc.metrics().render_prometheus();
    svc.shutdown();
    let mut tenants: Vec<&str> = prom
        .lines()
        .filter_map(|l| l.split_once("tenant=\"")?.1.split_once('"'))
        .map(|(t, _)| t)
        .filter(|&t| t != "other")
        .collect();
    tenants.sort_unstable();
    tenants.dedup();
    assert_eq!(
        tenants.len(),
        lx_serve::metrics::DEFAULT_TENANT_SERIES_CAP,
        "{tenants:?}"
    );
    assert!(prom.contains("lx_serve_tenant_steps_total{tenant=\"other\"}"));
    // The shown tenants keep their slice histograms.
    for t in &tenants {
        assert!(
            prom.contains(&format!("serve_slice_run_ns_count{{tenant=\"{t}\"}}")),
            "{t}"
        );
    }
    let registered = registry().histograms();
    let capped = registered
        .iter()
        .filter(|(k, _)| k.starts_with("serve.slice.run_ns{tenant=\"capped-"));
    assert_eq!(
        capped.count(),
        40,
        "every tenant's histogram stays registered"
    );
}

/// Calibration's three phases are child spans of `engine.calibrate`, so its
/// seconds of set-up split into capture, predictor training and evaluation
/// from the trace alone. Inside the train span, every epoch's launch records
/// one span per (layer, predictor) task and one per noise draw, on whichever
/// thread ran it.
#[test]
fn calibration_phases_nest_under_engine_calibrate() {
    let _guard = obs_lock();
    let model = TransformerModel::new(ModelConfig::test_tiny(), 9);
    let mut engine = long_exposure::FinetuneEngine::new(
        model,
        long_exposure::engine::EngineConfig {
            block_size: BLOCK,
            calib_epochs: 3,
            ..Default::default()
        },
    );
    let ids: Vec<u32> = (0..(BATCH * SEQ) as u32).map(|i| (i * 7) % 64).collect();
    let session = TraceSession::start().expect("no other session active");
    engine.calibrate(&[(ids, BATCH, SEQ)]);
    let trace = session.finish();
    assert_eq!(trace.dropped, 0);
    let parent = trace.named("engine.calibrate");
    assert_eq!(parent.len(), 1);
    let mut phases_ns = 0;
    for phase in ["capture", "train", "evaluate"] {
        let spans = trace.named(&format!("engine.calibrate.{phase}"));
        assert_eq!(spans.len(), 1, "one {phase} span per calibration");
        assert!(
            parent[0].contains(spans[0]),
            "{phase} outside engine.calibrate"
        );
        phases_ns += spans[0].dur_ns;
    }
    assert!(
        phases_ns <= parent[0].dur_ns,
        "phases {phases_ns} ns > calibration {} ns",
        parent[0].dur_ns
    );
    let train = trace.named("engine.calibrate.train")[0];
    let within = |r: &SpanRecord| r.start_ns >= train.start_ns && r.end_ns() <= train.end_ns();
    let layers = ModelConfig::test_tiny().n_layers;
    for predictor in ["attn", "mlp"] {
        let tasks = trace.named(&format!("engine.calibrate.train.{predictor}"));
        assert_eq!(
            tasks.len(),
            3 * layers,
            "one {predictor} task per epoch and layer"
        );
        assert!(
            tasks.iter().all(|r| within(r)),
            "{predictor} task outside train"
        );
        for l in 0..layers as u32 {
            let per_layer = tasks.iter().filter(|r| r.layer == Some(l)).count();
            assert_eq!(per_layer, 3, "{predictor} tasks of layer {l}");
        }
        // One batch of BATCH elements: one draw per element and epoch.
        let draws = trace.named(&format!("engine.calibrate.train.noise.{predictor}"));
        assert_eq!(draws.len(), 3 * BATCH, "{predictor} noise draws");
        assert!(
            draws.iter().all(|r| within(r)),
            "{predictor} draw outside train"
        );
    }
}

/// A grouped launch is **one** `kernel.gemm.calls` (classed by the whole
/// group's FLOPs, same label set as a plain call) however many block tasks
/// its table holds; `kernel.gemm.tasks` carries the block count. Holding
/// [`obs_lock`] keeps the model-stepping tests — the only other grouped
/// callers in this binary — out of the window, and nothing here dispatches
/// large-class reference GEMMs, so both deltas are exact.
#[test]
fn grouped_launch_counts_one_call_and_all_its_tasks() {
    use lx_kernels::{GemmGroup, GemmTable, KernelBackend, Observed, Windows, REFERENCE};
    static OBSERVED: Observed = Observed::new(&REFERENCE);
    let _guard = obs_lock();
    // 32 tasks of 64×128×64: 2·32·2^19 = 2^25 FLOPs, the first large group
    // (each task alone is small-class).
    let (m, k, n, tasks) = (64usize, 128usize, 64usize, 32u32);
    let a = vec![0.5f32; m * k];
    let b = vec![0.25f32; n * k];
    let table = GemmTable::each((0..tasks).map(|t| (0, 0, t)));
    let mut c = vec![0.0f32; tasks as usize * m * n];
    let calls = registry().counter_labeled(
        "kernel.gemm.calls",
        &[
            ("backend", "reference"),
            ("class", "large"),
            ("dtype", "f32"),
            ("isa", lx_kernels::active_isa().name()),
            ("threads", &lx_parallel::pool().threads().to_string()),
        ],
    );
    let task_counter = registry().counter("kernel.gemm.tasks");
    let (calls_before, tasks_before) = (calls.get(), task_counter.get());
    let total_before = lx_kernels::gemm_call_total();
    OBSERVED.gemm_grouped(
        &GemmGroup {
            m,
            k,
            n,
            a: Windows::normal(&a, k, 0),
            b: Windows::transposed(&b, k, 0),
            ldc: n,
            c_stride: m * n,
            beta: 0.0,
            table: &table,
        },
        &mut c,
    );
    assert_eq!(calls.get() - calls_before, 1, "one call per launch");
    assert_eq!(task_counter.get() - tasks_before, u64::from(tasks));
    assert_eq!(lx_kernels::gemm_call_total() - total_before, 1);
    assert!(c.iter().all(|&v| v == 16.0), "the launch ran every task");
}
