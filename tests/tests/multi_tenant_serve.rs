//! Scheduler equivalence on the single shared backbone (the cluster
//! scheduler at one replica): tenants trained concurrently (interleaved
//! time-slices) must produce **exactly** the same per-step losses as tenants
//! trained sequentially, because the backbone is frozen and all mutable
//! per-tenant state swaps with the tenant.

use long_exposure::engine::{EngineConfig, StepMode};
use lx_cluster::{ClusterConfig, ClusterScheduler, FinetuneService, QosClass};
use lx_integration::tiny_model;
use lx_model::TransformerModel;
use lx_peft::PeftMethod;
use lx_serve::{AdapterRegistry, DatasetSpec, JobReport, JobSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

fn backbone() -> TransformerModel {
    let mut m = tiny_model(77);
    m.freeze_all();
    m
}

fn engine_cfg() -> EngineConfig {
    EngineConfig {
        block_size: 4,
        calib_epochs: 40,
        ..EngineConfig::default()
    }
}

fn specs() -> Vec<JobSpec> {
    let mut a = JobSpec::lora("tenant-a", 9, 1, 16);
    a.stream_len = 3_000;
    let mut b = JobSpec::lora("tenant-b", 12, 1, 16);
    b.stream_len = 3_000;
    b.dataset = DatasetSpec::Instruct {
        world_seed: 3,
        salt: 9,
    };
    b.method = PeftMethod::Lora {
        rank: 4,
        alpha: 8.0,
        targets: lx_peft::LoraTargets::all(),
    };
    vec![a, b]
}

fn by_tenant(reports: Vec<JobReport>) -> BTreeMap<String, JobReport> {
    reports.into_iter().map(|r| (r.tenant.clone(), r)).collect()
}

/// The single shared backbone: the cluster scheduler at one replica.
fn scheduler(config: ClusterConfig, registry: Arc<AdapterRegistry>) -> ClusterScheduler {
    ClusterScheduler::new(
        |_| backbone(),
        engine_cfg(),
        ClusterConfig {
            replicas: 1,
            ..config
        },
        registry,
    )
}

fn submit(s: &mut ClusterScheduler, spec: JobSpec) {
    let verdict = s.submit(spec, QosClass::Batch);
    assert!(verdict.is_admitted(), "{verdict:?}");
}

fn run_concurrent(config: ClusterConfig) -> BTreeMap<String, JobReport> {
    let mut s = scheduler(config, Arc::new(AdapterRegistry::in_memory()));
    for spec in specs() {
        submit(&mut s, spec);
    }
    by_tenant(s.run_to_completion().reports)
}

fn run_sequential(config: ClusterConfig) -> BTreeMap<String, JobReport> {
    let mut s = scheduler(config, Arc::new(AdapterRegistry::in_memory()));
    let mut reports = Vec::new();
    for spec in specs() {
        submit(&mut s, spec);
        reports.extend(s.run_to_completion().reports);
    }
    by_tenant(reports)
}

#[test]
fn concurrent_and_sequential_losses_match_exactly() {
    let interleaved = run_concurrent(ClusterConfig {
        slice_steps: 2,
        ..ClusterConfig::default()
    });
    let sequential = run_sequential(ClusterConfig {
        slice_steps: 64, // one slice per job, one job submitted and drained at a time
        ..ClusterConfig::default()
    });
    assert_eq!(interleaved.len(), 2);
    for (tenant, seq_report) in &sequential {
        let con_report = &interleaved[tenant];
        assert_eq!(con_report.steps, seq_report.steps, "{tenant}");
        assert_eq!(
            con_report.losses, seq_report.losses,
            "{tenant}: interleaved training must be bit-identical to sequential"
        );
    }
}

#[test]
fn sparse_mode_shares_one_predictor_set_across_tenants() {
    let registry = Arc::new(AdapterRegistry::in_memory());
    let calib: Vec<(Vec<u32>, usize, usize)> = {
        let spec = DatasetSpec::E2e {
            world_seed: 5,
            salt: 1,
        };
        let mut batcher = spec.build_batcher(64, 3_000);
        (0..2).map(|_| (batcher.next_batch(1, 16), 1, 16)).collect()
    };
    // Calibrate once; the blob lands in the registry.
    let sparse = || ClusterConfig {
        slice_steps: 3,
        mode: StepMode::Sparse,
        ..ClusterConfig::default()
    };
    let mut first = scheduler(sparse(), registry.clone());
    first.calibrate_shared(&calib);
    assert!(registry.predictors().is_some());
    for spec in specs() {
        submit(&mut first, spec);
    }
    let from_calibrated = by_tenant(first.run_to_completion().reports);

    // A second scheduler (a "restarted process") imports the shared
    // predictors from the registry at construction instead of recalibrating,
    // and reproduces the same training losses exactly. A fresh registry is
    // used for its adapters so the first run's tenants don't warm-start it —
    // only the predictor blob is carried over.
    let fresh_registry = Arc::new(AdapterRegistry::in_memory());
    fresh_registry
        .set_predictors(registry.predictors().unwrap())
        .unwrap();
    let mut second = scheduler(sparse(), fresh_registry);
    assert!(second.calibrated(), "predictors imported from registry");
    for spec in specs() {
        submit(&mut second, spec);
    }
    let from_imported = by_tenant(second.run_to_completion().reports);
    for (tenant, a) in &from_calibrated {
        assert_eq!(
            a.losses, from_imported[tenant].losses,
            "{tenant}: imported predictors must reproduce calibrated-run losses"
        );
    }
}

#[test]
fn tenants_stream_per_step_progress_through_the_service() {
    // Multiple tenants interleave on the shared backbone while each client
    // consumes its own per-step StepEvent stream concurrently; the streams
    // must be complete (one event per step, in order), carry the same losses
    // as the terminal reports, and end when the job does.
    let service = FinetuneService::spawn(scheduler(
        ClusterConfig {
            slice_steps: 2,
            ..ClusterConfig::default()
        },
        Arc::new(AdapterRegistry::in_memory()),
    ));
    let tickets: Vec<_> = specs()
        .into_iter()
        .map(|spec| {
            let (tenant, steps) = (spec.tenant.clone(), spec.steps);
            (tenant, steps, service.submit(spec, QosClass::Batch))
        })
        .collect();
    // Drain every stream on its own thread while training proceeds.
    let collectors: Vec<_> = tickets
        .iter()
        .map(|(tenant, steps, ticket)| {
            let (tenant, steps, stream) = (tenant.clone(), *steps, ticket.progress());
            std::thread::spawn(move || {
                let events: Vec<_> = stream.collect();
                (tenant, steps, events)
            })
        })
        .collect();
    for handle in collectors {
        let (tenant, steps, events) = handle.join().expect("collector thread");
        assert_eq!(events.len(), steps as usize, "{tenant}: one event per step");
        let report = tickets
            .iter()
            .find(|(t, _, _)| *t == tenant)
            .unwrap()
            .2
            .wait()
            .expect("job completes");
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.tenant, tenant);
            assert_eq!(e.step, i as u64 + 1, "{tenant}: events arrive in order");
            assert_eq!(e.total_steps, steps);
            assert_eq!(
                e.loss, report.losses[i],
                "{tenant}: streamed loss mirrors the report"
            );
            assert!(e.step_time > std::time::Duration::ZERO);
        }
    }
    service.shutdown();
}

#[test]
fn four_tenants_share_backbone_and_all_converge() {
    let mut s = scheduler(
        ClusterConfig {
            slice_steps: 3,
            ..ClusterConfig::default()
        },
        Arc::new(AdapterRegistry::in_memory()),
    );
    for i in 0..4 {
        let mut spec = JobSpec::lora(format!("tenant-{i}"), 12, 1, 16);
        // Stream exactly one batch long: every step replays the same batch,
        // so each tenant overfits and the loss trend is unambiguous.
        spec.stream_len = 16;
        spec.lr = 1e-2;
        submit(&mut s, spec);
    }
    let reports = s.run_to_completion().reports;
    assert_eq!(reports.len(), 4);
    for r in &reports {
        assert_eq!(r.steps, 12);
        let first = r.losses.first().unwrap();
        let last = r.losses.last().unwrap();
        assert!(
            last < first,
            "{}: loss should drop when overfitting one batch ({first} -> {last})",
            r.tenant
        );
    }
    let snap = s.metrics();
    assert_eq!(snap.total_steps, 48);
    assert_eq!(snap.per_tenant.len(), 4);
    assert_eq!(s.registry().len(), 4);
}
