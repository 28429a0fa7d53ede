//! Cluster-serving integration: N replicas must be a *numerically
//! invisible* scale-out of the same scheduler on a single backbone. A tenant's loss stream is a function of its own state (data
//! cursor, adapter, optimizer moments), all of which travels inside the
//! `TenantTask` — so replica count, placement, interleaving, work stealing
//! and fusion may change *when and where* a slice runs but never *what it
//! computes*.

use long_exposure::engine::{EngineConfig, StepMode};
use lx_cluster::{ClusterConfig, ClusterScheduler, QosClass, QosQuotas, Submit};
use lx_model::{ModelConfig, Precision, TransformerModel};
use lx_serve::{AdapterRegistry, DatasetSpec, JobReport, JobSpec};
use std::sync::Arc;

fn backbone() -> TransformerModel {
    let mut m = TransformerModel::new(ModelConfig::test_tiny(), 23);
    m.freeze_all();
    m
}

fn engine_cfg() -> EngineConfig {
    EngineConfig {
        block_size: 4,
        ..EngineConfig::default()
    }
}

fn cluster(config: ClusterConfig) -> ClusterScheduler {
    ClusterScheduler::new(
        |_| backbone(),
        engine_cfg(),
        config,
        Arc::new(AdapterRegistry::in_memory()),
    )
}

fn spec(tenant: &str, steps: u64) -> JobSpec {
    JobSpec {
        stream_len: 2_000,
        ..JobSpec::lora(tenant, steps, 1, 16)
    }
}

/// The single-backbone reference arm: one replica, slices at least as long
/// as any budget, one tenant submitted and drained at a time — plain
/// sequential per-tenant training.
fn sequential_reference(
    config: ClusterConfig,
    specs: &[JobSpec],
    calib: Option<&[(Vec<u32>, usize, usize)]>,
) -> Vec<JobReport> {
    let mut reference = cluster(ClusterConfig {
        replicas: 1,
        slice_steps: 64,
        ..config
    });
    if let Some(calib) = calib {
        reference.calibrate_shared(calib);
    }
    let mut reports = Vec::new();
    for s in specs {
        assert!(reference.submit(s.clone(), QosClass::Batch).is_admitted());
        reports.extend(reference.run_to_completion().reports);
    }
    reports
}

/// Per-tenant losses from an N-replica interleaved drive are bit-identical
/// to the single backbone training the same specs one after another — the
/// scale-out is invisible to every tenant's numerics.
#[test]
fn replicated_drive_matches_single_backbone_scheduler_bitwise() {
    let specs: Vec<JobSpec> = (0..4).map(|i| spec(&format!("t{i}"), 6)).collect();
    let reference_reports = sequential_reference(ClusterConfig::default(), &specs, None);

    // Candidate: three replicas, work stealing, mixed QoS classes — maximal
    // interleaving freedom.
    let mut c = cluster(ClusterConfig {
        replicas: 3,
        slice_steps: 2,
        ..ClusterConfig::default()
    });
    let classes = [
        QosClass::Interactive,
        QosClass::Batch,
        QosClass::BestEffort,
        QosClass::Batch,
    ];
    for (s, class) in specs.iter().zip(classes) {
        assert!(c.submit(s.clone(), class).is_admitted());
    }
    let report = c.run_to_completion();
    assert!(report.failures.is_empty());
    assert!(report.quarantined.is_empty());

    for r in &reference_reports {
        let clustered = report.report_for(&r.tenant).expect("tenant completed");
        assert_eq!(
            clustered.losses, r.losses,
            "{}: cluster placement must not change the loss stream",
            r.tenant
        );
        assert_eq!(clustered.adapter_params, r.adapter_params);
    }
}

/// `precision = Nf4Frozen` flows through every cluster replica: each
/// replica's backbone is NF4-quantized at construction, `calibrate_shared`
/// still broadcasts one predictor blob to all replicas, and an interleaved
/// multi-replica sparse drive stays bit-identical to a single identically
/// quantized backbone draining the same jobs sequentially.
#[test]
fn quantized_backbone_cluster_matches_sequential_single_backbone_bitwise() {
    let specs: Vec<JobSpec> = (0..3).map(|i| spec(&format!("p{i}"), 6)).collect();
    let calib: Vec<(Vec<u32>, usize, usize)> = {
        let spec = DatasetSpec::E2e {
            world_seed: 5,
            salt: 1,
        };
        let mut batcher = spec.build_batcher(64, 2_000);
        (0..2).map(|_| (batcher.next_batch(1, 16), 1, 16)).collect()
    };

    // Reference: single backbone, quantized, one tenant at a time.
    let reference_reports = sequential_reference(
        ClusterConfig {
            mode: StepMode::Sparse,
            precision: Precision::Nf4Frozen,
            ..ClusterConfig::default()
        },
        &specs,
        Some(&calib),
    );

    // Candidate: two quantized replicas, small slices, maximal interleaving.
    let mut c = cluster(ClusterConfig {
        replicas: 2,
        slice_steps: 2,
        mode: StepMode::Sparse,
        precision: Precision::Nf4Frozen,
        ..ClusterConfig::default()
    });
    c.calibrate_shared(&calib);
    assert!(c.calibrated(), "broadcast reaches every replica");
    for s in &specs {
        assert!(c.submit(s.clone(), QosClass::Batch).is_admitted());
    }
    let report = c.run_to_completion();
    assert!(report.failures.is_empty());
    assert!(report.quarantined.is_empty());

    for r in &reference_reports {
        let clustered = report.report_for(&r.tenant).expect("tenant completed");
        assert_eq!(
            clustered.losses, r.losses,
            "{}: NF4 storage must not break the scale-out equivalence",
            r.tenant
        );
    }
}

/// Fused multi-tenant eval slices produce exactly the losses of unfused
/// per-tenant slices: fusion is a batching optimisation, not an
/// approximation.
#[test]
fn fused_eval_losses_are_bit_identical_to_unfused() {
    let eval_specs = || {
        (0..3).map(|i| {
            let mut j = spec(&format!("e{i}"), 5);
            j.eval_only = true;
            j.dataset = DatasetSpec::Instruct {
                world_seed: 7,
                salt: 3 + i,
            };
            j
        })
    };
    let run = |fusion: bool| {
        let mut c = cluster(ClusterConfig {
            replicas: 1,
            slice_steps: 5,
            fusion,
            ..ClusterConfig::default()
        });
        for j in eval_specs() {
            assert!(c.submit(j, QosClass::Interactive).is_admitted());
        }
        c.run_to_completion()
    };
    let fused = run(true);
    let unfused = run(false);
    assert!(
        fused.fused_steps > 0,
        "three co-queued shape-compatible eval tenants must fuse"
    );
    assert_eq!(unfused.fused_steps, 0);
    for r in &unfused.reports {
        let f = fused.report_for(&r.tenant).expect("tenant completed");
        assert_eq!(
            f.losses, r.losses,
            "{}: de-fused losses must match the solo run bitwise",
            r.tenant
        );
    }
}

/// A replica that panics mid-slice is quarantined; its queued *and*
/// in-flight jobs are requeued onto survivors and still complete their full
/// step budget, with the loss streams unchanged from a healthy run.
#[test]
fn quarantined_replica_requeues_jobs_without_changing_numerics() {
    let drive = |inject: bool| {
        let mut c = cluster(ClusterConfig {
            replicas: 2,
            slice_steps: 2,
            ..ClusterConfig::default()
        });
        for t in ["a", "b", "c", "d"] {
            assert!(c.submit(spec(t, 6), QosClass::Batch).is_admitted());
        }
        if inject {
            c.inject_slice_panic("c");
        }
        c.run_to_completion()
    };
    let healthy = drive(false);
    assert!(healthy.quarantined.is_empty());
    let degraded = drive(true);
    assert_eq!(degraded.quarantined.len(), 1, "one replica lost");
    assert!(degraded.failures.is_empty(), "survivor absorbs the work");
    assert_eq!(degraded.reports.len(), 4);
    for r in &healthy.reports {
        let d = degraded.report_for(&r.tenant).expect("tenant completed");
        assert_eq!(d.steps, 6, "{}: full budget despite the fault", r.tenant);
        assert_eq!(
            d.losses, r.losses,
            "{}: requeue must resume, not restart",
            r.tenant
        );
    }
}

/// Admission control under seeded overload is deterministic: the same
/// submission sequence yields the same accept/reject pattern and the same
/// retry hints, so clients can implement honest backoff.
#[test]
fn backpressure_is_deterministic_under_overload() {
    let submit_wave = || {
        let mut c = cluster(ClusterConfig {
            replicas: 2,
            quotas: QosQuotas {
                interactive: 2,
                batch: 3,
                ..QosQuotas::default()
            },
            ..ClusterConfig::default()
        });
        let mut outcomes = Vec::new();
        for i in 0..6 {
            let class = if i % 2 == 0 {
                QosClass::Interactive
            } else {
                QosClass::Batch
            };
            outcomes.push(match c.submit(spec(&format!("t{i}"), 2), class) {
                Submit::Admitted => (true, None),
                Submit::Rejected { retry_after, .. } => (false, retry_after),
            });
        }
        outcomes
    };
    let first = submit_wave();
    let second = submit_wave();
    assert_eq!(first, second, "identical waves, identical admissions");
    // Interactive quota 2: submissions 0 and 2 admitted, 4 bounced with the
    // class retry hint. Batch quota 3: 1, 3, 5 all admitted.
    assert_eq!(first[0], (true, None));
    assert_eq!(first[2], (true, None));
    assert_eq!(
        first[4],
        (false, Some(QosClass::Interactive.base_retry())),
        "overflowing interactive job carries the deterministic retry hint"
    );
    assert!(first[1].0 && first[3].0 && first[5].0);
}
