//! The one slice loop: every scheduled slice in the workspace runs here.
//!
//! N independent backbone replicas (each its own [`FinetuneEngine`]: model
//! copy, kernel policy, plan cache, workspace arena) drain one work-stealing
//! [`DispatchQueue`] of [`TenantTask`]s. Each slice attaches a tenant's
//! adapter to a replica's frozen backbone, runs up to `slice_steps` steps
//! with the tenant's own optimizer, then extracts and detaches. Because a
//! task carries *all* of its job's mutable state, an interleaved schedule is
//! bit-identical to running each job back-to-back, and a tenant can run its
//! next slice on any replica without changing its numerics — the integration
//! suite proves per-tenant losses identical at any replica count.
//!
//! At `replicas = 1` this is the plain shared-backbone scheduler: a drive
//! that requeues each unfinished task at the back of its class deque is
//! round-robin within a QoS class, and the QoS class is the one priority
//! mechanism.

use crate::dispatch::{lock, DispatchQueue};
use crate::qos::{JobFailure, QosClass, QosQuotas, Submit};
use long_exposure::engine::{EngineConfig, FinetuneEngine, StepMode};
use long_exposure::CalibrationReport;
use lx_model::{Precision, TransformerModel};
use lx_obs::{registry as obs_registry, Histogram};
use lx_serve::{
    run_fused_eval_slice, AdapterRegistry, JobReport, JobSpec, MetricsSnapshot, ProgressSink,
    ServeMetrics, SliceOutcome, TenantTask,
};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "unknown panic"
    }
}

/// Cluster shape and policy.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Backbone replicas (worker threads). 1 is the single shared backbone.
    pub replicas: usize,
    /// Steps per scheduled slice before a task yields its replica.
    pub slice_steps: u64,
    /// Execution mode for tenant steps (`Sparse` needs
    /// [`ClusterScheduler::calibrate_shared`] first).
    pub mode: StepMode,
    /// Storage precision of every replica's backbone — the tenants-per-GB
    /// axis: adapters and optimizer state stay f32 per tenant while
    /// `F16Frozen` halves the backbone and `Nf4Frozen` cuts it to ~0.14x
    /// (QLoRA-style serving).
    pub precision: Precision,
    /// Per-QoS-class admission quotas.
    pub quotas: QosQuotas,
    /// Coalesce compatible queued eval jobs into fused slices.
    pub fusion: bool,
    /// Max tenants per fused slice.
    pub max_fused: usize,
    /// Force sequential GEMMs inside replica workers. With one worker thread
    /// per replica, replicas *are* the parallelism — letting each slice also
    /// fan out onto the shared `lx-parallel` pool would oversubscribe cores
    /// and serialise replicas on the pool lock. The pin applies only to a
    /// drive that starts with more than one healthy replica: a lone replica
    /// has no sibling to contend with and keeps its GEMMs on the pool.
    /// Numerics are unaffected (parallel == sequential GEMM bit-identity is
    /// proven by the kernel suite).
    pub sequential_gemm: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replicas: 2,
            slice_steps: 4,
            mode: StepMode::Dense,
            precision: Precision::F32,
            quotas: QosQuotas::default(),
            fusion: true,
            max_fused: 8,
            sequential_gemm: true,
        }
    }
}

/// What one drive ([`ClusterScheduler::run_to_completion`] or
/// [`ClusterScheduler::run_round`]) did.
#[derive(Debug, Default)]
pub struct ClusterReport {
    pub replicas: usize,
    /// Completion reports, sorted by tenant for determinism (thread
    /// completion order is not deterministic).
    pub reports: Vec<JobReport>,
    /// Jobs lost to quarantine with no healthy replica left to requeue onto,
    /// or whose finished adapter the registry could not store.
    pub failures: Vec<JobFailure>,
    /// Replicas quarantined since the previous report (panicking worker or
    /// admission).
    pub quarantined: Vec<usize>,
    /// Jobs taken by an idle replica from a sibling's queue.
    pub steals: u64,
    /// Fused eval steps executed (each covers several tenants at once).
    pub fused_steps: u64,
    /// Tenant-steps served through fusion (`Σ` group size per fused step).
    pub fused_jobs: u64,
}

impl ClusterReport {
    pub fn report_for(&self, tenant: &str) -> Option<&JobReport> {
        self.reports.iter().find(|r| r.tenant == tenant)
    }
}

/// One backbone replica: its engine plus the tenant that ran its previous
/// slice. The predicted policy's cached plan is invalidated whenever that
/// changes (a plan predicted against one tenant's adapter must not be
/// replayed for another).
struct Replica {
    engine: FinetuneEngine,
    last_tenant: Option<String>,
}

/// Replicated-backbone scheduler: admission (QoS quotas + validation),
/// placement (tenant→replica affinity), and a scoped-thread drive with
/// work-stealing, cross-tenant eval fusion and panic quarantine.
pub struct ClusterScheduler {
    replicas: Vec<Replica>,
    core: Core,
    /// Tenants admitted and not yet completed or failed, with their class
    /// (duplicate policing and quota accounting).
    active: HashMap<String, QosClass>,
    rr_place: usize,
}

/// Everything the replica workers share during a drive.
struct Core {
    registry: Arc<AdapterRegistry>,
    config: ClusterConfig,
    queue: DispatchQueue<TenantTask>,
    /// Tenant → replica that last served it. New submissions land there so
    /// a returning tenant re-joins the replica most likely to have served it
    /// before; within a drive, a completed slice requeues onto the worker's
    /// own deque (stealable by idle siblings).
    affinity: Mutex<HashMap<String, usize>>,
    metrics: Mutex<ServeMetrics>,
    /// What has happened since the last report was handed out. Workers and
    /// the admission-quarantine path record here; each drive takes it.
    tally: Mutex<ClusterReport>,
    /// Admitted jobs neither completed nor failed yet.
    unfinished: AtomicUsize,
    /// `serve.cluster.wait_ns`: runnable → popped by a replica, all tenants.
    wait_hist: Arc<Histogram>,
    /// Fault injection: tenants whose next slice panics its replica worker
    /// (deterministic quarantine testing).
    panic_tenants: Mutex<HashSet<String>>,
}

impl ClusterScheduler {
    /// Build a cluster of `config.replicas` backbones. `build` is called once
    /// per replica and must return *identical* pristine (fully frozen,
    /// nothing attached) models — same config, same seed — or the replica-
    /// placement-invariance property is forfeit. Panics on a non-pristine
    /// backbone.
    pub fn new(
        mut build: impl FnMut(usize) -> TransformerModel,
        engine_config: EngineConfig,
        config: ClusterConfig,
        registry: Arc<AdapterRegistry>,
    ) -> Self {
        assert!(config.replicas >= 1, "a cluster needs at least one replica");
        assert!(config.max_fused >= 2, "fused slices need at least two jobs");
        let replicas: Vec<Replica> = (0..config.replicas)
            .map(|r| {
                let mut model = build(r);
                assert_eq!(
                    model.num_trainable(),
                    0,
                    "replica {r} backbone must be pristine: freeze/detach before clustering"
                );
                model.set_precision(config.precision);
                let mut engine = FinetuneEngine::new(model, engine_config.clone());
                // Reuse predictors calibrated by a previous process.
                if let Some(blob) = registry.predictors() {
                    engine
                        .import_predictors(blob)
                        .expect("registry predictors incompatible with this backbone");
                }
                Replica {
                    engine,
                    last_tenant: None,
                }
            })
            .collect();
        ClusterScheduler {
            replicas,
            core: Core {
                registry,
                queue: DispatchQueue::new(config.replicas),
                config,
                affinity: Mutex::new(HashMap::new()),
                metrics: Mutex::new(ServeMetrics::default()),
                tally: Mutex::new(ClusterReport::default()),
                unfinished: AtomicUsize::new(0),
                wait_hist: obs_registry().histogram("serve.cluster.wait_ns"),
                panic_tenants: Mutex::new(HashSet::new()),
            },
            active: HashMap::new(),
            rr_place: 0,
        }
    }

    /// Calibrate shared sparsity predictors once on replica 0, broadcast the
    /// exported blob to every other replica, and persist it to the registry
    /// so later processes reuse it. All replicas end up with byte-identical
    /// predictors, so a sparse tenant's plan is the same wherever it is
    /// scheduled.
    pub fn calibrate_shared(&mut self, batches: &[(Vec<u32>, usize, usize)]) -> CalibrationReport {
        let (first, rest) = self
            .replicas
            .split_first_mut()
            .expect("a cluster has at least one replica");
        let report = first.engine.calibrate(batches);
        let blob = first.engine.export_predictors();
        for replica in rest {
            replica
                .engine
                .import_predictors(blob.clone())
                .expect("replica rejected predictors exported by replica 0");
        }
        self.core
            .registry
            .set_predictors(blob)
            .expect("failed to persist shared predictors");
        report
    }

    /// Whether sparse-mode steps are possible (predictors present).
    pub fn calibrated(&self) -> bool {
        self.replicas[0].engine.calibrated
    }

    pub fn registry(&self) -> &Arc<AdapterRegistry> {
        &self.core.registry
    }

    pub fn metrics(&self) -> MetricsSnapshot {
        lock(&self.core.metrics).snapshot()
    }

    /// Jobs admitted and waiting for the next drive.
    pub fn pending_jobs(&self) -> usize {
        self.core.queue.total_pending()
    }

    /// Mark `tenant` so its next scheduled slice panics its replica worker —
    /// the deterministic fault-injection hook behind the quarantine tests
    /// (and nothing else: production code never sets it).
    pub fn inject_slice_panic(&self, tenant: &str) {
        lock(&self.core.panic_tenants).insert(tenant.to_string());
    }

    /// Admit a job. If the registry already holds an adapter for this tenant
    /// (same method), the job resumes from it — warm restarts across process
    /// boundaries; otherwise a fresh adapter is initialised on the backbone.
    pub fn submit(&mut self, spec: JobSpec, class: QosClass) -> Submit {
        self.submit_with_progress(spec, class, None)
    }

    /// [`Self::submit`] with a per-step observer: `progress` is invoked on
    /// the serving replica's thread after every step of this job. Rejections
    /// carry the backpressure contract: `retry_after == None` for permanent
    /// errors (invalid spec, duplicate tenant, method mismatch, no healthy
    /// replica), `Some(class.base_retry())` for quota rejections.
    pub fn submit_with_progress(
        &mut self,
        spec: JobSpec,
        class: QosClass,
        progress: Option<ProgressSink>,
    ) -> Submit {
        let permanent = |reason: String| Submit::Rejected {
            reason,
            retry_after: None,
        };
        let core = &self.core;
        if self.active.contains_key(&spec.tenant) {
            return permanent(format!("tenant {} already has an active job", spec.tenant));
        }
        let limit = core.config.quotas.limit(class);
        let queued = self.active.values().filter(|&&c| c == class).count();
        if queued >= limit {
            return Submit::Rejected {
                reason: format!(
                    "{} quota exhausted: {queued}/{limit} jobs queued",
                    class.name()
                ),
                retry_after: Some(class.base_retry()),
            };
        }
        let preferred = lock(&core.affinity).get(&spec.tenant).copied();
        let replica = match preferred {
            Some(r) if !core.queue.is_quarantined(r) => r,
            _ => {
                let healthy = core.queue.healthy();
                if healthy.is_empty() {
                    return permanent("no healthy replicas".into());
                }
                let r = healthy[self.rr_place % healthy.len()];
                self.rr_place += 1;
                r
            }
        };
        // Admission attaches and detaches a fresh adapter on the replica's
        // backbone; contain a panic there exactly like one inside a slice.
        let engine = &mut self.replicas[replica].engine;
        let task = match catch_unwind(AssertUnwindSafe(|| {
            TenantTask::admit(spec, progress, engine, core.config.mode, &core.registry)
        })) {
            Ok(Ok(task)) => task,
            Ok(Err(reason)) => return permanent(reason),
            Err(payload) => {
                let why = format!(
                    "replica {replica} panicked in admission: {}",
                    panic_message(&*payload)
                );
                core.retire(replica, Vec::new(), &why);
                return permanent(why);
            }
        };
        let tenant = task.spec.tenant.clone();
        if core.queue.push(replica, class, task).is_err() {
            return permanent(format!(
                "replica {replica} was quarantined during admission"
            ));
        }
        core.unfinished.fetch_add(1, Ordering::Release);
        lock(&core.affinity).insert(tenant.clone(), replica);
        self.active.insert(tenant, class);
        lock(&core.metrics).queue_depth = self.active.len();
        Submit::Admitted
    }

    /// Drive every queued job to completion: one scoped worker thread per
    /// healthy replica, each popping its own deque (priority order), fusing
    /// compatible queued eval jobs, stealing when idle, and quarantining
    /// itself on panic (in-flight + queued jobs requeue to survivors; with
    /// no survivors left they surface as [`ClusterReport::failures`]).
    pub fn run_to_completion(&mut self) -> ClusterReport {
        self.drive(false)
    }

    /// The bounded drive: every healthy replica pops (fuses, steals) and
    /// runs **at most one** group, then the call returns — so a caller can
    /// admit new submissions between rounds. Jobs that finished or failed
    /// this round are in the report, and their tenant ids and quota slots
    /// are free again on return; unfinished tasks are back on their deques.
    /// With several replicas a round lasts as long as its slowest slice;
    /// [`Self::run_to_completion`] is the barrier-free drive.
    pub fn run_round(&mut self) -> ClusterReport {
        self.drive(true)
    }

    fn drive(&mut self, bounded: bool) -> ClusterReport {
        let core = &self.core;
        let sequential = core.config.sequential_gemm && core.queue.healthy().len() > 1;
        std::thread::scope(|scope| {
            for (r, replica) in self.replicas.iter_mut().enumerate() {
                if !core.queue.is_quarantined(r) {
                    scope.spawn(move || core.work(r, replica, sequential, bounded));
                }
            }
        });
        // Belt-and-braces: a push that raced a concurrent quarantine can
        // strand a job on a dead replica's deque; surface it as a failure
        // rather than dropping it silently.
        for r in 0..self.replicas.len() {
            if core.queue.is_quarantined(r) {
                for (_, task) in core.queue.drain_replica(r) {
                    core.fail(&task, &format!("stranded on quarantined replica {r}"));
                }
            }
        }
        let mut report = std::mem::take(&mut *lock(&core.tally));
        report.replicas = core.config.replicas;
        report.reports.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        report.failures.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        report.quarantined.sort_unstable();
        // A finished or failed job frees its tenant id and quota slot now,
        // not when the whole backlog has drained.
        let done = report.reports.iter().map(|r| &r.tenant);
        for tenant in done.chain(report.failures.iter().map(|f| &f.tenant)) {
            self.active.remove(tenant);
        }
        lock(&core.metrics).queue_depth = self.active.len();
        report
    }
}

impl Core {
    /// The replica worker body — the only caller of `TenantTask::run_slice`
    /// and `run_fused_eval_slice` outside tests. `bounded` stops after one
    /// group ([`ClusterScheduler::run_round`]); `sequential` pins slice
    /// GEMMs (see [`ClusterConfig::sequential_gemm`]).
    fn work(&self, r: usize, replica: &mut Replica, sequential: bool, bounded: bool) {
        while self.unfinished.load(Ordering::Acquire) > 0 {
            let Some(mut group) = self.next_group(r) else {
                if bounded {
                    return;
                }
                // Siblings may still be mid-slice; their jobs requeue (or
                // complete) shortly.
                std::thread::sleep(Duration::from_micros(200));
                continue;
            };
            for (_, t) in &group {
                self.wait_hist.record_duration(t.ready_since.elapsed());
            }
            // The group lives outside the unwind boundary so a panicking
            // slice can still hand its jobs to the quarantine path.
            let run = catch_unwind(AssertUnwindSafe(|| {
                for (_, t) in group.iter() {
                    if lock(&self.panic_tenants).remove(&t.spec.tenant) {
                        panic!("injected fault while serving tenant {}", t.spec.tenant);
                    }
                }
                if sequential {
                    lx_kernels::with_sequential(|| self.run_group(replica, &mut group))
                } else {
                    self.run_group(replica, &mut group)
                }
            }));
            match run {
                Ok(outcomes) => self.settle(r, group, outcomes),
                Err(payload) => {
                    // This replica is out (its engine may hold a
                    // half-attached adapter). The interrupted slice's
                    // adapter updates are discarded — tasks resume from
                    // their last completed slice.
                    let why = format!("replica {r} panicked: {}", panic_message(&*payload));
                    self.retire(r, group, &why);
                    return;
                }
            }
            if bounded {
                return;
            }
        }
    }

    /// Pop this replica's next job plus any queued fusion peers, or steal
    /// one from a sibling.
    fn next_group(&self, r: usize) -> Option<Vec<(QosClass, TenantTask)>> {
        if let Some(first) = self.queue.pop_own(r) {
            let mut group = vec![first];
            if let (true, Some(key)) = (self.config.fusion, group[0].1.fusion_key()) {
                let peers = self.config.max_fused - 1;
                group.extend(
                    self.queue
                        .drain_matching(r, peers, |t| t.fusion_key() == Some(key)),
                );
            }
            return Some(group);
        }
        let stolen = self.queue.steal_for(r)?;
        lock(&self.tally).steals += 1;
        obs_registry().counter("serve.replica.steals").inc();
        Some(vec![stolen])
    }

    /// Run one scheduled group on a replica: a fused eval slice when the
    /// group has ≥2 (fusion-key-matched) jobs, a plain slice otherwise.
    fn run_group(
        &self,
        replica: &mut Replica,
        group: &mut [(QosClass, TenantTask)],
    ) -> Vec<SliceOutcome> {
        let (mode, slice_steps) = (self.config.mode, self.config.slice_steps);
        if group.len() >= 2 {
            let mut refs: Vec<&mut TenantTask> = group.iter_mut().map(|(_, t)| t).collect();
            // The fused slice invalidates per shard and leaves the plan
            // cache in the last shard's context; force a fresh plan next
            // slice.
            replica.last_tenant = None;
            run_fused_eval_slice(&mut replica.engine, mode, &mut refs, slice_steps)
        } else {
            let (_, task) = &mut group[0];
            if replica.last_tenant.as_deref() != Some(task.spec.tenant.as_str()) {
                replica.engine.invalidate_plan_cache();
                replica.last_tenant = Some(task.spec.tenant.clone());
            }
            vec![task.run_slice(&mut replica.engine, mode, slice_steps)]
        }
    }

    /// Account a clean slice: metrics and affinity, then persist + report
    /// each finished job and requeue the rest. Runs outside the worker's
    /// unwind boundary, so nothing here may panic: a finished adapter the
    /// registry cannot store (disk full, directory gone) fails that job —
    /// the replica is healthy and keeps serving.
    fn settle(&self, r: usize, group: Vec<(QosClass, TenantTask)>, outcomes: Vec<SliceOutcome>) {
        if group.len() >= 2 {
            let steps = outcomes[0].steps;
            let mut tally = lock(&self.tally);
            tally.fused_steps += steps;
            tally.fused_jobs += steps * group.len() as u64;
        }
        for ((class, task), out) in group.into_iter().zip(outcomes) {
            let tenant = &task.spec.tenant;
            lock(&self.metrics).record_slice(
                tenant,
                out.steps,
                out.tokens,
                out.busy,
                out.swap,
                out.last_loss,
            );
            lock(&self.affinity).insert(tenant.clone(), r);
            if task.remaining() > 0 {
                self.requeue_or_fail(r, class, task, "its replica was quarantined");
                continue;
            }
            match self.registry.put(tenant, task.adapter()) {
                Ok(()) => {
                    lock(&self.metrics).completed_jobs += 1;
                    lock(&self.tally).reports.push(task.into_report());
                    self.unfinished.fetch_sub(1, Ordering::Release);
                }
                Err(e) => self.fail(&task, &format!("failed to persist finished adapter: {e}")),
            }
        }
    }

    /// Quarantine replica `r` (`why`: the panic that took it out) and hand
    /// `in_flight` plus everything queued there to the survivors.
    fn retire(&self, r: usize, in_flight: Vec<(QosClass, TenantTask)>, why: &str) {
        obs_registry().counter("serve.replica.quarantined").inc();
        lock(&self.tally).quarantined.push(r);
        let mut stranded = in_flight;
        stranded.extend(self.queue.quarantine(r));
        for (class, task) in stranded {
            self.requeue_or_fail(r, class, task, why);
        }
    }

    /// Requeue a live task near `origin` (its own replica first for
    /// affinity, else the first healthy survivor); with no healthy replica
    /// left the job fails, naming `why`.
    fn requeue_or_fail(&self, origin: usize, class: QosClass, mut task: TenantTask, why: &str) {
        let mut target = origin;
        loop {
            match self.queue.push(target, class, task) {
                Ok(()) => return,
                Err(rejected) => task = rejected,
            }
            match self.queue.healthy().first() {
                Some(&h) => target = h,
                None => return self.fail(&task, &format!("no healthy replica left: {why}")),
            }
        }
    }

    /// Retire a job the cluster cannot finish.
    fn fail(&self, task: &TenantTask, error: &str) {
        lock(&self.tally).failures.push(JobFailure {
            tenant: task.spec.tenant.clone(),
            error: error.to_string(),
        });
        self.unfinished.fetch_sub(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lx_model::ModelConfig;
    use lx_peft::PeftMethod;
    use lx_serve::DatasetSpec;

    fn backbone() -> TransformerModel {
        let mut m = TransformerModel::new(ModelConfig::test_tiny(), 11);
        m.freeze_all();
        m
    }

    fn cluster_with(config: ClusterConfig, registry: Arc<AdapterRegistry>) -> ClusterScheduler {
        ClusterScheduler::new(
            |_| backbone(),
            EngineConfig {
                block_size: 4,
                ..EngineConfig::default()
            },
            config,
            registry,
        )
    }

    fn cluster(config: ClusterConfig) -> ClusterScheduler {
        cluster_with(config, Arc::new(AdapterRegistry::in_memory()))
    }

    /// The single shared backbone.
    fn one_replica(slice_steps: u64) -> ClusterConfig {
        ClusterConfig {
            replicas: 1,
            slice_steps,
            ..ClusterConfig::default()
        }
    }

    fn spec(tenant: &str, steps: u64) -> JobSpec {
        JobSpec {
            stream_len: 2_000,
            ..JobSpec::lora(tenant, steps, 1, 16)
        }
    }

    fn admit(c: &mut ClusterScheduler, spec: JobSpec) {
        let verdict = c.submit(spec, QosClass::Batch);
        assert!(verdict.is_admitted(), "{verdict:?}");
    }

    fn rejection(c: &mut ClusterScheduler, spec: JobSpec) -> String {
        match c.submit(spec, QosClass::Batch) {
            Submit::Rejected { reason, .. } => reason,
            Submit::Admitted => panic!("job must bounce"),
        }
    }

    /// Drain and return the only job's report.
    fn run_one(c: &mut ClusterScheduler) -> JobReport {
        let mut report = c.run_to_completion();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.reports.len(), 1);
        report.reports.remove(0)
    }

    #[test]
    fn two_replicas_drain_a_mixed_queue() {
        let mut c = cluster(ClusterConfig {
            replicas: 2,
            ..ClusterConfig::default()
        });
        for (i, class) in [
            QosClass::Interactive,
            QosClass::Batch,
            QosClass::Batch,
            QosClass::BestEffort,
        ]
        .iter()
        .enumerate()
        {
            assert!(c.submit(spec(&format!("t{i}"), 6), *class).is_admitted());
        }
        assert_eq!(c.pending_jobs(), 4);
        let report = c.run_to_completion();
        assert_eq!(report.reports.len(), 4);
        assert!(report.failures.is_empty());
        assert!(report.quarantined.is_empty());
        for r in &report.reports {
            assert_eq!(r.steps, 6);
            assert!(r.losses.iter().all(|l| l.is_finite()), "{:?}", r.losses);
        }
        let snap = c.metrics();
        assert_eq!(snap.completed_jobs, 4);
        assert_eq!(snap.total_steps, 24);
        assert_eq!(snap.queue_depth, 0);
        // Finished adapters all landed in the registry.
        assert_eq!(c.registry().tenants().len(), 4);
    }

    #[test]
    fn quota_rejections_carry_deterministic_retry_hints() {
        let mut c = cluster(ClusterConfig {
            replicas: 2,
            quotas: QosQuotas {
                interactive: 2,
                best_effort: 0,
                ..QosQuotas::default()
            },
            ..ClusterConfig::default()
        });
        assert!(c.submit(spec("a", 2), QosClass::Interactive).is_admitted());
        assert!(c.submit(spec("b", 2), QosClass::Interactive).is_admitted());
        match c.submit(spec("c", 2), QosClass::Interactive) {
            Submit::Rejected {
                retry_after,
                reason,
            } => {
                assert_eq!(
                    retry_after,
                    Some(QosClass::Interactive.base_retry()),
                    "quota rejection must carry the class retry hint"
                );
                assert!(reason.contains("2/2"), "{reason}");
            }
            Submit::Admitted => panic!("third interactive job must bounce"),
        }
        // A quota of 0 closes the class: same contract, no arithmetic on it.
        match c.submit(spec("c", 2), QosClass::BestEffort) {
            Submit::Rejected {
                retry_after,
                reason,
            } => {
                assert_eq!(retry_after, Some(QosClass::BestEffort.base_retry()));
                assert!(reason.contains("0/0"), "{reason}");
            }
            Submit::Admitted => panic!("a closed class admits nothing"),
        }
        // Other classes are unaffected by the interactive quota.
        assert!(c.submit(spec("c", 2), QosClass::Batch).is_admitted());
        // Duplicate tenants are permanent rejections: no retry hint.
        match c.submit(spec("a", 2), QosClass::Batch) {
            Submit::Rejected { retry_after, .. } => assert_eq!(retry_after, None),
            Submit::Admitted => panic!("duplicate tenant must bounce"),
        }
        // After the drive the quota frees up.
        c.run_to_completion();
        assert!(c.submit(spec("d", 2), QosClass::Interactive).is_admitted());
    }

    #[test]
    fn completed_job_frees_its_tenant_and_quota_slot_mid_backlog() {
        let mut c = cluster(ClusterConfig {
            quotas: QosQuotas {
                interactive: 1,
                ..QosQuotas::default()
            },
            ..one_replica(2)
        });
        admit(&mut c, spec("long", 40));
        assert!(c
            .submit(spec("quick", 2), QosClass::Interactive)
            .is_admitted());
        // Interactive drains first: one round finishes `quick` while `long`
        // has not run a step.
        let round = c.run_round();
        assert_eq!(round.reports.len(), 1);
        assert_eq!(round.reports[0].tenant, "quick");
        assert_eq!(c.pending_jobs(), 1);
        assert_eq!(c.metrics().queue_depth, 1);
        // Same tenant, same (full-at-1) class: both slots are free again.
        assert!(c
            .submit(spec("quick", 2), QosClass::Interactive)
            .is_admitted());
        assert!(!c.submit(spec("long", 2), QosClass::Batch).is_admitted());
        let rest = c.run_to_completion();
        assert_eq!(rest.reports.len(), 2);
        assert_eq!(c.metrics().queue_depth, 0);
    }

    #[test]
    fn single_replica_is_the_degenerate_case() {
        let mut c = cluster(one_replica(4));
        admit(&mut c, spec("solo", 10));
        let report = c.run_to_completion();
        assert_eq!(report.replicas, 1);
        assert_eq!(report.steals, 0, "nothing to steal from");
        let r = report.report_for("solo").unwrap();
        assert_eq!(r.steps, 10);
        assert_eq!(r.losses.len(), 10);
        assert!(r.losses.iter().all(|l| l.is_finite()));
        assert!(
            r.losses.last().unwrap() < r.losses.first().unwrap(),
            "training must reduce loss: {:?}",
            r.losses
        );
        // Finished adapter landed in the registry.
        assert_eq!(c.registry().tenants(), vec!["solo".to_string()]);
    }

    #[test]
    fn sparse_mode_requires_calibration() {
        let mut c = cluster(ClusterConfig {
            mode: StepMode::Sparse,
            ..one_replica(4)
        });
        assert!(rejection(&mut c, spec("t", 2)).contains("calibrate_shared"));
    }

    /// An empty batch list panics before any replica or the registry
    /// takes predictors that were never trained.
    #[test]
    #[should_panic(expected = "calibrate needs at least one batch")]
    fn empty_shared_calibration_is_rejected() {
        cluster(one_replica(4)).calibrate_shared(&[]);
    }

    #[test]
    fn sparse_mode_rejects_misaligned_sequences_at_admission() {
        let mut c = cluster(ClusterConfig {
            mode: StepMode::Sparse,
            ..one_replica(4)
        });
        let calib = vec![(
            spec("c", 1)
                .dataset
                .build_batcher(64, 1_000)
                .next_batch(1, 16),
            1,
            16,
        )];
        c.calibrate_shared(&calib);
        // seq 16 aligns with block 4; a 3-token prompt prefix breaks it.
        let mut misaligned = spec("t", 2);
        misaligned.method = PeftMethod::PromptTuning { prompt_len: 3 };
        let err = rejection(&mut c, misaligned);
        assert!(err.contains("block-aligned"), "{err}");
        // Aligned prompt is fine.
        let mut aligned = spec("t", 2);
        aligned.method = PeftMethod::PromptTuning { prompt_len: 4 };
        admit(&mut c, aligned);
    }

    #[test]
    fn jobs_longer_than_the_position_table_are_rejected_at_admission() {
        let max_seq = ModelConfig::test_tiny().max_seq;
        let mut c = cluster(one_replica(4));
        let err = rejection(&mut c, JobSpec::lora("long", 2, 1, max_seq + 1));
        assert!(err.contains("positions"), "{err}");
        let mut prompt = JobSpec::lora("prompt", 2, 1, max_seq);
        prompt.method = PeftMethod::PromptTuning { prompt_len: 4 };
        let err = rejection(&mut c, prompt);
        assert!(err.contains("positions"), "{err}");
        // The replica is untouched: a full-length job still runs.
        admit(&mut c, JobSpec::lora("fits", 2, 1, max_seq));
        assert_eq!(run_one(&mut c).steps, 2);
    }

    #[test]
    fn round_robin_stays_fair_after_a_completion() {
        // Equal budgets, submission order a, b, c: one replica requeues each
        // unfinished task at the back of its class deque, so completions
        // must come back in that order, one per round.
        let mut c = cluster(one_replica(4));
        for t in ["a", "b", "c"] {
            admit(&mut c, spec(t, 8));
        }
        let mut order = Vec::new();
        while c.pending_jobs() > 0 {
            order.extend(c.run_round().reports.into_iter().map(|r| r.tenant));
        }
        assert_eq!(order, vec!["a", "b", "c"], "round-robin completion order");
        assert_eq!(c.metrics().total_steps, 24);
    }

    #[test]
    fn half_precision_backbone_serves_tenants() {
        let mut c = cluster(ClusterConfig {
            precision: Precision::F16Frozen,
            ..one_replica(4)
        });
        for tenant in ["a", "b"] {
            let mut j = spec(tenant, 24);
            j.lr = 8e-3; // tiny random backbone: make 24 streamed steps count
            admit(&mut c, j);
        }
        let report = c.run_to_completion();
        assert_eq!(report.reports.len(), 2);
        for r in &report.reports {
            assert!(r.losses.iter().all(|l| l.is_finite()), "{:?}", r.losses);
            // Batches stream (no repeats), so individual losses are noisy;
            // the windowed mean must still trend down.
            let mean = |w: &[f32]| w.iter().sum::<f32>() / w.len() as f32;
            let (head, tail) = (mean(&r.losses[..6]), mean(&r.losses[18..]));
            assert!(
                tail < head,
                "{}: training on the half backbone must reduce loss: {:?}",
                r.tenant,
                r.losses
            );
        }
        assert_eq!(c.replicas[0].engine.model.precision(), Precision::F16Frozen);
    }

    #[test]
    fn reduced_backbone_interleaving_matches_sequential() {
        // The scheduler-equivalence property must survive the storage
        // change: the backbone is frozen (f16 bits / NF4 codes never
        // move) and all mutable tenant state is f32 and swaps in/out, so
        // interleaved and sequential runs stay bit-identical.
        for precision in [Precision::F16Frozen, Precision::Nf4Frozen] {
            let run = |slice_steps: u64| {
                let mut c = cluster(ClusterConfig {
                    precision,
                    ..one_replica(slice_steps)
                });
                admit(&mut c, spec("a", 6));
                admit(&mut c, spec("b", 6));
                let report = c.run_to_completion();
                assert_eq!(c.replicas[0].engine.model.precision(), precision);
                report
                    .reports
                    .into_iter()
                    .map(|r| r.losses)
                    .collect::<Vec<Vec<f32>>>()
            };
            let interleaved = run(2); // tenants alternate every 2 steps
            let sequential = run(6); // each tenant runs to completion in one slice
            assert_eq!(interleaved, sequential, "{precision}");
            for losses in &interleaved {
                assert!(losses.iter().all(|l| l.is_finite()), "{precision}");
            }
        }
    }

    #[test]
    fn progress_sink_observes_every_step() {
        let mut c = cluster(one_replica(3));
        let events = Arc::new(Mutex::new(Vec::new()));
        let sink_events = events.clone();
        assert!(c
            .submit_with_progress(
                spec("watched", 7),
                QosClass::Batch,
                Some(Box::new(move |e| sink_events.lock().unwrap().push(e))),
            )
            .is_admitted());
        let report = run_one(&mut c);
        let events = events.lock().unwrap();
        assert_eq!(events.len(), 7, "one event per step");
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.tenant, "watched");
            assert_eq!(e.step, i as u64 + 1);
            assert_eq!(e.total_steps, 7);
            assert_eq!(e.loss, report.losses[i], "event loss mirrors report");
            assert!(!e.eval);
            assert_eq!(e.micro_batches, 1);
        }
    }

    #[test]
    fn accumulated_job_matches_its_budget() {
        let mut c = cluster(one_replica(4));
        let mut accum = spec("accum", 6);
        accum.micro_batches = 3;
        admit(&mut c, accum);
        let report = run_one(&mut c);
        assert_eq!(
            report.steps, 6,
            "steps count optimizer updates, not batches"
        );
        assert!(report.losses.iter().all(|l| l.is_finite()));
        // Tokens account for every micro-batch drawn.
        assert_eq!(c.metrics().total_tokens, 6 * 3 * 16);
    }

    #[test]
    fn eval_only_job_leaves_the_stored_adapter_untouched() {
        let registry = Arc::new(AdapterRegistry::in_memory());
        let mut c = cluster_with(one_replica(4), registry.clone());
        admit(&mut c, spec("t", 6));
        c.run_to_completion();
        let trained = registry.get("t").unwrap().unwrap();
        // Evaluation pass over fresh data: losses come back, adapter
        // bit-identical afterwards.
        let mut eval = spec("t", 4);
        eval.eval_only = true;
        let events = Arc::new(Mutex::new(Vec::new()));
        let sink_events = events.clone();
        assert!(c
            .submit_with_progress(
                eval,
                QosClass::Batch,
                Some(Box::new(move |e| sink_events.lock().unwrap().push(e))),
            )
            .is_admitted());
        let report = run_one(&mut c);
        assert_eq!(report.steps, 4);
        assert!(report.losses.iter().all(|l| l.is_finite()));
        assert_eq!(
            registry.get("t").unwrap().unwrap(),
            trained,
            "eval-only must not move the adapter"
        );
        assert!(events.lock().unwrap().iter().all(|e| e.eval));
    }

    #[test]
    fn tenant_workspaces_are_retained_across_slices() {
        // Two interleaved tenants with different shapes: after each tenant's
        // first slice (warmup), its per-tenant workspace must serve every
        // later slice from the pool — misses stay flat, hits keep growing —
        // even though the other tenant runs in between.
        let mut c = cluster(one_replica(2));
        let mut a = spec("a", 12);
        a.batch = 2;
        admit(&mut c, a);
        admit(&mut c, spec("b", 12));
        // Between rounds every task sits on replica 0's deque: look, then
        // put them back in order.
        let stats = |c: &ClusterScheduler| {
            let tasks = c.core.queue.drain_replica(0);
            let stats: HashMap<String, _> = tasks
                .iter()
                .map(|(_, t)| (t.spec.tenant.clone(), t.workspace_stats()))
                .collect();
            for (class, task) in tasks {
                assert!(c.core.queue.push(0, class, task).is_ok());
            }
            stats
        };
        c.run_round(); // a: warmup slice
        c.run_round(); // b: warmup slice
        let warm = stats(&c);
        assert!(warm["a"].recycled > 0, "{:?}", warm["a"]);
        for _ in 0..4 {
            c.run_round();
        }
        let steady = stats(&c);
        for t in ["a", "b"] {
            assert_eq!(
                steady[t].misses, warm[t].misses,
                "tenant {t} steady state: {:?}",
                steady[t]
            );
            assert!(steady[t].hits > warm[t].hits, "tenant {t}");
        }
    }

    #[test]
    fn completed_tenant_resumes_from_registry() {
        let mut c = cluster(one_replica(4));
        admit(&mut c, spec("warm", 6));
        let first = run_one(&mut c);
        // Resubmit: must warm-start from the stored adapter, so the first
        // loss of the second run continues the trend rather than restarting
        // from the fresh-adapter loss.
        admit(&mut c, spec("warm", 6));
        let second = run_one(&mut c);
        assert!(
            second.losses[0] < first.losses[0],
            "warm resume should start below the cold first step: {} vs {}",
            second.losses[0],
            first.losses[0]
        );
    }

    #[test]
    fn resume_with_different_method_rejected() {
        let mut c = cluster(one_replica(4));
        admit(&mut c, spec("t", 2));
        c.run_to_completion();
        let mut other = spec("t", 2);
        other.method = PeftMethod::adapter_default();
        assert!(rejection(&mut c, other).contains("stored"));
    }

    #[test]
    fn mixed_methods_coexist() {
        let mut c = cluster(one_replica(3));
        let mut a = spec("lora-t", 6);
        a.method = PeftMethod::lora_default();
        let mut b = spec("adpt-t", 6);
        b.method = PeftMethod::adapter_default();
        b.dataset = DatasetSpec::Instruct {
            world_seed: 9,
            salt: 4,
        };
        let mut p = spec("prompt-t", 6);
        p.method = PeftMethod::PromptTuning { prompt_len: 4 };
        for j in [a, b, p] {
            admit(&mut c, j);
        }
        let report = c.run_to_completion();
        assert_eq!(report.reports.len(), 3);
        for r in &report.reports {
            assert_eq!(r.steps, 6);
            assert!(r.final_loss().is_finite());
        }
        let snap = c.metrics();
        assert_eq!(snap.completed_jobs, 3);
        assert_eq!(snap.total_steps, 18);
        assert_eq!(snap.queue_depth, 0);
    }

    #[test]
    fn queued_eval_jobs_fuse_on_one_replica() {
        let mut c = cluster(one_replica(4));
        for t in ["e0", "e1", "e2"] {
            let mut j = spec(t, 4);
            j.eval_only = true;
            j.dataset = DatasetSpec::Instruct {
                world_seed: 5,
                salt: 1,
            };
            assert!(c.submit(j, QosClass::Interactive).is_admitted());
        }
        let report = c.run_to_completion();
        assert_eq!(report.reports.len(), 3);
        assert_eq!(
            report.fused_steps, 4,
            "three co-queued eval tenants fuse into 4 fused steps"
        );
        assert_eq!(report.fused_jobs, 12, "3 tenants x 4 steps through fusion");
        for r in &report.reports {
            assert!(r.losses.iter().all(|l| l.is_finite()));
        }
    }

    #[test]
    fn injected_panic_quarantines_the_replica_and_the_run_completes() {
        let mut c = cluster(ClusterConfig {
            replicas: 2,
            ..ClusterConfig::default()
        });
        for t in ["a", "b", "c", "d"] {
            admit(&mut c, spec(t, 6));
        }
        c.inject_slice_panic("b");
        let report = c.run_to_completion();
        assert_eq!(report.quarantined.len(), 1, "exactly one replica lost");
        assert!(report.failures.is_empty(), "survivor absorbs the work");
        assert_eq!(report.reports.len(), 4);
        for r in &report.reports {
            assert_eq!(
                r.steps, 6,
                "{}: requeued job still meets its budget",
                r.tenant
            );
        }
    }

    #[test]
    fn panic_on_the_last_replica_fails_jobs_instead_of_hanging() {
        let mut c = cluster(one_replica(2));
        admit(&mut c, spec("doomed", 6));
        admit(&mut c, spec("bystander", 6));
        c.inject_slice_panic("doomed");
        let report = c.run_to_completion();
        assert_eq!(report.quarantined, vec![0]);
        assert_eq!(
            report.failures.len() + report.reports.len(),
            2,
            "every job is accounted for: {:?}",
            report.failures
        );
        let doomed = report
            .failures
            .iter()
            .find(|f| f.tenant == "doomed")
            .expect("doomed job fails");
        assert!(doomed.error.contains("injected fault"), "{}", doomed.error);
        // Both tenants' slots are released; with no replica left, later
        // submissions bounce permanently.
        assert_eq!(c.metrics().queue_depth, 0);
        match c.submit(spec("doomed", 2), QosClass::Batch) {
            Submit::Rejected {
                reason,
                retry_after,
            } => {
                assert!(reason.contains("no healthy replicas"), "{reason}");
                assert_eq!(retry_after, None);
            }
            Submit::Admitted => panic!("a dead cluster admits nothing"),
        }
    }

    #[test]
    fn unpersistable_adapter_fails_its_job_and_the_replicas_keep_serving() {
        let dir = std::env::temp_dir().join(format!("lx-cluster-put-{}", std::process::id()));
        let registry = Arc::new(AdapterRegistry::open(&dir).unwrap());
        let mut c = cluster_with(
            ClusterConfig {
                replicas: 2,
                ..ClusterConfig::default()
            },
            registry,
        );
        admit(&mut c, spec("a", 4));
        admit(&mut c, spec("b", 4));
        // The registry's directory vanishes under the running cluster.
        std::fs::remove_dir_all(&dir).unwrap();
        let report = c.run_to_completion();
        assert!(report.reports.is_empty());
        assert!(report.quarantined.is_empty(), "no replica is at fault");
        assert_eq!(report.failures.len(), 2);
        for f in &report.failures {
            assert!(f.error.contains("persist"), "{}", f.error);
        }
        let snap = c.metrics();
        assert_eq!((snap.completed_jobs, snap.queue_depth), (0, 0));
        // Storage back: the same tenants run on the same replicas.
        std::fs::create_dir_all(&dir).unwrap();
        admit(&mut c, spec("a", 2));
        assert_eq!(run_one(&mut c).steps, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn admission_panic_quarantines_only_its_replica() {
        // A LoRA with no target matrices passes spec validation but attaches
        // nothing, so adapter extraction asserts inside admission — after the
        // replica's backbone has been touched.
        let mut hollow = spec("hollow", 2);
        hollow.method = PeftMethod::Lora {
            rank: 4,
            alpha: 8.0,
            targets: lx_peft::LoraTargets {
                q: false,
                k: false,
                v: false,
                o: false,
                mlp_fc1: false,
                mlp_fc2: false,
            },
        };
        let mut c = cluster(ClusterConfig {
            replicas: 2,
            ..ClusterConfig::default()
        });
        admit(&mut c, spec("queued", 4)); // lands on replica 0
        admit(&mut c, spec("elsewhere", 4)); // replica 1
        let mut again = hollow.clone();
        again.tenant = "hollow-2".into();
        // Round-robin placement puts this one on replica 0.
        let err = rejection(&mut c, hollow);
        assert!(err.contains("panicked in admission"), "{err}");
        // Replica 0's queued job moved to the survivor and everything
        // admitted still completes there.
        let report = c.run_to_completion();
        assert_eq!(report.quarantined, vec![0]);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.reports.len(), 2);
        // The same spec on the last replica takes the cluster down, visibly.
        assert!(rejection(&mut c, again).contains("panicked in admission"));
        assert!(rejection(&mut c, spec("late", 2)).contains("no healthy replicas"));
    }
}
