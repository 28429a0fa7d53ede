//! Asynchronous front door: submissions from any thread, training on the
//! cluster's replica workers.
//!
//! [`FinetuneService::spawn`] moves a [`ClusterScheduler`] onto its own
//! thread. Clients call [`FinetuneService::submit`] to enqueue a [`JobSpec`]
//! under a [`QosClass`] and get back a [`JobTicket`] they can block on
//! ([`JobTicket::wait`]), poll ([`JobTicket::state`]), or *stream*
//! ([`JobTicket::progress`]): the serving replica publishes a typed
//! [`StepEvent`] after every step, so tenants observe loss/density/throughput
//! per step instead of only a terminal report. The service thread drives the
//! cluster one [`ClusterScheduler::run_round`] at a time; between rounds it
//! drains the submission queue, so new tenants join a busy service without
//! stopping it — a submission is admitted no later than the end of the
//! slices in flight when it arrived. The price of that bound: with several
//! replicas every round waits for its slowest slice, so a backlog known up
//! front drains faster through [`ClusterScheduler::run_to_completion`].

use crate::qos::{QosClass, Submit};
use crate::scheduler::ClusterScheduler;
use lx_obs::TraceSession;
use lx_serve::{JobReport, JobSpec, JobState, MetricsSnapshot, StepEvent};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};

struct TicketShared {
    state: JobState,
    events: Vec<StepEvent>,
}

struct TicketInner {
    shared: Mutex<TicketShared>,
    cv: Condvar,
}

impl TicketInner {
    fn new() -> Self {
        TicketInner {
            shared: Mutex::new(TicketShared {
                state: JobState::Queued,
                events: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    fn set(&self, state: JobState) {
        self.shared.lock().expect("ticket lock").state = state;
        self.cv.notify_all();
    }

    fn push_event(&self, event: StepEvent) {
        self.shared.lock().expect("ticket lock").events.push(event);
        self.cv.notify_all();
    }
}

/// Client-side handle to one submitted job.
#[derive(Clone)]
pub struct JobTicket {
    inner: Arc<TicketInner>,
}

impl JobTicket {
    /// Current lifecycle state (non-blocking).
    pub fn state(&self) -> JobState {
        self.inner.shared.lock().expect("ticket lock").state.clone()
    }

    /// Block until the job completes or is rejected.
    pub fn wait(&self) -> Result<JobReport, String> {
        let mut guard = self.inner.shared.lock().expect("ticket lock");
        loop {
            match &guard.state {
                JobState::Completed(report) => return Ok(report.clone()),
                JobState::Rejected(reason) => return Err(reason.clone()),
                _ => guard = self.inner.cv.wait(guard).expect("ticket lock"),
            }
        }
    }

    /// Stream this job's per-step [`StepEvent`]s. The iterator replays every
    /// event already recorded, blocks while the job is live, and ends when
    /// the job reaches a terminal state and all events are drained. Each
    /// stream starts from the first step, so late subscribers miss nothing.
    pub fn progress(&self) -> ProgressStream {
        ProgressStream {
            inner: self.inner.clone(),
            cursor: 0,
        }
    }
}

/// Blocking iterator over a job's per-step events (see
/// [`JobTicket::progress`]).
pub struct ProgressStream {
    inner: Arc<TicketInner>,
    cursor: usize,
}

impl Iterator for ProgressStream {
    type Item = StepEvent;

    fn next(&mut self) -> Option<StepEvent> {
        let mut guard = self.inner.shared.lock().expect("ticket lock");
        loop {
            if self.cursor < guard.events.len() {
                let event = guard.events[self.cursor].clone();
                self.cursor += 1;
                return Some(event);
            }
            match guard.state {
                JobState::Completed(_) | JobState::Rejected(_) => return None,
                _ => guard = self.inner.cv.wait(guard).expect("ticket lock"),
            }
        }
    }
}

enum Command {
    Submit(JobSpec, QosClass, Arc<TicketInner>),
    Metrics(Sender<MetricsSnapshot>),
}

/// Handle to a running multi-tenant fine-tuning service.
pub struct FinetuneService {
    tx: Option<Sender<Command>>,
    thread: Option<std::thread::JoinHandle<ClusterScheduler>>,
    /// Live trace session + where to dump it on shutdown (see `LX_TRACE`).
    trace: Option<(TraceSession, PathBuf)>,
}

impl FinetuneService {
    /// Start the service on its own thread. When the `LX_TRACE=path.json`
    /// environment variable is set, the whole service run is recorded and a
    /// Chrome trace-event file is written to that path on shutdown (or drop)
    /// — load it in Perfetto / `chrome://tracing` to see per-tenant slices,
    /// adapter swaps and step phases on a timeline.
    pub fn spawn(scheduler: ClusterScheduler) -> Self {
        match std::env::var("LX_TRACE") {
            Ok(path) if !path.is_empty() => Self::spawn_traced(scheduler, PathBuf::from(path)),
            _ => Self::spawn_inner(scheduler, None),
        }
    }

    /// [`Self::spawn`] with tracing forced on, dumping the Chrome trace to
    /// `path` at shutdown regardless of `LX_TRACE`.
    pub fn spawn_traced(scheduler: ClusterScheduler, path: PathBuf) -> Self {
        let trace = match TraceSession::start() {
            Ok(session) => Some((session, path)),
            Err(reason) => {
                eprintln!("lx-cluster: trace disabled: {reason}");
                None
            }
        };
        Self::spawn_inner(scheduler, trace)
    }

    fn spawn_inner(scheduler: ClusterScheduler, trace: Option<(TraceSession, PathBuf)>) -> Self {
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("lx-cluster-service".into())
            .spawn(move || serve_loop(scheduler, rx))
            .expect("failed to spawn scheduler thread");
        FinetuneService {
            tx: Some(tx),
            thread: Some(thread),
            trace,
        }
    }

    fn dump_trace(trace: Option<(TraceSession, PathBuf)>) {
        if let Some((session, path)) = trace {
            if let Err(e) = session.finish().write_chrome(&path) {
                eprintln!("lx-cluster: failed to write trace {}: {e}", path.display());
            }
        }
    }

    /// Enqueue a job under `class`; returns immediately with a ticket. A
    /// job the cluster does not admit (invalid spec, duplicate tenant,
    /// exhausted quota, no healthy replica) resolves to
    /// [`JobState::Rejected`] with the reason.
    pub fn submit(&self, spec: JobSpec, class: QosClass) -> JobTicket {
        let inner = Arc::new(TicketInner::new());
        let ticket = JobTicket {
            inner: inner.clone(),
        };
        let tx = self.tx.as_ref().expect("service already shut down");
        if tx
            .send(Command::Submit(spec, class, inner.clone()))
            .is_err()
        {
            inner.set(JobState::Rejected("service stopped".into()));
        }
        ticket
    }

    /// Snapshot of the live metrics (queue depth, throughput, per tenant).
    pub fn metrics(&self) -> MetricsSnapshot {
        let (tx, rx) = mpsc::channel();
        self.tx
            .as_ref()
            .expect("service already shut down")
            .send(Command::Metrics(tx))
            .expect("scheduler thread gone");
        rx.recv().expect("scheduler thread gone")
    }

    /// Finish all admitted jobs, stop the thread, and hand back the
    /// scheduler (registry, metrics).
    pub fn shutdown(mut self) -> ClusterScheduler {
        drop(self.tx.take());
        let scheduler = self
            .thread
            .take()
            .expect("double shutdown")
            .join()
            .expect("scheduler thread panicked");
        Self::dump_trace(self.trace.take());
        scheduler
    }
}

impl Drop for FinetuneService {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        Self::dump_trace(self.trace.take());
    }
}

fn serve_loop(mut scheduler: ClusterScheduler, rx: Receiver<Command>) -> ClusterScheduler {
    // Tickets of admitted jobs the cluster has not reported on yet.
    let mut tickets: HashMap<String, Arc<TicketInner>> = HashMap::new();
    let mut disconnected = false;
    loop {
        // Admit everything already queued without blocking.
        loop {
            match rx.try_recv() {
                Ok(cmd) => handle(&mut scheduler, cmd, &mut tickets),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        if tickets.is_empty() {
            if disconnected {
                return scheduler;
            }
            // Idle: block until a submission (or shutdown) arrives.
            match rx.recv() {
                Ok(cmd) => handle(&mut scheduler, cmd, &mut tickets),
                Err(_) => return scheduler,
            }
            continue;
        }
        // Slice panics and persistence errors are contained by the cluster
        // (quarantine + requeue, failed job); jobs it could not finish come
        // back as failures, so no ticket ever hangs.
        let round = scheduler.run_round();
        for report in round.reports {
            if let Some(ticket) = tickets.remove(&report.tenant) {
                ticket.set(JobState::Completed(report));
            }
        }
        for failure in round.failures {
            if let Some(ticket) = tickets.remove(&failure.tenant) {
                ticket.set(JobState::Rejected(failure.error));
            }
        }
    }
}

fn handle(
    scheduler: &mut ClusterScheduler,
    cmd: Command,
    tickets: &mut HashMap<String, Arc<TicketInner>>,
) {
    match cmd {
        Command::Submit(spec, class, ticket) => {
            let tenant = spec.tenant.clone();
            // Per-step events flow from the replica worker straight into
            // the ticket, where `JobTicket::progress()` streams them out.
            let sink_ticket = ticket.clone();
            let sink = Box::new(move |event| sink_ticket.push_event(event));
            match scheduler.submit_with_progress(spec, class, Some(sink)) {
                Submit::Admitted => {
                    ticket.set(JobState::Running);
                    tickets.insert(tenant, ticket);
                }
                Submit::Rejected {
                    reason,
                    retry_after,
                } => ticket.set(JobState::Rejected(match retry_after {
                    Some(d) => format!("{reason} (retry after {d:?})"),
                    None => reason,
                })),
            }
        }
        Command::Metrics(reply) => {
            let _ = reply.send(scheduler.metrics());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::QosQuotas;
    use crate::scheduler::ClusterConfig;
    use long_exposure::engine::EngineConfig;
    use lx_model::{ModelConfig, TransformerModel};
    use lx_peft::PeftMethod;
    use lx_serve::{AdapterRegistry, MAX_STREAM_LEN};

    /// Every behaviour is checked on the single shared backbone and on a
    /// two-replica cluster.
    const REPLICAS: [usize; 2] = [1, 2];

    fn service_with(config: ClusterConfig, registry: Arc<AdapterRegistry>) -> FinetuneService {
        let scheduler = ClusterScheduler::new(
            |_| {
                let mut model = TransformerModel::new(ModelConfig::test_tiny(), 21);
                model.freeze_all();
                model
            },
            EngineConfig {
                block_size: 4,
                ..EngineConfig::default()
            },
            config,
            registry,
        );
        FinetuneService::spawn(scheduler)
    }

    fn service(replicas: usize) -> FinetuneService {
        service_with(
            ClusterConfig {
                replicas,
                slice_steps: 2,
                ..ClusterConfig::default()
            },
            Arc::new(AdapterRegistry::in_memory()),
        )
    }

    fn spec(tenant: &str, steps: u64) -> JobSpec {
        JobSpec {
            stream_len: 2_000,
            ..JobSpec::lora(tenant, steps, 1, 16)
        }
    }

    #[test]
    fn concurrent_submissions_all_complete() {
        for replicas in REPLICAS {
            let svc = service(replicas);
            let t1 = svc.submit(spec("alpha", 6), QosClass::Batch);
            let t2 = svc.submit(spec("beta", 6), QosClass::Interactive);
            let r1 = t1.wait().expect("alpha");
            let r2 = t2.wait().expect("beta");
            assert_eq!(r1.steps, 6);
            assert_eq!(r2.steps, 6);
            let snapshot = svc.metrics();
            assert_eq!(snapshot.completed_jobs, 2);
            assert_eq!(snapshot.queue_depth, 0);
            let scheduler = svc.shutdown();
            let mut tenants = scheduler.registry().tenants();
            tenants.sort();
            assert_eq!(tenants, vec!["alpha".to_string(), "beta".to_string()]);
        }
    }

    #[test]
    fn progress_stream_delivers_every_step_then_ends() {
        for replicas in REPLICAS {
            let svc = service(replicas);
            let ticket = svc.submit(spec("streamer", 5), QosClass::Batch);
            // Consume the stream concurrently with training.
            let events: Vec<_> = ticket.progress().collect();
            let report = ticket.wait().expect("completes");
            assert_eq!(events.len(), 5);
            for (i, e) in events.iter().enumerate() {
                assert_eq!(e.step, i as u64 + 1);
                assert_eq!(e.loss, report.losses[i]);
            }
            // A late subscriber replays the full history.
            let replay: Vec<_> = ticket.progress().collect();
            assert_eq!(replay, events);
            svc.shutdown();
        }
    }

    #[test]
    fn rejection_reports_reason() {
        for replicas in REPLICAS {
            let svc = service(replicas);
            let mut bad = spec("bad", 2);
            bad.method = PeftMethod::BitFit;
            let err = svc.submit(bad, QosClass::Batch).wait().unwrap_err();
            assert!(err.contains("detachable"), "{err}");
            svc.shutdown();
        }
    }

    #[test]
    fn hostile_specs_are_rejected_and_the_service_keeps_serving() {
        let max_seq = ModelConfig::test_tiny().max_seq;
        for replicas in REPLICAS {
            let svc = service(replicas);
            let hostile = [
                (
                    "stream_len",
                    JobSpec {
                        stream_len: 0,
                        ..spec("h0", 2)
                    },
                ),
                (
                    "stream_len",
                    JobSpec {
                        stream_len: usize::MAX,
                        ..spec("h1", 2)
                    },
                ),
                (
                    "stream_len",
                    JobSpec {
                        stream_len: MAX_STREAM_LEN + 1,
                        ..spec("h2", 2)
                    },
                ),
                (
                    "positions",
                    JobSpec {
                        seq: max_seq + 4,
                        ..spec("h3", 2)
                    },
                ),
                (
                    "tokens per step",
                    JobSpec {
                        batch: usize::MAX,
                        ..spec("h4", 2)
                    },
                ),
                (
                    "lr",
                    JobSpec {
                        lr: f32::NAN,
                        ..spec("h5", 2)
                    },
                ),
                (
                    "lr",
                    JobSpec {
                        lr: f32::INFINITY,
                        ..spec("h6", 2)
                    },
                ),
                (
                    "lr",
                    JobSpec {
                        lr: 0.0,
                        ..spec("h7", 2)
                    },
                ),
            ];
            for (needle, job) in hostile {
                let tenant = job.tenant.clone();
                let err = svc.submit(job, QosClass::Batch).wait().unwrap_err();
                assert!(err.contains(needle), "{tenant}: {err}");
            }
            // No replica was lost to any of them: a well-formed job submitted
            // afterwards completes, and so does a rejected tenant's retry.
            let report = svc.submit(spec("h0", 4), QosClass::Batch).wait();
            assert_eq!(report.expect("well-formed job completes").steps, 4);
            svc.shutdown();
        }
    }

    #[test]
    fn submissions_while_busy_are_admitted() {
        for replicas in REPLICAS {
            let svc = service(replicas);
            let t1 = svc.submit(spec("first", 8), QosClass::Batch);
            // Submitted later, while the first job is (very likely) running.
            let t2 = svc.submit(spec("second", 4), QosClass::Batch);
            assert!(t1.wait().is_ok());
            assert!(t2.wait().is_ok());
            svc.shutdown();
        }
    }

    #[test]
    fn tenant_and_quota_slots_refill_when_a_job_completes_mid_service() {
        for replicas in REPLICAS {
            let svc = service_with(
                ClusterConfig {
                    replicas,
                    slice_steps: 2,
                    quotas: QosQuotas {
                        interactive: 1,
                        batch: 1,
                        ..QosQuotas::default()
                    },
                    ..ClusterConfig::default()
                },
                Arc::new(AdapterRegistry::in_memory()),
            );
            // A thousand rounds of backlog: the service stays mid-drain (and
            // the batch class full) for the whole test.
            let long = svc.submit(spec("long", 2_000), QosClass::Batch);
            let err = svc
                .submit(spec("other", 2), QosClass::Batch)
                .wait()
                .unwrap_err();
            assert!(err.contains("quota exhausted"), "{err}");
            assert!(err.contains("retry after 50ms"), "{err}");
            let first = svc.submit(spec("quick", 2), QosClass::Interactive);
            assert_eq!(first.wait().expect("quick completes").steps, 2);
            // Same tenant, same (quota 1) class, backlog still draining: both
            // the duplicate check and the quota must have let go of `quick`.
            let again = svc.submit(spec("quick", 2), QosClass::Interactive);
            assert_eq!(again.wait().expect("resubmission admitted").steps, 2);
            assert_eq!(long.state(), JobState::Running, "backlog still draining");
            svc.shutdown();
            assert!(matches!(long.state(), JobState::Completed(_)));
        }
    }

    #[test]
    fn slice_panic_rejects_tickets_instead_of_hanging() {
        for replicas in REPLICAS {
            // Poison the registry with an adapter extracted from a *larger*
            // backbone: admission succeeds (method matches), but attaching
            // it mid-slice hits a shape-mismatch assert on every replica it
            // is requeued to. The ticket must resolve to Rejected — not hang
            // — and metrics must stay answerable.
            let registry = Arc::new(AdapterRegistry::in_memory());
            {
                let mut big_cfg = ModelConfig::test_tiny();
                big_cfg.d_model = 32;
                let mut big = TransformerModel::new(big_cfg, 1);
                big.freeze_all();
                let adapter =
                    lx_peft::TenantAdapter::initialise(&mut big, PeftMethod::lora_default(), 1);
                registry.put("poisoned", &adapter).unwrap();
            }
            let svc = service_with(
                ClusterConfig {
                    replicas,
                    ..ClusterConfig::default()
                },
                registry,
            );
            let mut bad = spec("poisoned", 2);
            bad.adapter_seed = 1;
            let bystander = svc.submit(spec("bystander", 400), QosClass::BestEffort);
            let err = svc.submit(bad, QosClass::Batch).wait().unwrap_err();
            assert!(err.contains("no healthy replica left"), "{err}");
            assert!(err.contains("panicked"), "{err}");
            // Every outstanding ticket resolves too (completed before the
            // last replica died, or failed with it).
            if let Err(err) = bystander.wait() {
                assert!(err.contains("no healthy replica left"), "{err}");
            }
            // Service is degraded but responsive: metrics answer, new jobs
            // are rejected with the reason.
            assert_eq!(svc.metrics().queue_depth, 0);
            let after = svc.submit(spec("late", 2), QosClass::Batch);
            assert!(after.wait().unwrap_err().contains("no healthy replicas"));
            let scheduler = svc.shutdown();
            assert_eq!(scheduler.pending_jobs(), 0);
        }
    }

    #[test]
    fn persistence_failure_rejects_the_ticket_and_the_service_keeps_serving() {
        for replicas in REPLICAS {
            let dir = std::env::temp_dir()
                .join(format!("lx-service-put-{}-{replicas}", std::process::id()));
            let svc = service_with(
                ClusterConfig {
                    replicas,
                    slice_steps: 2,
                    ..ClusterConfig::default()
                },
                Arc::new(AdapterRegistry::open(&dir).unwrap()),
            );
            // The registry's directory vanishes under the running service:
            // finished adapters cannot be stored.
            std::fs::remove_dir_all(&dir).unwrap();
            let lost = svc.submit(spec("lost", 4), QosClass::Batch);
            let also = svc.submit(spec("also", 4), QosClass::Batch);
            for ticket in [lost, also] {
                let err = ticket.wait().unwrap_err();
                assert!(err.contains("persist"), "{err}");
            }
            let snapshot = svc.metrics();
            assert_eq!((snapshot.completed_jobs, snapshot.queue_depth), (0, 0));
            // No replica was at fault: once storage is back the same tenant
            // completes.
            std::fs::create_dir_all(&dir).unwrap();
            let retry = svc.submit(spec("lost", 4), QosClass::Batch).wait();
            assert_eq!(retry.expect("storage is back").steps, 4);
            let scheduler = svc.shutdown();
            assert_eq!(scheduler.registry().tenants(), vec!["lost".to_string()]);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn shutdown_waits_for_active_jobs() {
        for replicas in REPLICAS {
            let svc = service(replicas);
            let ticket = svc.submit(spec("draining", 4), QosClass::Batch);
            let scheduler = svc.shutdown();
            assert!(matches!(ticket.state(), JobState::Completed(_)));
            assert_eq!(scheduler.pending_jobs(), 0);
            assert_eq!(scheduler.registry().tenants(), vec!["draining".to_string()]);
        }
    }
}
