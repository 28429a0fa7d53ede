//! `lx-cluster` — the scheduler and front door of multi-tenant serving.
//!
//! `lx-serve` defines what one tenant's job *is* (a [`TenantTask`] carrying
//! adapter, optimizer moments, data cursor and warm workspace); this crate
//! decides where and when its slices run. One [`ClusterScheduler`] owns N
//! identical frozen backbone replicas — N = 1 is the plain shared-backbone
//! service, there is no second scheduler — and is the only code in the
//! workspace that runs a slice:
//!
//! ```text
//!  FinetuneService::submit ─► admission ─────────► DispatchQueue
//!   (any thread, JobTicket)   quota per class,     per-replica deques ×
//!                             dup check, spec      {Interactive, Batch, BestEffort}
//!                             validation                 │           ▲
//!                                                        ▼           │ steal (back)
//!                                            ┌─ replica 0 ─┐ ┌─ replica 1 ─┐ …
//!                                            │ FinetuneEngine│ FinetuneEngine│
//!                                            └──────┬───────┘└──────┬───────┘
//!                                            pop own (front, Interactive first)
//! ```
//!
//! Three properties make this safe and cheap:
//!
//! * **Placement invariance** — a task carries every mutable byte of its
//!   job and the backbones are frozen and identical, so a tenant's loss
//!   stream is bit-identical whether its slices interleave with other
//!   tenants', run back-to-back, or hop between replicas.
//! * **Cross-tenant batch fusion** — compatible queued eval jobs (same
//!   shape, no soft prompt, single micro-batch) coalesce into one fused
//!   `StepRequest` on a replica via `lx_serve::run_fused_eval_slice`; the
//!   de-fused per-tenant losses are bit-identical to unfused execution.
//! * **Fault containment** — a replica that panics (mid-slice or during
//!   admission) is quarantined; its in-flight and queued jobs requeue to
//!   survivors, and jobs fail visibly only when *no* replica is left.
//!
//! The moving parts:
//!
//! * [`qos`] — [`QosClass`] service levels, per-class admission quotas and
//!   the [`Submit`] backpressure contract (`Rejected { retry_after }`);
//! * [`dispatch`] — the work-stealing [`DispatchQueue`]: per-replica,
//!   per-class deques; owners pop the front, idle replicas steal the back;
//! * [`scheduler`] — [`ClusterScheduler`]: admission + affinity placement,
//!   and the two drives over one worker body — `run_to_completion` (drain
//!   the backlog) and `run_round` (at most one group per replica, so the
//!   caller can admit between rounds);
//! * [`service`] — [`FinetuneService`]: the asynchronous shell. Submissions
//!   from any thread, [`JobTicket`]s to wait on or stream per-step
//!   `StepEvent`s from, rounds driven on a dedicated thread.
//!
//! Observability: `serve.replica.steals` / `serve.replica.quarantined`
//! counters and the `serve.cluster.wait_ns` queue-wait histogram land in the
//! global `lx-obs` registry, alongside the per-tenant
//! `serve.slice.wait_ns{tenant}` / `serve.slice.run_ns{tenant}` histograms,
//! `serve.step.ns` and the `serve.fusion.*` counters recorded by the slice
//! itself.
//!
//! ```no_run
//! use lx_cluster::{ClusterConfig, ClusterScheduler, FinetuneService, QosClass};
//! use lx_model::{ModelConfig, TransformerModel};
//! use lx_serve::{AdapterRegistry, JobSpec};
//! use long_exposure::engine::EngineConfig;
//! use std::sync::Arc;
//!
//! let cluster = ClusterScheduler::new(
//!     |_replica| {
//!         let mut m = TransformerModel::new(ModelConfig::opt_sim_small(), 42);
//!         m.freeze_all();
//!         m
//!     },
//!     EngineConfig::default(),
//!     ClusterConfig { replicas: 1, ..ClusterConfig::default() },
//!     Arc::new(AdapterRegistry::open("adapters.d").unwrap()),
//! );
//! // Batch use: `cluster.submit(spec, class)` then `cluster.run_to_completion()`.
//! // Service use: hand the scheduler to the front door.
//! let service = FinetuneService::spawn(cluster);
//! let ticket = service.submit(JobSpec::lora("tenant-a", 100, 2, 64), QosClass::Batch);
//! let report = ticket.wait().unwrap();
//! println!("tenant-a: {} steps, final loss {:.3}", report.steps, report.final_loss());
//! let cluster = service.shutdown();
//! println!("{} adapters stored", cluster.registry().len());
//! ```
//!
//! [`TenantTask`]: lx_serve::TenantTask

pub mod dispatch;
pub mod qos;
pub mod scheduler;
pub mod service;

pub use dispatch::DispatchQueue;
pub use qos::{JobFailure, QosClass, QosQuotas, Submit};
pub use scheduler::{ClusterConfig, ClusterReport, ClusterScheduler};
pub use service::{FinetuneService, JobTicket, ProgressStream};
