//! `lx-serve` — the per-tenant half of multi-tenant PEFT fine-tuning.
//!
//! Many *concurrent* fine-tuning jobs over the same frozen base model is the
//! regime where Long Exposure's economics shine: the expensive state
//! (backbone weights, calibrated sparsity predictors) is shared across every
//! tenant, while the per-tenant marginal state is a LoRA/adapter delta a few
//! thousand parameters large. This crate holds everything that belongs to
//! *one tenant's job*; scheduling those jobs onto backbones — at one replica
//! or many — and the asynchronous front door live in `lx-cluster`.
//!
//! * [`job`] — tenant job descriptions ([`JobSpec`]: dataset, `PeftMethod`
//!   and step budget, validated at admission), lifecycle states, per-step
//!   [`StepEvent`]s and completion reports;
//! * [`registry`] — the durable [`AdapterRegistry`]: per-tenant
//!   [`lx_peft::TenantAdapter`] blobs plus the *shared* calibrated
//!   predictor checkpoint (`long_exposure::checkpoint` format), so both
//!   adapters and the one-time calibration survive restarts;
//! * [`tenant`] — the execution unit ([`TenantTask`]): all of a job's
//!   mutable state (adapter, optimizer, data cursor, warm workspace) plus
//!   the slice-execution logic — attach the adapter to a frozen backbone,
//!   train `slice_steps` with the tenant's own optimizer, extract, detach —
//!   and cross-tenant fused eval slices ([`run_fused_eval_slice`]). Because
//!   all mutable state swaps with the tenant, interleaved execution is
//!   **bit-identical** to sequential per-tenant training on any replica
//!   (the integration suite proves it);
//! * [`metrics`] — [`ServeMetrics`]: queue depth, per-tenant rates,
//!   aggregate throughput, Prometheus exposition.
//!
//! Jobs can also accumulate gradients over several micro-batches per
//! optimizer step (`JobSpec::micro_batches` — the large-effective-batch
//! scenario) or run evaluation-only passes (`JobSpec::eval_only`).
//!
//! ```
//! use lx_serve::{JobSpec, MAX_STREAM_LEN};
//!
//! let mut job = JobSpec::lora("tenant-a", 100, 2, 64);
//! job.micro_batches = 4; // gradient accumulation: 4 batches per update
//! assert!(job.validate().is_ok());
//! // Hostile sizes are refused at admission, before anything is allocated.
//! job.stream_len = MAX_STREAM_LEN + 1;
//! assert!(job.validate().is_err());
//! ```

pub mod job;
pub mod metrics;
pub mod registry;
pub mod tenant;

pub use job::{DatasetSpec, JobReport, JobSpec, JobState, StepEvent, MAX_STREAM_LEN};
pub use metrics::{MetricsSnapshot, ServeMetrics, TenantMetrics};
pub use registry::AdapterRegistry;
pub use tenant::{run_fused_eval_slice, ProgressSink, SliceOutcome, TenantTask};
