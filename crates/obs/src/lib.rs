//! Unified tracing and metrics for the Long Exposure stack.
//!
//! The paper's argument is a time-accounting argument — Table I / Fig. 10
//! per-phase breakdowns justify shadowy-sparsity exploitation — so the repo
//! needs one substrate that can answer "where did this step's time go?"
//! end-to-end, across kernels, model phases, and serve scheduling. This
//! crate is that substrate: standard-library only (it sits below every other
//! crate in the workspace), thread-safe, and near-free when idle.
//!
//! ## Three pieces
//!
//! * **Spans** ([`Span`], [`TimedSpan`]) — RAII interval records (name,
//!   category, optional tenant/layer/index labels, start, duration) pushed
//!   into the active [`TraceSession`]'s ring buffer. When no session is
//!   active a [`Span`] costs one relaxed atomic load; a [`TimedSpan`] always
//!   measures and hands its duration back through
//!   [`finish`](TimedSpan::finish), so call sites that consume the duration
//!   anyway (the `StepOutcome` phase columns) pay nothing extra — and the
//!   recorded span is *the same measurement*, bit for bit.
//! * **Metrics** ([`Counter`], [`Histogram`], [`Registry`]) — always-on
//!   process-wide atomics. Histograms are log-bucketed (≤ ~7% relative
//!   error) with p50/p90/p99 readout. [`Registry::render_prometheus`] emits
//!   the whole registry in Prometheus text exposition format.
//! * **Traces** ([`TraceSession`], [`Trace`]) — start a session, run work,
//!   [`finish`](TraceSession::finish) it, then export: Chrome trace-event
//!   JSON ([`Trace::write_chrome`], loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev)) or a human text summary
//!   ([`Trace::summary`]).
//!
//! ## Span and metric naming
//!
//! Dotted, lowercase, coarse-to-fine: `model.step`, `model.micro_batch`,
//! `model.forward_pass`, `model.predict`, `model.layer`, `model.backward`,
//! `model.optimizer`, `serve.slice`, `serve.attach`, `serve.detach`,
//! `engine.calibrate`. Metrics follow the same scheme with a unit suffix on
//! histograms (`serve.step.ns`); labelled variants embed Prometheus-style
//! labels in the key (`serve.slice.run_ns{tenant="a"}`), which
//! [`Registry::counter_labeled`]/[`Registry::histogram_labeled`] build for
//! you.
//!
//! ## Example
//!
//! ```
//! let session = lx_obs::TraceSession::start().expect("no other session");
//! {
//!     let _outer = lx_obs::Span::enter("demo.outer").cat("demo");
//!     let inner = lx_obs::TimedSpan::enter("demo.inner").cat("demo");
//!     let took = inner.finish(); // the recorded duration, returned to you
//!     assert!(took.as_nanos() > 0);
//! }
//! let trace = session.finish();
//! assert_eq!(trace.records.len(), 2);
//! let json = trace.to_chrome_json();
//! lx_obs::validate_chrome_trace(&json).expect("well-formed trace");
//! ```

mod chrome;
mod clock;
pub mod json;
mod metrics;
mod span;

pub use chrome::{validate_chrome_trace, validate_chrome_trace_file, TraceStats};
pub use clock::now_ns;
pub use metrics::{registry, Counter, Histogram, HistogramSummary, Registry};
pub use span::{
    inert_span_cost_ns, tracing_active, Span, SpanRecord, TimedSpan, Trace, TraceSession,
};
