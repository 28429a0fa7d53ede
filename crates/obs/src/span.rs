//! Span recording: RAII interval guards, the record ring buffer, and the
//! process-global [`TraceSession`].
//!
//! The disabled path is the design constraint: instrumented code runs in the
//! innermost training loops, so [`Span::enter`] must cost a single relaxed
//! atomic load when no session is active (`step_bench --smoke` gates the
//! measured overhead below 1% of a step). When a session *is* active, each
//! span boxes its metadata, timestamps itself against the shared
//! [`crate::now_ns`] epoch, and publishes one [`SpanRecord`] into the
//! session's fixed-capacity ring on drop. The ring overwrites oldest-first
//! on wraparound and counts what it dropped.

use crate::clock;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One completed span, as stored in the ring and exported to Chrome traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: &'static str,
    /// Category (Chrome trace `cat`): a coarse grouping like `step`/`serve`.
    pub cat: &'static str,
    pub tenant: Option<Box<str>>,
    pub layer: Option<u32>,
    /// Free-form ordinal label (micro-batch number, step number, task id).
    pub index: Option<u64>,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Small per-thread ordinal (first span wins the id), Chrome trace `tid`.
    pub tid: u64,
}

impl SpanRecord {
    /// End of the interval, nanoseconds since the epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    /// Whether `inner` lies entirely within this record's interval on the
    /// same thread (how per-phase spans nest under their step).
    pub fn contains(&self, inner: &SpanRecord) -> bool {
        self.tid == inner.tid && inner.start_ns >= self.start_ns && inner.end_ns() <= self.end_ns()
    }
}

/// Fixed-capacity overwrite-oldest record store. Slots are individually
/// mutexed (uncontended in practice: a writer holds a slot lock only for the
/// record move), and the cursor is a single fetch_add, so concurrent
/// recorders never serialise against each other on the common path.
struct Ring {
    slots: Vec<Mutex<Option<SpanRecord>>>,
    next: AtomicUsize,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
        }
    }

    fn push(&self, record: SpanRecord) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        *self.slots[i].lock().expect("ring slot") = Some(record);
    }

    /// Drain every surviving record (oldest first) and the dropped count.
    fn drain(&self) -> (Vec<SpanRecord>, u64) {
        let total = self.next.load(Ordering::Relaxed);
        let cap = self.slots.len();
        let dropped = total.saturating_sub(cap) as u64;
        let first = if total > cap { total % cap } else { 0 };
        let kept = total.min(cap);
        let mut out = Vec::with_capacity(kept);
        for j in 0..kept {
            let slot = &self.slots[(first + j) % cap];
            if let Some(rec) = slot.lock().expect("ring slot").take() {
                out.push(rec);
            }
        }
        (out, dropped)
    }
}

/// Fast-path gate: true while a [`TraceSession`] is active.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn ring_slot() -> &'static Mutex<Option<Arc<Ring>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<Ring>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

fn current_ring() -> Option<Arc<Ring>> {
    ring_slot().lock().expect("trace ring").clone()
}

/// Whether a [`TraceSession`] is currently active.
#[inline]
pub fn tracing_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

fn current_tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// The boxed metadata of a recording span (only allocated while a session
/// is active).
struct LiveSpan {
    name: &'static str,
    cat: &'static str,
    tenant: Option<Box<str>>,
    layer: Option<u32>,
    index: Option<u64>,
    start: Instant,
    ring: Arc<Ring>,
}

impl LiveSpan {
    fn open(name: &'static str) -> Option<Box<LiveSpan>> {
        let ring = current_ring()?;
        Some(Box::new(LiveSpan {
            name,
            cat: "app",
            tenant: None,
            layer: None,
            index: None,
            start: Instant::now(),
            ring,
        }))
    }

    /// Publish with an explicit duration in nanoseconds.
    fn publish(self, dur_ns: u64) {
        let start_ns = self
            .start
            .saturating_duration_since(clock::epoch())
            .as_nanos() as u64;
        let ring = self.ring.clone();
        ring.push(SpanRecord {
            name: self.name,
            cat: self.cat,
            tenant: self.tenant,
            layer: self.layer,
            index: self.index,
            start_ns,
            dur_ns,
            tid: current_tid(),
        });
    }
}

/// An RAII interval: records `enter → drop` into the active session, or does
/// nothing (one atomic load) when no session is active.
///
/// ```
/// fn work() {
///     let _span = lx_obs::Span::enter("demo.work").cat("demo").index(3);
///     // ... the interval ends when _span drops ...
/// }
/// work(); // inert here unless a TraceSession is active
/// ```
#[must_use = "a span records the interval until it is dropped"]
pub struct Span(Option<Box<LiveSpan>>);

impl Span {
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        if !ACTIVE.load(Ordering::Relaxed) {
            return Span(None);
        }
        Span(LiveSpan::open(name))
    }

    /// Set the category (default `"app"`).
    pub fn cat(mut self, cat: &'static str) -> Span {
        if let Some(live) = &mut self.0 {
            live.cat = cat;
        }
        self
    }

    /// Label with a tenant name (serve-side spans).
    pub fn tenant(mut self, tenant: &str) -> Span {
        if let Some(live) = &mut self.0 {
            live.tenant = Some(tenant.into());
        }
        self
    }

    /// Label with a layer number.
    pub fn layer(mut self, layer: u32) -> Span {
        if let Some(live) = &mut self.0 {
            live.layer = Some(layer);
        }
        self
    }

    /// Label with an ordinal (micro-batch, step, task id).
    pub fn index(mut self, index: u64) -> Span {
        if let Some(live) = &mut self.0 {
            live.index = Some(index);
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(live) = self.0.take() {
            let dur_ns = live.start.elapsed().as_nanos() as u64;
            live.publish(dur_ns);
        }
    }
}

/// A span that *always* measures and returns its duration from
/// [`finish`](Self::finish) — for call sites that consume the duration
/// anyway (`StepOutcome` phase columns). The published record carries the
/// *identical* nanosecond count that `finish` returns, so outcome columns
/// and trace spans can be compared bit-for-bit.
#[must_use = "call finish() to obtain the measured duration"]
pub struct TimedSpan {
    start: Instant,
    live: Option<Box<LiveSpan>>,
}

impl TimedSpan {
    #[inline]
    pub fn enter(name: &'static str) -> TimedSpan {
        let live = if ACTIVE.load(Ordering::Relaxed) {
            LiveSpan::open(name)
        } else {
            None
        };
        let start = match &live {
            Some(l) => l.start,
            None => Instant::now(),
        };
        TimedSpan { start, live }
    }

    /// Set the category (default `"app"`).
    pub fn cat(mut self, cat: &'static str) -> TimedSpan {
        if let Some(live) = &mut self.live {
            live.cat = cat;
        }
        self
    }

    /// Label with a tenant name.
    pub fn tenant(mut self, tenant: &str) -> TimedSpan {
        if let Some(live) = &mut self.live {
            live.tenant = Some(tenant.into());
        }
        self
    }

    /// Label with a layer number.
    pub fn layer(mut self, layer: u32) -> TimedSpan {
        if let Some(live) = &mut self.live {
            live.layer = Some(layer);
        }
        self
    }

    /// Label with an ordinal.
    pub fn index(mut self, index: u64) -> TimedSpan {
        if let Some(live) = &mut self.live {
            live.index = Some(index);
        }
        self
    }

    /// End the interval: publish the record (when recording) and return the
    /// measured duration — the same nanosecond count in both places.
    pub fn finish(self) -> Duration {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        if let Some(live) = self.live {
            live.publish(dur_ns);
        }
        Duration::from_nanos(dur_ns)
    }
}

/// The (single, process-global) span collection window.
///
/// Only one session can be active at a time; [`start`](Self::start) fails
/// while another is live. Spans entered by *any* thread between `start` and
/// [`finish`](Self::finish) land in this session's ring.
pub struct TraceSession {
    ring: Arc<Ring>,
    finished: bool,
}

impl TraceSession {
    /// Default ring capacity (records); ≈ a few thousand training steps of
    /// per-phase spans.
    pub const DEFAULT_CAPACITY: usize = 32_768;

    /// Activate a session with [`Self::DEFAULT_CAPACITY`].
    pub fn start() -> Result<TraceSession, String> {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Activate a session whose ring holds `capacity` records (oldest are
    /// overwritten beyond that). Errors if a session is already active.
    pub fn with_capacity(capacity: usize) -> Result<TraceSession, String> {
        clock::epoch(); // pin the epoch before the first span
        let mut slot = ring_slot().lock().expect("trace ring");
        if slot.is_some() {
            return Err("a TraceSession is already active in this process".into());
        }
        let ring = Arc::new(Ring::new(capacity));
        *slot = Some(ring.clone());
        drop(slot);
        ACTIVE.store(true, Ordering::SeqCst);
        Ok(TraceSession {
            ring,
            finished: false,
        })
    }

    /// Deactivate and collect: returns every surviving record sorted by
    /// start time, plus the overwritten-record count.
    pub fn finish(mut self) -> Trace {
        self.deactivate();
        let (mut records, dropped) = self.ring.drain();
        records.sort_by_key(|r| (r.start_ns, r.tid));
        Trace { records, dropped }
    }

    fn deactivate(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        ACTIVE.store(false, Ordering::SeqCst);
        *ring_slot().lock().expect("trace ring") = None;
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        self.deactivate();
    }
}

/// A finished session's records (see [`TraceSession::finish`]); export with
/// [`Trace::to_chrome_json`] / [`Trace::write_chrome`] / [`Trace::summary`].
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Surviving records, sorted by start time.
    pub records: Vec<SpanRecord>,
    /// Records overwritten by ring wraparound.
    pub dropped: u64,
}

impl Trace {
    /// Records with a given span name, in start order.
    pub fn named(&self, name: &str) -> Vec<&SpanRecord> {
        self.records.iter().filter(|r| r.name == name).collect()
    }
}

/// Measure the disabled-path cost of one `Span::enter` + drop, in
/// nanoseconds (the `step_bench` <1% overhead gate). Panics if a session is
/// active — the point is to measure the inert path.
pub fn inert_span_cost_ns(iters: u32) -> f64 {
    assert!(
        !tracing_active(),
        "inert_span_cost_ns must run without an active TraceSession"
    );
    let iters = iters.max(1);
    let t0 = Instant::now();
    for _ in 0..iters {
        let span = Span::enter("obs.overhead.probe");
        std::hint::black_box(&span);
    }
    t0.elapsed().as_secs_f64() * 1e9 / iters as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sessions are process-global; every test touching one serialises here.
    fn session_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn inert_spans_record_nothing() {
        let _guard = session_lock();
        let span = Span::enter("test.inert");
        assert!(span.0.is_none(), "no session: nothing to publish");
        drop(span);
        let took = TimedSpan::enter("test.inert.timed").finish();
        assert!(took.as_nanos() < 1_000_000_000);
    }

    #[test]
    fn session_collects_spans_in_order() {
        let _guard = session_lock();
        let session = TraceSession::start().expect("no session active");
        drop(Span::enter("test.a").cat("t").index(1));
        drop(Span::enter("test.b").cat("t").tenant("x").layer(2));
        let trace = session.finish();
        assert_eq!(trace.dropped, 0);
        let names: Vec<&str> = trace.records.iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["test.a", "test.b"]);
        let b = &trace.records[1];
        assert_eq!(b.tenant.as_deref(), Some("x"));
        assert_eq!(b.layer, Some(2));
        assert!(trace.records[0].start_ns <= b.start_ns);
    }

    #[test]
    fn only_one_session_at_a_time() {
        let _guard = session_lock();
        let first = TraceSession::start().expect("no session active");
        assert!(TraceSession::start().is_err());
        drop(first); // Drop deactivates too
        assert!(!tracing_active());
        let second = TraceSession::start().expect("slot freed");
        second.finish();
    }

    #[test]
    fn ring_wraparound_keeps_newest_and_counts_dropped() {
        let _guard = session_lock();
        let session = TraceSession::with_capacity(8).expect("no session active");
        for i in 0..20u64 {
            drop(Span::enter("test.wrap").index(i));
        }
        let trace = session.finish();
        assert_eq!(trace.records.len(), 8);
        assert_eq!(trace.dropped, 12);
        let kept: Vec<u64> = trace.records.iter().filter_map(|r| r.index).collect();
        assert_eq!(kept, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn timed_span_duration_matches_record_exactly() {
        let _guard = session_lock();
        let session = TraceSession::start().expect("no session active");
        let span = TimedSpan::enter("test.exact").cat("t");
        std::thread::sleep(Duration::from_millis(1));
        let took = span.finish();
        let trace = session.finish();
        let rec = trace.named("test.exact")[0];
        assert_eq!(rec.dur_ns, took.as_nanos() as u64, "bit-honest duration");
        assert!(took >= Duration::from_millis(1));
    }

    #[test]
    fn inert_cost_is_measurable() {
        let _guard = session_lock();
        let ns = inert_span_cost_ns(10_000);
        assert!((0.0..100_000.0).contains(&ns), "inert span cost {ns} ns");
    }
}
