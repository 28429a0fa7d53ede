//! Always-on counters and log-bucketed latency histograms.
//!
//! Everything here is plain atomics: recording never blocks, never
//! allocates, and is safe from any thread (including `lx-parallel` workers).
//! Hot paths look their instrument up once (a `OnceLock<Arc<Counter>>`
//! static) and pay a single `fetch_add` per event thereafter.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// A monotonic event counter.
///
/// One atomic word holds two tallies, so a bump stays a single `fetch_add`:
/// the low 48 bits are the value ([`get`](Self::get); it wraps at 2^48) and
/// the high 16 bits count the `inc` / `add` calls, modulo 2^16
/// ([`Registry::counter_ops`]). A counter of elements thus still says how
/// many times it was bumped — what pricing the disabled instrumentation
/// needs.
#[derive(Debug, Default)]
pub struct Counter {
    word: AtomicU64,
}

const VALUE_BITS: u32 = 48;
const VALUE_MASK: u64 = (1 << VALUE_BITS) - 1;
const ONE_OP: u64 = 1 << VALUE_BITS;

impl Counter {
    pub const fn new() -> Self {
        Counter {
            word: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        debug_assert!(n <= VALUE_MASK, "counter bump {n} exceeds 48 bits");
        self.word.fetch_add(ONE_OP + n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.word.load(Ordering::Relaxed) & VALUE_MASK
    }

    /// `inc` / `add` calls so far, modulo 2^16.
    fn ops(&self) -> u16 {
        (self.word.load(Ordering::Relaxed) >> VALUE_BITS) as u16
    }

    /// Zero the counter (bench arms isolating their own window).
    pub fn reset(&self) {
        self.word.store(0, Ordering::Relaxed);
    }
}

/// Sub-bucket resolution: 2^3 = 8 linear sub-buckets per power of two.
const SUB_BITS: u32 = 3;
const SUBS: u64 = 1 << SUB_BITS;
/// Values below this land in exact unit buckets (indices `0..16`).
const EXACT_LIMIT: u64 = 1 << (SUB_BITS + 1);
const N_BUCKETS: usize = 64 << SUB_BITS;

/// A log-linear histogram of `u64` samples (nanoseconds, by convention).
///
/// Buckets are 8 linear sub-buckets per octave, so the bucket width is at
/// most 1/8 of the value — percentile readouts carry ≤ ~7% relative error
/// (the oracle test in `lx-integration` pins this down). Recording is two
/// relaxed `fetch_add`s plus min/max maintenance; readout walks 512 buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn bucket_index(v: u64) -> usize {
        if v < EXACT_LIMIT {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros() as u64; // ≥ SUB_BITS + 1
        let sub = (v >> (octave - SUB_BITS as u64)) & (SUBS - 1);
        (octave << SUB_BITS) as usize + sub as usize
    }

    /// Midpoint of bucket `i` (exact for the unit buckets).
    fn representative(i: usize) -> u64 {
        if i < EXACT_LIMIT as usize {
            return i as u64;
        }
        let octave = (i >> SUB_BITS) as u64;
        let sub = (i as u64) & (SUBS - 1);
        let width = 1u64 << (octave - SUB_BITS as u64);
        let lower = (1u64 << octave) + sub * width;
        lower + width / 2
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos() as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) as a bucket-midpoint estimate, clamped
    /// to the recorded min/max. Returns 0 on an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            cum += c;
            if cum >= target {
                return Self::representative(i).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Zero every bucket and statistic (bench arms isolating a window).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.p50(),
            p90: self.p90(),
            p99: self.p99(),
        }
    }
}

/// Point-in-time view of one histogram's statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

/// Process-wide get-or-create store of named counters and histograms.
///
/// Keys are the dotted metric names, optionally with an embedded
/// `{label="value",...}` suffix (see [`Registry::counter_labeled`]). Lookup
/// takes a mutex — hot paths should cache the returned `Arc` in a
/// `OnceLock` static and never touch the registry again.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// The global registry every instrumented crate records into.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn labeled_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('"', "'")))
        .collect();
    format!("{name}{{{}}}", pairs.join(","))
}

impl Registry {
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter registry");
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram registry");
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// [`Self::counter`] with `{k="v",...}` labels embedded in the key.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.counter(&labeled_key(name, labels))
    }

    /// [`Self::histogram`] with `{k="v",...}` labels embedded in the key.
    pub fn histogram_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.histogram(&labeled_key(name, labels))
    }

    /// Every registered counter's `(key, value)`, sorted by key.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .expect("counter registry")
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect()
    }

    /// Every registered counter's `(key, calls)`, sorted by key: how many
    /// `inc` / `add` calls it took, whatever they added, modulo 2^16 — so
    /// count a window as `after.wrapping_sub(before)`.
    pub fn counter_ops(&self) -> Vec<(String, u16)> {
        self.counters
            .lock()
            .expect("counter registry")
            .iter()
            .map(|(k, c)| (k.clone(), c.ops()))
            .collect()
    }

    /// Every registered histogram's `(key, summary)`, sorted by key.
    pub fn histograms(&self) -> Vec<(String, HistogramSummary)> {
        self.histograms
            .lock()
            .expect("histogram registry")
            .iter()
            .map(|(k, h)| (k.clone(), h.summary()))
            .collect()
    }

    /// Zero every registered instrument (registrations are kept, so cached
    /// `Arc`s in hot paths stay valid).
    pub fn reset(&self) {
        for c in self.counters.lock().expect("counter registry").values() {
            c.reset();
        }
        for h in self.histograms.lock().expect("histogram registry").values() {
            h.reset();
        }
    }

    /// Prometheus text exposition of the whole registry: counters as-is,
    /// histograms as `summary` quantile series plus `_count`/`_sum`. Dots in
    /// metric names become underscores; embedded `{...}` labels are merged
    /// with the `quantile` label.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: Vec<String> = Vec::new();
        for (key, value) in self.counters() {
            let (name, labels) = split_key(&key);
            let name = sanitize(&name);
            if !typed.contains(&name) {
                out.push_str(&format!("# TYPE {name} counter\n"));
                typed.push(name.clone());
            }
            out.push_str(&format!("{name}{labels} {value}\n"));
        }
        for (key, s) in self.histograms() {
            let (name, labels) = split_key(&key);
            let name = sanitize(&name);
            if !typed.contains(&name) {
                out.push_str(&format!("# TYPE {name} summary\n"));
                typed.push(name.clone());
            }
            for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
                out.push_str(&format!(
                    "{name}{} {v}\n",
                    merge_label(&labels, &format!("quantile=\"{q}\""))
                ));
            }
            out.push_str(&format!("{name}_count{labels} {}\n", s.count));
            out.push_str(&format!("{name}_sum{labels} {}\n", s.sum));
        }
        out
    }
}

/// Split `name{labels}` into `(name, "{labels}" or "")`.
fn split_key(key: &str) -> (String, String) {
    match key.find('{') {
        Some(i) => (key[..i].to_string(), key[i..].to_string()),
        None => (key.to_string(), String::new()),
    }
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; map everything else to `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Add one `k="v"` pair to an existing `{...}` suffix (or start one).
fn merge_label(labels: &str, pair: &str) -> String {
    if labels.is_empty() {
        format!("{{{pair}}}")
    } else {
        format!("{},{pair}}}", &labels[..labels.len() - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_ops_count_calls_not_amounts() {
        let c = Counter::new();
        c.inc();
        c.add(1 << 40);
        c.add(0);
        assert_eq!((c.get(), c.ops()), ((1 << 40) + 1, 3));
        // The call tally wraps on its own, without touching the value.
        for _ in 0..u16::MAX {
            c.inc();
        }
        assert_eq!((c.get(), c.ops()), ((1 << 40) + 65_536, 2));
        c.reset();
        assert_eq!((c.get(), c.ops()), (0, 0));
    }

    #[test]
    fn histogram_basics() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        let p50 = h.p50();
        assert!((43..=57).contains(&p50), "p50 {p50}");
        let p99 = h.p99();
        assert!((92..=100).contains(&p99), "p99 {p99}");
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn bucket_roundtrip_error_is_bounded() {
        // Every value's bucket midpoint is within 1/16 of the value (plus
        // the half-unit floor for tiny values).
        for v in (0..60).map(|e| 1u64 << e).chain([3, 7, 77, 12345, 999_999]) {
            let mid = Histogram::representative(Histogram::bucket_index(v));
            let err = mid.abs_diff(v) as f64;
            assert!(err <= v as f64 / 16.0 + 1.0, "v={v} mid={mid} err={err}");
        }
    }

    #[test]
    fn extreme_values_stay_in_range() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn labeled_keys_compose() {
        assert_eq!(
            labeled_key("serve.slice.run_ns", &[("tenant", "a")]),
            "serve.slice.run_ns{tenant=\"a\"}"
        );
        assert_eq!(labeled_key("plain", &[]), "plain");
    }

    #[test]
    fn prometheus_rendering_is_wellformed() {
        let reg = Registry::default();
        reg.counter("unit.test.hits").add(3);
        reg.histogram_labeled("unit.test.lat_ns", &[("tenant", "t0")])
            .record(1000);
        let text = reg.render_prometheus();
        assert!(text.contains("unit_test_hits 3"));
        assert!(text.contains("unit_test_lat_ns{tenant=\"t0\",quantile=\"0.5\"}"));
        assert!(text.contains("unit_test_lat_ns_count{tenant=\"t0\"} 1"));
        assert!(!text.contains("NaN"));
    }
}
