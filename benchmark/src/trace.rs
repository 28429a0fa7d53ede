//! Per-layer self time from a finished `lx_obs` trace.
//!
//! The benchmark wraps every call it makes into a crate in a
//! `bench.<layer>.<fn>` span; spans the crates record themselves
//! (`model.*`, `serve.*`, `engine.*`) nest inside those. A span's *self time*
//! is its duration minus the part covered by its direct children, so summing
//! self times over one thread never counts an interval twice.

use crate::json::Json;
use crate::measure::Outcome;
use lx_obs::{Span, SpanRecord, Trace, TraceSession};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Ring capacity of a traced window: the busiest workload
/// (`serve-mixed-32t`) records ~3k spans per drain round.
const RING_CAPACITY: usize = 1 << 17;

/// A finished traced window.
pub struct Recorded {
    pub workload: &'static str,
    pub trace: Trace,
    /// Thread the benchmark's own driver loop ran on.
    pub driver_tid: u64,
    /// Duration of the root `bench.driver.window` span.
    pub window_ns: u64,
}

/// Run `window` inside a trace session, under one root span that shares the
/// workload name with every `bench.driver.step` below it.
pub fn record<R>(workload: &'static str, window: impl FnOnce() -> R) -> (R, Recorded) {
    let session = TraceSession::with_capacity(RING_CAPACITY).expect("no other trace session");
    let result = {
        let _root = Span::enter("bench.driver.window")
            .cat("bench")
            .tenant(workload);
        window()
    };
    let trace = session.finish();
    let root = trace
        .named("bench.driver.window")
        .first()
        .map(|r| (r.tid, r.dur_ns))
        .expect("root span is recorded");
    let recorded = Recorded {
        workload,
        trace,
        driver_tid: root.0,
        window_ns: root.1,
    };
    (result, recorded)
}

/// Where traced runs leave their artifacts: inside the build directory, so
/// nothing lands in the source tree.
pub fn out_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    PathBuf::from(target).join("lx-benchmark-out")
}

/// Write `<workload>.trace.json` (Chrome trace, validated with the repo's
/// own loader) and `<workload>.layers.json`. Errors are gate violations:
/// dropped spans, an invalid trace, or layer self times that leave more than
/// 5 % of the window unaccounted for.
pub fn write_artifacts(
    recorded: &Recorded,
    out: &Outcome,
    extra: impl IntoIterator<Item = (&'static str, Json)>,
) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let trace_path = dir.join(format!("{}.trace.json", recorded.workload));
    recorded
        .trace
        .write_chrome(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    let stats = lx_obs::validate_chrome_trace_file(&trace_path)?;

    let spans = layers_json(
        &recorded.trace.records,
        recorded.driver_tid,
        recorded.window_ns,
    );
    let coverage = spans
        .get("driver_coverage")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let mut doc = vec![
        ("workload".to_string(), Json::str(recorded.workload)),
        ("trace_events".to_string(), Json::from(stats.events)),
        (
            "dropped_spans".to_string(),
            Json::from(recorded.trace.dropped),
        ),
        ("spans".to_string(), spans),
        (
            "metrics".to_string(),
            out.result_json()
                .get("metrics")
                .cloned()
                .unwrap_or(Json::Null),
        ),
    ];
    doc.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    let layers_path = dir.join(format!("{}.layers.json", recorded.workload));
    std::fs::write(&layers_path, format!("{}\n", Json::Obj(doc)))
        .map_err(|e| format!("write {}: {e}", layers_path.display()))?;
    println!(
        "  wrote {} ({} events) and {}",
        trace_path.display(),
        stats.events,
        layers_path.display()
    );
    if recorded.trace.dropped != 0 {
        return Err(format!(
            "{} spans dropped by the trace ring",
            recorded.trace.dropped
        ));
    }
    if coverage < 0.95 {
        return Err(format!(
            "per-layer self times cover only {:.1}% of the window wall (want >= 95%)",
            coverage * 100.0
        ));
    }
    Ok(())
}

/// Layer a span's time is booked to.
pub fn layer_of(name: &str) -> &str {
    if let Some(rest) = name.strip_prefix("bench.") {
        return rest.split('.').next().unwrap_or("driver");
    }
    match name {
        // Recorded in lx-model, but the time is the predictor's.
        "model.predict" => "long-exposure",
        n if n.starts_with("model.") => "lx-model",
        n if n.starts_with("serve.") => "lx-serve",
        n if n.starts_with("engine.") => "long-exposure",
        _ => "other",
    }
}

/// Self time of each record, in `records` order. Nesting is per thread:
/// a record is the child of the innermost earlier record on its `tid` whose
/// interval contains it.
pub fn self_times(records: &[SpanRecord]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..records.len()).collect();
    // Parents first: earlier start, and on a tie the longer span.
    order.sort_by_key(|&i| {
        let r = &records[i];
        (r.tid, r.start_ns, std::cmp::Reverse(r.dur_ns))
    });
    let mut own: Vec<u64> = records.iter().map(|r| r.dur_ns).collect();
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let r = &records[i];
        while stack.last().is_some_and(|&p| !records[p].contains(r)) {
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            own[parent] = own[parent].saturating_sub(r.dur_ns);
        }
        stack.push(i);
    }
    own
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub self_ns: u64,
    pub spans: u64,
}

/// Self time and span count per layer, optionally restricted to one thread.
pub fn layer_times(records: &[SpanRecord], tid: Option<u64>) -> BTreeMap<String, LayerTime> {
    let own = self_times(records);
    let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
    for (r, self_ns) in records.iter().zip(own) {
        if tid.is_some_and(|t| t != r.tid) {
            continue;
        }
        let entry = out.entry(layer_of(r.name).to_string()).or_default();
        entry.self_ns += self_ns;
        entry.spans += 1;
    }
    out
}

/// Self time per span *name* (the finer view `layers.json` also carries).
pub fn name_times(records: &[SpanRecord]) -> BTreeMap<&'static str, LayerTime> {
    let own = self_times(records);
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (r, self_ns) in records.iter().zip(own) {
        let entry = out.entry(r.name).or_default();
        entry.self_ns += self_ns;
        entry.spans += 1;
    }
    out
}

/// Total duration of the spans called `name`.
pub fn total_ns(records: &[SpanRecord], name: &str) -> u64 {
    records
        .iter()
        .filter(|r| r.name == name)
        .map(|r| r.dur_ns)
        .sum()
}

/// Time covered by top-level spans (those with no parent) on threads other
/// than `driver_tid` — the replica workers' busy time.
pub fn worker_busy_ns(records: &[SpanRecord], driver_tid: u64) -> u64 {
    let mut order: Vec<&SpanRecord> = records.iter().filter(|r| r.tid != driver_tid).collect();
    order.sort_by_key(|r| (r.tid, r.start_ns, std::cmp::Reverse(r.dur_ns)));
    let mut busy = 0;
    let mut cover: Option<&SpanRecord> = None;
    for r in order {
        if !cover.is_some_and(|c| c.contains(r)) {
            busy += r.dur_ns;
            cover = Some(r);
        }
    }
    busy
}

fn times_json<K: AsRef<str>>(times: &BTreeMap<K, LayerTime>) -> Json {
    Json::obj(times.iter().map(|(k, t)| {
        (
            k.as_ref().to_string(),
            Json::obj([
                ("self_ms", Json::Num(t.self_ns as f64 / 1e6)),
                ("spans", Json::from(t.spans)),
            ]),
        )
    }))
}

/// The span-derived half of `layers.json`.
pub fn layers_json(records: &[SpanRecord], driver_tid: u64, window_ns: u64) -> Json {
    let driver = layer_times(records, Some(driver_tid));
    let covered: u64 = driver
        .iter()
        .filter(|(layer, _)| layer.as_str() != "driver")
        .map(|(_, t)| t.self_ns)
        .sum();
    Json::obj([
        ("window_ms", Json::Num(window_ns as f64 / 1e6)),
        // Share of the window wall the driver thread spent inside calls into
        // the layers; the rest is the benchmark's own loop (layer `driver`).
        (
            "driver_coverage",
            Json::Num(covered as f64 / window_ns.max(1) as f64),
        ),
        ("driver_thread", times_json(&driver)),
        ("all_threads", times_json(&layer_times(records, None))),
        ("by_span", times_json(&name_times(records))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u64, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            cat: "test",
            tenant: None,
            layer: None,
            index: None,
            start_ns,
            dur_ns,
            tid,
        }
    }

    /// window 0..100 ─┬─ data 0..10
    ///                └─ train_step 10..90 ── model.step 12..88 ─┬─ predict 12..20
    ///                                                           └─ forward 20..60
    /// plus a worker-thread span that must not nest under the driver's.
    fn tree() -> Vec<SpanRecord> {
        vec![
            span("model.forward_pass", 1, 20, 40),
            span("bench.driver.window", 1, 0, 100),
            span("bench.lx-data.next_batch", 1, 0, 10),
            span("model.step", 1, 12, 76),
            span("bench.long-exposure.train_step_mode", 1, 10, 80),
            span("model.predict", 1, 12, 8),
            span("serve.slice", 2, 5, 50),
            span("model.step", 2, 10, 30),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let records = tree();
        let own = self_times(&records);
        assert_eq!(own[1], 100 - 10 - 80, "window: minus its two children");
        assert_eq!(own[4], 80 - 76, "train_step: minus model.step");
        assert_eq!(own[3], 76 - 8 - 40, "model.step: minus predict and forward");
        assert_eq!(own[0], 40);
        assert_eq!(own[5], 8);
        assert_eq!(own[6], 50 - 30, "worker spans nest on their own thread");
        let total_tid1: u64 = records
            .iter()
            .zip(&own)
            .filter(|(r, _)| r.tid == 1)
            .map(|(_, o)| o)
            .sum();
        assert_eq!(total_tid1, 100, "self times tile the root exactly");
    }

    #[test]
    fn layers_are_attributed_by_span_name() {
        let records = tree();
        let driver = layer_times(&records, Some(1));
        assert_eq!(
            driver["lx-data"],
            LayerTime {
                self_ns: 10,
                spans: 1
            }
        );
        assert_eq!(
            driver["long-exposure"].self_ns,
            4 + 8,
            "engine plumbing + predict"
        );
        assert_eq!(driver["lx-model"].self_ns, 28 + 40);
        assert_eq!(driver["driver"].self_ns, 10);
        assert!(!driver.contains_key("lx-serve"));
        assert_eq!(layer_times(&records, None)["lx-serve"].self_ns, 20);
        assert_eq!(worker_busy_ns(&records, 1), 50);
        assert_eq!(total_ns(&records, "model.step"), 76 + 30);
        let doc = layers_json(&records, 1, 100);
        assert_eq!(doc.get("driver_coverage").and_then(Json::as_f64), Some(0.9));
    }

    #[test]
    fn siblings_and_equal_starts_do_not_nest_wrongly() {
        let records = vec![
            span("a", 1, 0, 10),
            span("b", 1, 10, 10), // starts where `a` ends: sibling, not child
            span("outer", 1, 30, 20),
            span("inner", 1, 30, 5), // same start: the longer span is the parent
        ];
        assert_eq!(self_times(&records), vec![10, 10, 15, 5]);
    }
}
