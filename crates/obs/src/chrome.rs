//! Chrome trace-event export, text summaries, and a format validator.
//!
//! The export targets the [Trace Event Format] "JSON Object Format": a
//! top-level object whose `traceEvents` array holds complete (`"ph":"X"`)
//! events with microsecond `ts`/`dur`. Both `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) load it directly; nesting is derived
//! by the viewer from interval containment per `tid`, which is exactly how
//! our per-phase spans sit inside their step spans.
//!
//! The validator reads through the crate's small JSON reader
//! ([`crate::json`]; this workspace is offline — no serde) and checks
//! structure, required fields and types, which is what the CI `trace_check`
//! bin gates on.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::Json;
use crate::span::{SpanRecord, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn event_json(r: &SpanRecord) -> String {
    let mut args = String::new();
    if let Some(t) = &r.tenant {
        let _ = write!(args, "\"tenant\":\"{}\"", escape(t));
    }
    if let Some(l) = r.layer {
        if !args.is_empty() {
            args.push(',');
        }
        let _ = write!(args, "\"layer\":{l}");
    }
    if let Some(i) = r.index {
        if !args.is_empty() {
            args.push(',');
        }
        let _ = write!(args, "\"index\":{i}");
    }
    format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{{args}}}}}",
        escape(r.name),
        escape(r.cat),
        r.start_ns as f64 / 1e3,
        r.dur_ns as f64 / 1e3,
        r.tid,
    )
}

impl Trace {
    /// Serialise to Chrome trace-event JSON (complete `"X"` events,
    /// microsecond timestamps).
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<String> = self.records.iter().map(event_json).collect();
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped\":{}}}}}",
            events.join(","),
            self.dropped
        )
    }

    /// Write [`Self::to_chrome_json`] to `path`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }

    /// Human text summary: per span name, the call count, total and mean
    /// time, sorted by total descending. Ends with the dropped count when
    /// the ring wrapped.
    pub fn summary(&self) -> String {
        struct Agg {
            count: u64,
            total_ns: u64,
        }
        let mut by_name: BTreeMap<&str, Agg> = BTreeMap::new();
        for r in &self.records {
            let agg = by_name.entry(r.name).or_insert(Agg {
                count: 0,
                total_ns: 0,
            });
            agg.count += 1;
            agg.total_ns += r.dur_ns;
        }
        let mut rows: Vec<(&str, Agg)> = by_name.into_iter().collect();
        rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>12} {:>12}",
            "span", "count", "total ms", "mean us"
        );
        for (name, agg) in rows {
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>12.3} {:>12.2}",
                name,
                agg.count,
                agg.total_ns as f64 / 1e6,
                agg.total_ns as f64 / 1e3 / agg.count.max(1) as f64,
            );
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "({} records dropped by ring wraparound)", self.dropped);
        }
        out
    }
}

/// What [`validate_chrome_trace`] learned about a well-formed trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    pub events: usize,
    /// Distinct span names.
    pub names: usize,
    /// Latest event end (`ts + dur`), microseconds.
    pub span_us: f64,
}

/// Check that `json` is a well-formed Chrome trace-event document: a
/// top-level object with a `traceEvents` array whose every element is a
/// complete event — string `name`/`cat`, `"ph":"X"`, numeric non-negative
/// `ts`/`dur`, numeric `pid`/`tid`. Returns aggregate stats on success.
pub fn validate_chrome_trace(json: &str) -> Result<TraceStats, String> {
    let value = crate::json::parse(json)?;
    value.as_object().ok_or("top level is not an object")?;
    let events = value
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    let mut names: Vec<&str> = Vec::new();
    let mut span_us = 0.0f64;
    for (i, ev) in events.iter().enumerate() {
        ev.as_object()
            .ok_or_else(|| format!("event {i} is not an object"))?;
        let field = |key: &str| -> Result<&Json, String> {
            ev.get(key)
                .ok_or_else(|| format!("event {i} missing {key}"))
        };
        let name = field("name")?
            .as_str()
            .ok_or_else(|| format!("event {i}: name is not a string"))?;
        field("cat")?
            .as_str()
            .ok_or_else(|| format!("event {i}: cat is not a string"))?;
        let ph = field("ph")?
            .as_str()
            .ok_or_else(|| format!("event {i}: ph is not a string"))?;
        if ph != "X" {
            return Err(format!("event {i}: ph {ph:?} is not a complete event"));
        }
        let ts = field("ts")?
            .as_f64()
            .ok_or_else(|| format!("event {i}: ts is not a number"))?;
        let dur = field("dur")?
            .as_f64()
            .ok_or_else(|| format!("event {i}: dur is not a number"))?;
        if ts < 0.0 || dur < 0.0 {
            return Err(format!("event {i}: negative ts/dur"));
        }
        field("pid")?
            .as_f64()
            .ok_or_else(|| format!("event {i}: pid is not a number"))?;
        field("tid")?
            .as_f64()
            .ok_or_else(|| format!("event {i}: tid is not a number"))?;
        if !names.contains(&name) {
            names.push(name);
        }
        span_us = span_us.max(ts + dur);
    }
    Ok(TraceStats {
        events: events.len(),
        names: names.len(),
        span_us,
    })
}

/// [`validate_chrome_trace`] on a file.
pub fn validate_chrome_trace_file(path: &Path) -> Result<TraceStats, String> {
    let json =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    validate_chrome_trace(&json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &'static str, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            name,
            cat: "test",
            tenant: Some("t/0\"x".into()),
            layer: Some(1),
            index: Some(2),
            start_ns,
            dur_ns,
            tid: 1,
        }
    }

    #[test]
    fn export_roundtrips_through_the_validator() {
        let trace = Trace {
            records: vec![record("outer", 0, 5_000), record("inner", 1_000, 2_000)],
            dropped: 3,
        };
        let json = trace.to_chrome_json();
        let stats = validate_chrome_trace(&json).expect("well-formed");
        assert_eq!(stats.events, 2);
        assert_eq!(stats.names, 2);
        assert!((stats.span_us - 5.0).abs() < 1e-9, "{}", stats.span_us);
        assert!(json.contains("\"dropped\":3"));
    }

    #[test]
    fn containment_detects_nesting() {
        let outer = record("outer", 0, 5_000);
        let inner = record("inner", 1_000, 2_000);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
    }

    #[test]
    fn summary_aggregates_by_name() {
        let trace = Trace {
            records: vec![
                record("model.step", 0, 10_000),
                record("model.step", 20_000, 30_000),
                record("model.predict", 1_000, 500),
            ],
            dropped: 0,
        };
        let text = trace.summary();
        assert!(text.contains("model.step"));
        assert!(text.contains("2")); // step count
        assert!(text.contains("model.predict"));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("[]").is_err(), "array top level");
        assert!(validate_chrome_trace("{}").is_err(), "missing traceEvents");
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err(),
            "incomplete event"
        );
        assert!(
            validate_chrome_trace(
                "{\"traceEvents\":[{\"name\":\"x\",\"cat\":\"c\",\"ph\":\"B\",\"ts\":0,\"dur\":1,\"pid\":1,\"tid\":1}]}"
            )
            .is_err(),
            "non-X phase"
        );
        assert!(validate_chrome_trace("{\"traceEvents\":[]} junk").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        // An escaped quote and a \u escape in the name; fractional,
        // exponent and negative-exponent numbers in the fields.
        let doc = "{\"traceEvents\":[{\"name\":\"q\\\"\\u0041\",\"cat\":\"c\",\"ph\":\"X\",\
                   \"ts\":1.5,\"dur\":2e3,\"pid\":1,\"tid\":25E-1}]}";
        let stats = validate_chrome_trace(doc).expect("well-formed");
        assert_eq!((stats.events, stats.names), (1, 1));
        assert_eq!(stats.span_us, 2001.5);
        let value = crate::json::parse(doc).unwrap();
        let event = &value.get("traceEvents").and_then(Json::as_array).unwrap()[0];
        assert_eq!(event.get("name").and_then(Json::as_str), Some("q\"A"));
    }
}
