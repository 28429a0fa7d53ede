//! Machine-readable results for the experiment binaries.
//!
//! Every bin prints Markdown-ish tables through [`header`]/[`row`]; this
//! module transparently collects what was printed and, when the bin was
//! invoked with `--json` (parsed by [`crate::BenchCli`], emitted by
//! `BenchCli::finish`), serialises it to `BENCH_<name>.json` in the current
//! directory. That file is the unit of the perf trajectory: CI and
//! developers commit/compare them across PRs instead of scraping stdout.
//!
//! The JSON is written by hand (the workspace is offline — no serde):
//!
//! ```json
//! {
//!   "bench": "fig12_operators",
//!   "tables": [
//!     {"header": ["sparsity", "time ms"], "rows": [["0.00", "1.23"], ...]}
//!   ]
//! }
//! ```
//!
//! Collection is thread-local: bins print their tables from `main`, so the
//! main thread's log is the report.

use lx_obs::json::{self, Json};
use std::cell::RefCell;
use std::io::Write;
use std::path::PathBuf;

#[derive(Default)]
struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

thread_local! {
    static TABLES: RefCell<Vec<Table>> = const { RefCell::new(Vec::new()) };
}

/// Print a table header + separator and start a new collected table.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    TABLES.with(|t| {
        t.borrow_mut().push(Table {
            header: cells.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        })
    });
}

/// Print a Markdown-ish table row and append it to the current table.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
    TABLES.with(|t| {
        let mut tables = t.borrow_mut();
        if tables.is_empty() {
            tables.push(Table::default());
        }
        tables
            .last_mut()
            .expect("just ensured")
            .rows
            .push(cells.to_vec());
    });
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_array(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect();
    format!("[{}]", quoted.join(","))
}

/// Serialise everything collected so far to `BENCH_<name>.json`.
pub fn emit_json(name: &str) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(format!("BENCH_{name}.json"));
    let body = TABLES.with(|t| {
        let tables = t.borrow();
        let rendered: Vec<String> = tables
            .iter()
            .map(|tab| {
                let rows: Vec<String> = tab.rows.iter().map(|r| json_array(r)).collect();
                format!(
                    "{{\"header\":{},\"rows\":[{}]}}",
                    json_array(&tab.header),
                    rows.join(",")
                )
            })
            .collect();
        format!(
            "{{\"bench\":\"{}\",\"tables\":[{}]}}\n",
            json_escape(name),
            rendered.join(",")
        )
    });
    let mut f = std::fs::File::create(&path)?;
    f.write_all(body.as_bytes())?;
    Ok(path)
}

/// A parsed `BENCH_<name>.json` report (see the module docs for the format).
#[derive(Debug)]
pub struct BenchReport {
    pub bench: String,
    /// `(header, rows)` per collected table.
    pub tables: Vec<(Vec<String>, Vec<Vec<String>>)>,
}

/// Load a report previously written by [`emit_json`]. It reads through
/// [`lx_obs::json`], which accepts general JSON syntax, so hand-edited
/// baselines with whitespace also load.
pub fn load_bench_json(path: &std::path::Path) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value = json::parse(&text)?;
    value.as_object().ok_or("top level must be an object")?;
    let bench = value
        .get("bench")
        .and_then(|v| v.as_str())
        .ok_or("missing \"bench\"")?
        .to_string();
    let mut tables = Vec::new();
    for table in value
        .get("tables")
        .and_then(|v| v.as_array())
        .ok_or("missing \"tables\"")?
    {
        table.as_object().ok_or("table must be an object")?;
        let header = string_array(table.get("header").ok_or("missing header")?)?;
        let rows = table
            .get("rows")
            .and_then(|v| v.as_array())
            .ok_or("missing rows")?
            .iter()
            .map(string_array)
            .collect::<Result<Vec<_>, _>>()?;
        tables.push((header, rows));
    }
    Ok(BenchReport { bench, tables })
}

/// Compare the tables collected *so far in this process* against a baseline
/// report: every row (matched by table index + first cell) whose header cell
/// contains `column` is parsed as a ratio (a trailing `x` is tolerated) and
/// must not fall below `baseline · (1 − tolerance)`. Improvements never
/// fail. Returns `(checked, regressions)`: one message per comparison that
/// passed, and one per regression — an empty second list means the gate is
/// green (an empty first list too means nothing matched, which callers
/// should treat as a mis-pointed baseline). Rows or tables absent from the
/// baseline are skipped, so adding shapes to a bench does not require
/// regenerating the baseline atomically.
pub fn compare_to_baseline(
    baseline: &BenchReport,
    column: &str,
    tolerance: f64,
) -> (Vec<String>, Vec<String>) {
    let mut checked = Vec::new();
    let mut regressions = Vec::new();
    TABLES.with(|t| {
        for (ti, table) in t.borrow().iter().enumerate() {
            let Some((base_header, base_rows)) = baseline.tables.get(ti) else {
                continue;
            };
            for (ci, name) in table.header.iter().enumerate() {
                if !name.contains(column) {
                    continue;
                }
                let Some(base_ci) = base_header.iter().position(|h| h == name) else {
                    continue;
                };
                for row in &table.rows {
                    let key = row.first().cloned().unwrap_or_default();
                    let Some(base_row) = base_rows.iter().find(|r| r.first() == row.first()) else {
                        continue;
                    };
                    let (Some(cur), Some(base)) = (
                        row.get(ci).and_then(|v| parse_ratio(v)),
                        base_row.get(base_ci).and_then(|v| parse_ratio(v)),
                    ) else {
                        continue;
                    };
                    let floor = base * (1.0 - tolerance);
                    if cur < floor {
                        regressions.push(format!(
                            "{key}: {name} regressed to {cur:.2} (baseline {base:.2}, \
                             floor {floor:.2} at {:.0}% tolerance)",
                            tolerance * 100.0
                        ));
                    } else {
                        checked.push(format!("{key}: {name} {cur:.2} vs baseline {base:.2} ok"));
                    }
                }
            }
        }
    });
    (checked, regressions)
}

fn parse_ratio(cell: &str) -> Option<f64> {
    cell.trim().trim_end_matches('x').parse().ok()
}

fn string_array(v: &Json) -> Result<Vec<String>, String> {
    v.as_array()
        .ok_or("expected an array of strings")?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| "expected a string".to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_and_baseline_compare() {
        // Thread-local collection: isolate from parallel tests.
        std::thread::spawn(|| {
            header(&["shape", "speedup"]);
            row(&["square".into(), "3.00x".into()]);
            row(&["tall".into(), "1.50x".into()]);
            let dir = std::env::temp_dir().join(format!("lx-bench-test-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let json_dir = std::env::current_dir().unwrap();
            let path = emit_json("roundtrip_test").unwrap();
            let report = load_bench_json(&path).unwrap();
            assert_eq!(report.bench, "roundtrip_test");
            assert_eq!(report.tables.len(), 1);
            assert_eq!(report.tables[0].1[0], vec!["square", "3.00x"]);
            // Same values: no regressions at any tolerance.
            let (checked, regressions) = compare_to_baseline(&report, "speedup", 0.0);
            assert_eq!(checked.len(), 2, "{checked:?}");
            assert!(regressions.is_empty(), "{regressions:?}");
            // A higher baseline triggers the gate.
            let mut stale = report;
            stale.tables[0].1[0][1] = "9.00x".into();
            let (_, regressions) = compare_to_baseline(&stale, "speedup", 0.25);
            assert_eq!(regressions.len(), 1, "{regressions:?}");
            assert!(regressions[0].contains("square"), "{regressions:?}");
            let _ = std::fs::remove_file(json_dir.join(path));
            let _ = std::fs::remove_dir_all(dir);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn parser_handles_whitespace_and_escapes() {
        let text = "{ \"bench\" : \"x\",\n \"tables\": [ { \"header\": [\"a \\\"q\\\"\"], \
                    \"rows\": [ [\"1\"] ] } ] }";
        let path = std::env::temp_dir().join(format!("lx-bench-parse-{}.json", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let report = load_bench_json(&path).unwrap();
        let _ = std::fs::remove_file(path);
        assert_eq!(report.bench, "x");
        assert_eq!(report.tables[0].0[0], "a \"q\"");
        assert_eq!(report.tables[0].1, vec![vec!["1".to_string()]]);
    }

    #[test]
    fn collects_and_serialises_tables() {
        // Thread-local state: run in an isolated thread so parallel tests
        // (and earlier prints) can't interleave.
        std::thread::spawn(|| {
            header(&["a", "b"]);
            row(&["1".into(), "x \"quoted\"".into()]);
            header(&["c"]);
            row(&["2".into()]);
            let body = TABLES.with(|t| {
                let tables = t.borrow();
                assert_eq!(tables.len(), 2);
                assert_eq!(tables[0].rows.len(), 1);
                tables[0].rows[0][1].clone()
            });
            assert_eq!(body, "x \"quoted\"");
            assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        })
        .join()
        .unwrap();
    }
}
