//! What a run reports, and the always-on crate counters a window is
//! bracketed with.

use crate::json::Json;
use crate::spec::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats;
use lx_obs::registry;
use lx_tensor::memtrack;
use std::collections::BTreeMap;

/// One workload's run: named metric values plus the correctness verdict.
#[derive(Debug, Default)]
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    /// Metric name → value. An untraced run holds every end-to-end metric,
    /// a traced run every per-layer metric.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Numbers printed for the reader but neither gated nor in the contract
    /// line (sample counts, step counts, set-up breakdown).
    pub info: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate violations; empty means correct.
    pub violations: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    fn table(&self) -> &'static [MetricDef] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Record a gate violation; `operations` of them count as failed.
    pub fn violation(&mut self, operations: u64, what: String) {
        self.failed += operations.max(1);
        self.violations.push(what);
    }

    /// Check the metric set is complete and finite before it is printed.
    pub fn seal(&mut self) {
        for d in self.table() {
            match self.metrics.get(d.name) {
                Some(v) if v.is_finite() => {}
                Some(v) => {
                    let v = *v;
                    self.metrics.insert(d.name, 0.0);
                    self.violation(1, format!("{}: non-finite value {v}", d.name));
                }
                None => panic!("{}: metric {} was never measured", self.workload, d.name),
            }
        }
        self.attempted = self.attempted.max(1);
        self.failed = self.failed.min(self.attempted);
    }

    /// The contract's result object (the run's last stdout line).
    pub fn result_json(&self) -> Json {
        let metrics = self.table().iter().map(|d| {
            (
                d.name,
                Json::obj([
                    ("value", Json::Num(self.metrics[d.name])),
                    ("unit", Json::str(d.unit)),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Human-readable report: every metric by name with its unit.
    pub fn print(&self) {
        println!(
            "== {} ({}) ==",
            self.workload,
            if self.traced { "traced" } else { "untraced" }
        );
        for d in self.table() {
            println!(
                "  {:<36} {:>16.4} {:<8} ({} is better)",
                d.name,
                self.metrics[d.name],
                d.unit,
                d.better.as_str()
            );
        }
        for (name, value) in &self.info {
            println!("  {name:<36} {value:>16.4}          (informational)");
        }
        println!(
            "  failed_share {} / {} operations",
            self.failed, self.attempted
        );
        for v in &self.violations {
            println!("  VIOLATION: {v}");
        }
    }
}

/// Timing samples of one window, reduced the same way for every workload.
pub fn latency_metrics(out: &mut Outcome, step_ms: &[f64]) {
    out.metrics.insert("step_ms_p50", stats::median(step_ms));
    out.metrics
        .insert("step_ms_p90", stats::percentile(step_ms, 90.0));
    out.info.push(("step_samples".into(), step_ms.len() as f64));
    out.info.push((
        "step_samples_beyond_p90".into(),
        stats::samples_beyond(step_ms, 90.0) as f64,
    ));
    // 1 when p90 has the ten samples beyond it that a tail percentile needs.
    out.info.push((
        "p90_supported".into(),
        f64::from(u8::from(stats::percentile_supported(step_ms, 90.0))),
    ));
}

/// Snapshot of the crates' public always-on counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub gemm_calls: u64,
    /// Summed `kernel.gemm.ns` histograms (only advance while timing is on,
    /// i.e. during the traced window).
    pub gemm_ns: u64,
    pub slab_decoded: u64,
    pub slab_carried: u64,
    pub ws_hits: u64,
    pub ws_misses: u64,
    pub tensor_allocs: u64,
    pub steals: u64,
}

impl Counters {
    pub fn now() -> Counters {
        let reg = registry();
        let gemm_ns = reg
            .histograms()
            .iter()
            .filter(|(name, _)| name.starts_with("kernel.gemm.ns"))
            .map(|(_, h)| h.sum)
            .sum();
        Counters {
            gemm_calls: lx_kernels::gemm_call_total(),
            gemm_ns,
            slab_decoded: reg.counter("mlp.slab.decoded").get(),
            slab_carried: reg.counter("mlp.slab.carried").get(),
            ws_hits: reg.counter("workspace.hits").get(),
            ws_misses: reg.counter("workspace.misses").get(),
            tensor_allocs: memtrack::alloc_stats().count as u64,
            steals: reg.counter("serve.replica.steals").get(),
        }
    }

    pub fn since(&self, mark: &Counters) -> Counters {
        Counters {
            gemm_calls: self.gemm_calls - mark.gemm_calls,
            gemm_ns: self.gemm_ns - mark.gemm_ns,
            slab_decoded: self.slab_decoded - mark.slab_decoded,
            slab_carried: self.slab_carried - mark.slab_carried,
            ws_hits: self.ws_hits - mark.ws_hits,
            ws_misses: self.ws_misses - mark.ws_misses,
            tensor_allocs: self.tensor_allocs - mark.tensor_allocs,
            steals: self.steals - mark.steals,
        }
    }

    /// The per-layer metrics these counters carry, per optimizer step.
    pub fn per_step_metrics(&self, steps: usize, out: &mut Outcome) {
        let per = |n: u64| n as f64 / steps.max(1) as f64;
        let m = &mut out.metrics;
        m.insert("lx-kernels.gemm_calls_per_step", per(self.gemm_calls));
        m.insert("lx-kernels.gemm_busy_ms_per_step", per(self.gemm_ns) / 1e6);
        m.insert("lx-quant.slab_decoded_per_step", per(self.slab_decoded));
        m.insert("lx-quant.slab_carried_per_step", per(self.slab_carried));
        let lookups = self.ws_hits + self.ws_misses;
        m.insert(
            "lx-tensor.workspace_hit_ratio",
            self.ws_hits as f64 / lookups.max(1) as f64,
        );
        m.insert("lx-tensor.allocs_per_step", per(self.tensor_allocs));
        m.insert("lx-cluster.steals", self.steals as f64);
    }
}
