//! The benchmark's fixed vocabulary: workload names, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root lists exactly
//! these (a unit test keeps the two in step); perf PRs cite them by name.

use crate::json::Json;

pub const FT_DENSE: &str = "ft-dense-s512";
pub const FT_SPARSE: &str = "ft-sparse-s512";
pub const FT_SPARSE_NF4: &str = "ft-sparse-nf4-s64";
pub const SERVE_MIXED: &str = "serve-mixed-32t";

pub const WORKLOADS: [&str; 4] = [FT_DENSE, FT_SPARSE, FT_SPARSE_NF4, SERVE_MIXED];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [MetricDef; 5] = [
    m("tokens_per_s", "1/s", Higher),
    m("step_ms_p50", "ms", Lower),
    m("step_ms_p90", "ms", Lower),
    m("final_loss", "nat", Lower),
    m("setup_s", "s", Lower),
];

/// Single-layer numbers (layer = crate name), measured from outside on the
/// traced pass. Every workload reports every one; a layer the workload does
/// not exercise reads 0 for its in-situ counts.
pub const PER_LAYER: [MetricDef; 49] = [
    m("lx-kernels.gemm_calls_per_step", "count", Lower),
    m("lx-kernels.gemm_busy_ms_per_step", "ms", Lower),
    m("lx-kernels.replay_gflops", "GFLOP/s", Higher),
    m("lx-kernels.replay_gbytes_per_s", "GB/s", Higher),
    m("lx-quant.nf4_decode_gb_per_s", "GB/s", Higher),
    m("lx-quant.f16_decode_gb_per_s", "GB/s", Higher),
    m("lx-quant.slab_decoded_per_step", "count", Lower),
    m("lx-quant.slab_carried_per_step", "count", Higher),
    m("lx-sparse.attn_op_ms", "ms", Lower),
    m("lx-sparse.attn_op_speedup", "ratio", Higher),
    m("lx-sparse.mlp_op_ms", "ms", Lower),
    m("lx-sparse.mlp_op_speedup", "ratio", Higher),
    m("long-exposure.predict_share", "%", Lower),
    m("long-exposure.predict_attn_ms", "ms", Lower),
    m("long-exposure.predict_mlp_ms", "ms", Lower),
    m("long-exposure.plan_reuse_ratio", "ratio", Higher),
    m("long-exposure.calib_recall", "ratio", Higher),
    m("long-exposure.calibrate_s", "s", Lower),
    m("lx-model.forward_ms", "ms", Lower),
    m("lx-model.backward_ms", "ms", Lower),
    m("lx-model.optimizer_ms", "ms", Lower),
    m("lx-model.attn_density", "ratio", Lower),
    m("lx-model.mlp_density", "ratio", Lower),
    m("lx-model.skipped_steps", "count", Lower),
    m("lx-tensor.workspace_hit_ratio", "ratio", Higher),
    m("lx-tensor.allocs_per_step", "count", Lower),
    m("lx-tensor.peak_bytes", "bytes", Lower),
    m("lx-data.batch_ms_per_step", "ms", Lower),
    m("lx-data.stream_build_ms", "ms", Lower),
    m("lx-peft.attach_ms", "ms", Lower),
    m("lx-peft.extract_detach_ms", "ms", Lower),
    m("lx-peft.serialize_ms", "ms", Lower),
    m("lx-serve.swap_ms_per_slice", "ms", Lower),
    m("lx-serve.utilisation", "ratio", Higher),
    m("lx-serve.slice_wait_ms_p50", "ms", Lower),
    m("lx-serve.registry_put_get_us", "us", Lower),
    m("lx-cluster.queue_op_ns", "ns", Lower),
    m("lx-cluster.steals", "count", Lower),
    m("lx-cluster.fused_share", "ratio", Higher),
    m("lx-cluster.replica_idle_share", "ratio", Lower),
    m("lx-cluster.job_s_p50", "s", Lower),
    m("lx-cluster.interactive_drain_s", "s", Lower),
    m("lx-parallel.dispatch_ns", "ns", Lower),
    m("lx-parallel.workers", "count", Higher),
    m("lx-runtime.policy_s", "s", Lower),
    m("lx-runtime.autotune_s", "s", Lower),
    m("lx-obs.inert_span_ns", "ns", Lower),
    m("lx-obs.trace_overhead", "ratio", Higher),
    m("lx-obs.dropped_spans", "count", Lower),
];

/// `(metric name, bound)` pairs of `BENCHMARK.json`'s `end_to_end` list.
pub fn bounds_from_benchmark_json(doc: &Json) -> Result<Vec<(String, f64)>, String> {
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Json::as_str);
            let bound = entry.get("bound").and_then(Json::as_f64);
            match (name, bound) {
                (Some(n), Some(b)) => Ok((n.to_string(), b)),
                _ => Err(format!(
                    "BENCHMARK.json: malformed end_to_end entry {entry}"
                )),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let first_ok = name
            .bytes()
            .next()
            .is_some_and(|b| b.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "duplicate {name}");
        }
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{} unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
        }
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed<'a>(doc: &'a Json, key: &str, field: &str) -> Vec<&'a str> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{key} list"))
            .iter()
            .map(|e| e.get(field).and_then(Json::as_str).expect("string field"))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_this_vocabulary() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "workloads", "name"), WORKLOADS);
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let names: Vec<&str> = table.iter().map(|d| d.name).collect();
            assert_eq!(listed(&doc, key, "name"), names, "{key} names");
            let units: Vec<&str> = table.iter().map(|d| d.unit).collect();
            assert_eq!(listed(&doc, key, "unit"), units, "{key} units");
            let better: Vec<&str> = table.iter().map(|d| d.better.as_str()).collect();
            assert_eq!(listed(&doc, key, "better"), better, "{key} directions");
        }
        assert_eq!(
            doc.get("paths").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn bounds_are_within_the_contract() {
        let bounds = bounds_from_benchmark_json(&benchmark_json()).unwrap();
        assert_eq!(bounds.len(), END_TO_END.len());
        for (name, bound) in &bounds {
            assert!(*bound > 0.0 && *bound <= 0.25, "{name}: bound {bound}");
        }
        let setup = bounds
            .iter()
            .find(|(n, _)| n == "setup_s")
            .expect("setup_s");
        assert!(
            bounds.iter().all(|(_, b)| *b <= setup.1),
            "setup_s has the largest bound"
        );
    }
}
