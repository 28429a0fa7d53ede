//! GEMM observability: the [`Observed`] wrapper backend.
//!
//! Every call through [`crate::dispatch::backend`] passes through an
//! `Observed` wrapper that attributes the call to the backend it wraps, to a
//! FLOP shape class, and to the storage dtype of the B operand, then bumps
//! `kernel.gemm.calls{backend,class,dtype,isa,threads}` in the global
//! [`lx_obs`] registry. The `isa` and `threads` labels are process-wide
//! constants (the active microkernel arm and the pool width), captured once
//! at table init so CI matrix arms can tell their metric streams apart.
//! Call counting is one relaxed atomic add; per-call *latency*
//! (`kernel.gemm.ns{…}`) is only measured while
//! [`lx_obs::tracing_active`] — two `Instant` reads per GEMM are noise for
//! Fig. 12 shapes but not for small serving-shape products, and the disabled
//! path must stay under the 1% `step_bench` overhead gate. A grouped launch
//! ([`KernelBackend::gemm_grouped`]) is booked as **one** call — class from
//! the group's total FLOPs, latency the launch's wall time — and adds its
//! task count to `kernel.gemm.tasks`, so blocks-per-step stays visible after
//! calls-per-step collapsed.

use crate::backend::KernelBackend;
use crate::op::{Dtype, GemmGroup, GemmOp};
use lx_obs::{registry, tracing_active, Counter, Histogram};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// FLOP-count shape classes for GEMM attribution.
const CLASSES: [&str; 4] = ["tiny", "small", "medium", "large"];

/// Class index by `2·m·k·n` FLOPs: tiny < 2^17 ≤ small < 2^21 ≤ medium
/// < 2^25 ≤ large.
fn class(m: usize, k: usize, n: usize) -> usize {
    flop_class(2 * (m as u64) * (k as u64) * (n as u64))
}

fn flop_class(flops: u64) -> usize {
    match flops {
        f if f < 1 << 17 => 0,
        f if f < 1 << 21 => 1,
        f if f < 1 << 25 => 2,
        _ => 3,
    }
}

struct GemmStats {
    calls: Arc<Counter>,
    time_ns: Arc<Histogram>,
}

/// The `reference`/`packed` × class × B-storage [`Dtype`] instrument table
/// (A and all accumulation are always f32), registered once.
fn stats(backend: &'static str, class: usize, dtype: Dtype) -> &'static GemmStats {
    static TABLE: OnceLock<Vec<GemmStats>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        // Process-wide constant labels: the microkernel arm and pool width
        // never change after startup, so they cost no extra table entries.
        let isa = crate::isa::active_isa().name();
        let threads: &'static str =
            Box::leak(lx_parallel::pool().threads().to_string().into_boxed_str());
        let mut v = Vec::with_capacity(2 * CLASSES.len() * Dtype::ALL.len());
        for be in ["reference", "packed"] {
            for cls in CLASSES {
                for dt in Dtype::ALL {
                    let labels = [
                        ("backend", be),
                        ("class", cls),
                        ("dtype", dt.name()),
                        ("isa", isa),
                        ("threads", threads),
                    ];
                    v.push(GemmStats {
                        calls: registry().counter_labeled("kernel.gemm.calls", &labels),
                        time_ns: registry().histogram_labeled("kernel.gemm.ns", &labels),
                    });
                }
            }
        }
        v
    });
    let be = usize::from(backend == "packed");
    &table[(be * CLASSES.len() + class) * Dtype::ALL.len() + dtype as usize]
}

/// A [`KernelBackend`] that delegates to `inner` and records call counts and
/// (when timing is enabled) latency into the global metrics registry.
pub struct Observed {
    inner: &'static dyn KernelBackend,
}

impl Observed {
    pub const fn new(inner: &'static dyn KernelBackend) -> Self {
        Observed { inner }
    }
}

impl KernelBackend for Observed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn gemm(&self, op: &GemmOp<'_>, c: &mut [f32], ldc: usize, beta: f32) {
        let (m, k, n) = (op.m, op.k, op.n);
        let s = stats(self.inner.name(), class(m, k, n), op.b.dtype());
        if tracing_active() {
            let t0 = Instant::now();
            self.inner.gemm(op, c, ldc, beta);
            s.time_ns.record_duration(t0.elapsed());
        } else {
            self.inner.gemm(op, c, ldc, beta);
        }
        s.calls.inc();
    }

    /// One call, whatever the table holds: the class comes from the group's
    /// total FLOPs, the dtype from its B operand, and `kernel.gemm.ns` books
    /// the launch's wall time (not the sum of its blocks);
    /// `kernel.gemm.tasks` keeps blocks-per-step visible.
    fn gemm_grouped(&self, group: &GemmGroup<'_>, c: &mut [f32]) {
        let tasks = group.table.tasks().len() as u64;
        let flops = 2 * tasks * (group.m as u64) * (group.k as u64) * (group.n as u64);
        let s = stats(self.inner.name(), flop_class(flops), group.b.data.dtype());
        if tracing_active() {
            let t0 = Instant::now();
            self.inner.gemm_grouped(group, c);
            s.time_ns.record_duration(t0.elapsed());
        } else {
            self.inner.gemm_grouped(group, c);
        }
        s.calls.inc();
        group_tasks().add(tasks);
    }
}

/// Book one *fused* launch — `f`, which runs the products of `groups`
/// staged ([`Packed::stage`](crate::Packed::stage)) inside its own parallel
/// split, with row passes between them — as **one** packed call: the class
/// from all the groups' FLOPs, the dtype from the first group's B, and
/// `kernel.gemm.ns` the launch's wall time, row passes included. The
/// groups' task counts go to `kernel.gemm.tasks`.
pub fn observe_fused<R>(groups: &[&GemmGroup<'_>], f: impl FnOnce() -> R) -> R {
    let mut tasks = 0;
    let mut flops = 0;
    for g in groups {
        let n = g.table.tasks().len() as u64;
        tasks += n;
        flops += 2 * n * (g.m as u64) * (g.k as u64) * (g.n as u64);
    }
    let dtype = groups.first().map_or(Dtype::F32, |g| g.b.data.dtype());
    let s = stats("packed", flop_class(flops), dtype);
    let out = if tracing_active() {
        let t0 = Instant::now();
        let out = f();
        s.time_ns.record_duration(t0.elapsed());
        out
    } else {
        f()
    };
    s.calls.inc();
    group_tasks().add(tasks);
    out
}

/// `kernel.gemm.tasks`: block tasks issued through grouped launches.
fn group_tasks() -> &'static Counter {
    static TASKS: OnceLock<Arc<Counter>> = OnceLock::new();
    TASKS.get_or_init(|| registry().counter("kernel.gemm.tasks"))
}

/// Total observed GEMM calls across all backends, shape classes, and dtypes
/// — a cheap "how many kernels did that step issue" probe for overhead
/// accounting.
pub fn gemm_call_total() -> u64 {
    let mut total = 0;
    for be in ["reference", "packed"] {
        for (i, _) in CLASSES.iter().enumerate() {
            for dt in Dtype::ALL {
                total += stats(be, i, dt).calls.get();
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::REFERENCE;

    #[test]
    fn shape_classes_split_at_flop_boundaries() {
        assert_eq!(class(4, 4, 4), 0);
        assert_eq!(class(32, 64, 32), 1); // 2·32·64·32 = 2^17 exactly: first small shape
        assert_eq!(class(64, 64, 64), 1);
        assert_eq!(class(128, 256, 128), 2);
        assert_eq!(class(512, 512, 512), 3);
    }

    #[test]
    fn observed_counts_calls_and_delegates() {
        // Shape class 0; the dtype-bucket test below keeps to class 1.
        let observed = Observed::new(&REFERENCE);
        assert_eq!(observed.name(), "reference");
        let before = stats("reference", 0, Dtype::F32).calls.get();
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let b = [5.0f32, 6.0, 7.0, 8.0];
        let mut c = [0.0f32; 4];
        let op = GemmOp::nn(2, 2, 2, &a, 2, &b[..], 2);
        observed.gemm(&op, &mut c, 2, 0.0);
        assert_eq!(stats("reference", 0, Dtype::F32).calls.get(), before + 1);
        // 2x2 result actually computed by the inner backend.
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn quantized_calls_land_in_their_dtype_bucket() {
        // Shape class 1, which no other test here counts into: the f32
        // check below reads a process-wide counter, and a parallel test
        // thread calling into the same bucket would move it.
        let (m, k, n) = (32, 64, 32);
        assert_eq!(class(m, k, n), 1);
        let observed = Observed::new(&REFERENCE);
        let vals: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 - 3.0).collect();
        let (codes, scales) = lx_quant::nf4::quantize(&vals);
        let b = crate::BOperand::Q4(lx_quant::Q4View::new(&codes, &scales, vals.len()));
        assert_eq!(b.dtype(), Dtype::Nf4Block);
        let before_q4 = stats("reference", 1, b.dtype()).calls.get();
        let before_f32 = stats("reference", 1, Dtype::F32).calls.get();
        let a = vec![0.5f32; m * k];
        let mut c = vec![0.0f32; m * n];
        let op = GemmOp::nn(m, k, n, &a, k, b, n);
        observed.gemm(&op, &mut c, n, 0.0);
        assert_eq!(stats("reference", 1, b.dtype()).calls.get(), before_q4 + 1);
        assert_eq!(
            stats("reference", 1, Dtype::F32).calls.get(),
            before_f32,
            "the f32 bucket must not double-count a quantized call"
        );
    }
}
