//! Step-persistent tensor workspaces: size-bucketed `Vec<f32>` reuse.
//!
//! The paper's training loop allocates the same set of intermediate tensors
//! every step — projections, score buffers, compact activations, gradients of
//! all of the above. A [`Workspace`] turns that churn into reuse: while a
//! workspace [`scope`](Workspace::scope) is active on the current thread,
//! every `Tensor` buffer dropped inside the scope is parked in a
//! capacity-keyed free list instead of returned to the allocator, and every
//! `Tensor::zeros`/`full`/`clone` first tries to take a parked buffer of
//! sufficient capacity. After one or two warmup steps the pool holds every
//! shape the step needs and a steady-state training step performs **zero**
//! heap tensor allocations — assertable through
//! [`alloc_stats`](crate::memtrack::alloc_stats), which recycled buffers do
//! not advance.
//!
//! Reuse is bit-exact: a recycled `zeros` buffer is `fill(0.0)`-ed and a
//! recycled `clone` target is overwritten by `copy_from_slice`, so pooled and
//! fresh execution produce identical results (the differential suite proves
//! this over multi-step training runs).
//!
//! The workspace itself is a plain owned value — `TransformerModel` keeps one
//! per model, `lx-serve` keeps one per tenant and swaps it in with the
//! adapter — so pooled buffers survive across steps, micro-batches and
//! scheduler slices without any global state beyond the per-thread scope
//! marker.

use crate::memtrack;
use lx_obs::{registry, Counter};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Process-wide mirrors of the per-workspace reuse counters, registered in
/// the global [`lx_obs`] metrics registry. Per-workspace [`WorkspaceStats`]
/// stay the source of truth for the differential suite; these aggregate
/// across every workspace on every thread so `step_bench --trace` and the
/// serve exposition endpoint can report pool behaviour without plumbing.
struct PoolCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    recycled: Arc<Counter>,
}

fn pool_counters() -> &'static PoolCounters {
    static COUNTERS: OnceLock<PoolCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| PoolCounters {
        hits: registry().counter("workspace.hits"),
        misses: registry().counter("workspace.misses"),
        recycled: registry().counter("workspace.recycled"),
    })
}

/// Free buffers keyed by capacity (elements), newest-first per bucket.
#[derive(Debug, Default)]
struct Pool {
    buckets: BTreeMap<usize, Vec<Vec<f32>>>,
    held_elems: usize,
    hits: u64,
    misses: u64,
    recycled: u64,
}

impl Pool {
    /// Smallest parked buffer with capacity ≥ `len`, if it fits within the
    /// over-allocation bound (25% + 64 elements of slack). The bound keeps
    /// `memtrack`'s live-byte accounting honest — a step that borrowed a
    /// grossly oversized buffer would register the full capacity and distort
    /// the peak-memory experiments — while still letting near-miss shapes
    /// share buffers. Steady-state steps request the exact sizes they parked,
    /// so the bound never costs them a hit.
    fn take(&mut self, len: usize) -> Option<Vec<f32>> {
        let cap = *self.buckets.range(len.max(1)..).next()?.0;
        if cap > len + len / 4 + 64 {
            return None;
        }
        let bucket = self.buckets.get_mut(&cap).expect("bucket exists");
        let buf = bucket.pop().expect("non-empty bucket");
        if bucket.is_empty() {
            self.buckets.remove(&cap);
        }
        self.held_elems -= buf.capacity();
        Some(buf)
    }

    fn park(&mut self, buf: Vec<f32>) {
        self.held_elems += buf.capacity();
        self.recycled += 1;
        self.buckets.entry(buf.capacity()).or_default().push(buf);
    }
}

thread_local! {
    /// The pool installed by the innermost active [`Workspace::scope`] on
    /// this thread, if any.
    static ACTIVE: RefCell<Option<Pool>> = const { RefCell::new(None) };
}

/// Counters describing a workspace's reuse behaviour (see [`Workspace::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Allocations served from the pool.
    pub hits: u64,
    /// Allocations that fell through to the heap (warmup, odd shapes).
    pub misses: u64,
    /// Buffers returned to the pool by `Tensor` drops inside a scope.
    pub recycled: u64,
    /// Buffers currently parked in the pool.
    pub held_buffers: usize,
    /// Bytes currently parked in the pool.
    pub held_bytes: usize,
}

/// A step-persistent buffer pool. See the [module docs](self).
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Pool,
    disabled: bool,
}

impl Workspace {
    pub fn new() -> Self {
        Workspace::default()
    }

    /// A workspace whose scopes install nothing: every allocation inside is
    /// a fresh heap allocation and every drop frees. The fresh-allocation
    /// arm of the differential suite.
    pub fn disabled() -> Self {
        Workspace {
            pool: Pool::default(),
            disabled: true,
        }
    }

    /// Enable or disable pooling (disabling does not drop already-parked
    /// buffers — call [`Self::clear`] for that).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.disabled = !enabled;
    }

    /// Run `f` with this workspace installed as the current thread's buffer
    /// pool. Nested scopes stack: the innermost wins, and the outer pool is
    /// restored afterwards (also on panic).
    pub fn scope<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if self.disabled {
            return f();
        }
        struct Guard<'a> {
            ws: &'a mut Workspace,
            prev: Option<Pool>,
        }
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                ACTIVE.with(|a| {
                    let mut slot = a.borrow_mut();
                    self.ws.pool = slot.take().expect("workspace scope pool present");
                    *slot = self.prev.take();
                });
            }
        }
        let prev = ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            let prev = slot.take();
            *slot = Some(std::mem::take(&mut self.pool));
            prev
        });
        let _guard = Guard { ws: self, prev };
        f()
    }

    /// Reuse counters and current pool occupancy.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            hits: self.pool.hits,
            misses: self.pool.misses,
            recycled: self.pool.recycled,
            held_buffers: self.pool.buckets.values().map(Vec::len).sum(),
            held_bytes: self.pool.held_elems * 4,
        }
    }

    /// Drop every parked buffer (keeps the counters).
    pub fn clear(&mut self) {
        self.pool.buckets.clear();
        self.pool.held_elems = 0;
    }
}

/// Take a pooled buffer of capacity ≥ `len` from the current scope, if one
/// is active and has a fit. The returned vec has unspecified contents and
/// length `len`. Registers live bytes (reuse — not a fresh allocation).
pub(crate) fn pool_take(len: usize) -> Option<Vec<f32>> {
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        let pool = slot.as_mut()?;
        match pool.take(len) {
            Some(mut buf) => {
                pool.hits += 1;
                pool_counters().hits.inc();
                // Capacity is preserved; only the logical length changes.
                // resize never reallocates here because capacity ≥ len.
                if buf.len() < len {
                    buf.resize(len, 0.0);
                } else {
                    buf.truncate(len);
                }
                memtrack::register_reuse(buf.capacity() * 4);
                Some(buf)
            }
            None => {
                pool.misses += 1;
                pool_counters().misses.inc();
                None
            }
        }
    })
}

/// Capacity to allocate for a fresh `len`-element buffer: `len` itself
/// outside a scope; inside one, `len` rounded up to its size class — the
/// next value with a three-bit mantissa (`4..=8 · 2^k`, at most 25% above
/// `len`). A step whose buffer sizes move with a predicted sparse plan never
/// asks for "the exact sizes it parked"; class ceilings make every request
/// of a class fit whatever an earlier request of that class left behind
/// (within [`Pool::take`]'s over-allocation bound by construction), so the
/// pool converges after a few steps instead of after every size was seen.
pub(crate) fn fresh_capacity(len: usize) -> usize {
    if len < 8 || !ACTIVE.with(|a| a.borrow().is_some()) {
        return len;
    }
    let step = 1usize << (len.ilog2() - 2);
    len.div_ceil(step) * step
}

/// Offer a dropped tensor's buffer to the current scope. Returns `true` when
/// parked (the caller must not free it — it already moved), `false` when no
/// scope is active (the caller lets the vec drop normally).
pub(crate) fn pool_recycle(buf: Vec<f32>) -> bool {
    if buf.capacity() == 0 {
        return false;
    }
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        match slot.as_mut() {
            Some(pool) => {
                pool.park(buf);
                pool_counters().recycled.inc();
                true
            }
            None => false,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtrack::thread_alloc_stats as alloc_stats;
    use crate::Tensor;

    #[test]
    fn steady_state_is_allocation_free() {
        let mut ws = Workspace::new();
        // Warmup: first pass allocates, buffers park on drop.
        ws.scope(|| {
            let a = Tensor::zeros(&[32, 8]);
            let b = a.clone();
            drop((a, b));
        });
        let mark = alloc_stats();
        for _ in 0..4 {
            ws.scope(|| {
                let a = Tensor::zeros(&[32, 8]);
                let b = a.clone();
                drop((a, b));
            });
        }
        let d = alloc_stats().since(&mark);
        assert_eq!(d.count, 0, "steady state must be allocation-free: {d:?}");
        let stats = ws.stats();
        assert_eq!(stats.misses, 2, "only the warmup pass misses");
        assert_eq!(stats.hits, 8);
        assert_eq!(stats.held_buffers, 2);
    }

    #[test]
    fn pooled_zeros_are_actually_zero() {
        let mut ws = Workspace::new();
        ws.scope(|| {
            let mut t = Tensor::zeros(&[64]);
            t.as_mut_slice().fill(7.5); // dirty the buffer, then park it
            drop(t);
            let u = Tensor::zeros(&[64]);
            assert!(u.as_slice().iter().all(|&v| v == 0.0));
        });
    }

    #[test]
    fn pooled_full_and_clone_are_exact() {
        let mut ws = Workspace::new();
        ws.scope(|| {
            drop(Tensor::zeros(&[10]));
            let f = Tensor::full(&[10], 3.25);
            assert!(f.as_slice().iter().all(|&v| v == 3.25));
            drop(f);
            let src = Tensor::randn(&[10], 1.0, 3);
            let c = src.clone();
            assert_eq!(c, src);
        });
    }

    /// Sizes that move from step to step (a predicted sparse plan) settle
    /// after one buffer per size class: requests of a class, in either
    /// order, fit what the first of them allocated; outside a scope nothing
    /// is rounded.
    #[test]
    fn size_classes_absorb_step_to_step_drift() {
        assert_eq!(fresh_capacity(155_648), 155_648, "no scope, no rounding");
        let mut ws = Workspace::new();
        // 512-row compact activations over 19..=51 active 16-wide blocks.
        let sizes: Vec<usize> = (19..=51).map(|blocks| 512 * 16 * blocks).collect();
        ws.scope(|| {
            for &len in &sizes {
                let cap = fresh_capacity(len);
                assert!(cap >= len && cap <= len + len / 4, "{len} -> {cap}");
                assert_eq!(fresh_capacity(cap), cap, "ceilings are fixed points");
            }
        });
        let mark = alloc_stats();
        ws.scope(|| {
            for &len in &sizes {
                drop(Tensor::zeros(&[len]));
            }
        });
        // Ceilings 20, 24, 28, 32, 40, 48 and 56 blocks: 7 buffers for 33 sizes.
        assert_eq!(alloc_stats().since(&mark).count, 7);
        let mark = alloc_stats();
        ws.scope(|| {
            for &len in sizes.iter().rev() {
                drop(Tensor::zeros(&[len]));
            }
        });
        assert_eq!(alloc_stats().since(&mark).count, 0, "every class was met");
    }

    #[test]
    fn smaller_requests_reuse_larger_buffers() {
        let mut ws = Workspace::new();
        ws.scope(|| drop(Tensor::zeros(&[100])));
        let mark = alloc_stats();
        ws.scope(|| drop(Tensor::zeros(&[40])));
        assert_eq!(alloc_stats().since(&mark).count, 0);
    }

    #[test]
    fn disabled_workspace_always_allocates() {
        let mut ws = Workspace::disabled();
        assert!(ws.disabled);
        ws.scope(|| drop(Tensor::zeros(&[16])));
        let mark = alloc_stats();
        ws.scope(|| drop(Tensor::zeros(&[16])));
        assert_eq!(alloc_stats().since(&mark).count, 1);
        assert_eq!(ws.stats().held_buffers, 0);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let mut outer = Workspace::new();
        let mut inner = Workspace::new();
        outer.scope(|| drop(Tensor::zeros(&[8])));
        assert_eq!(outer.stats().held_buffers, 1);
        outer.scope(|| {
            // The inner scope shadows the outer pool...
            inner.scope(|| drop(Tensor::zeros(&[8])));
            // ...and the outer pool is live again here.
            let t = Tensor::zeros(&[8]);
            drop(t);
        });
        assert_eq!(inner.stats().held_buffers, 1);
        assert_eq!(outer.stats().held_buffers, 1);
        assert_eq!(outer.stats().hits, 1);
    }

    #[test]
    fn buffers_outliving_the_scope_free_normally() {
        let mut ws = Workspace::new();
        let escaped = ws.scope(|| Tensor::zeros(&[12]));
        drop(escaped); // no scope active: plain free, nothing parked
        assert_eq!(ws.stats().held_buffers, 0);
    }

    #[test]
    fn clear_empties_the_pool() {
        let mut ws = Workspace::new();
        ws.scope(|| drop(Tensor::zeros(&[8])));
        assert!(ws.stats().held_bytes > 0);
        ws.clear();
        assert_eq!(ws.stats().held_bytes, 0);
        assert_eq!(ws.stats().held_buffers, 0);
    }
}
