//! Persistent thread-pool substrate used by every Long Exposure CPU kernel.
//!
//! The paper's dynamic-aware operators run on GPUs; this reproduction executes
//! them on a pool of CPU workers. The pool is deliberately simple and
//! predictable rather than work-stealing-clever:
//!
//! * one global pool sized to the machine (`pool()`),
//! * scoped task groups whose borrowed environment is guaranteed to outlive
//!   every task because the submitting thread blocks (and *helps* execute
//!   queued tasks) until its group completes,
//! * deterministic chunked `parallel_for` / `parallel_map` primitives so that
//!   reductions combine partial results in index order and experiments are
//!   reproducible run-to-run.
//!
//! Helping while waiting makes nested parallel sections safe: a worker that
//! submits a group and waits keeps draining the shared queue, so the pool can
//! never deadlock on its own tasks.

mod latch;
mod pool;
mod rows;

pub use latch::Latch;
pub use pool::{in_worker, pool, ThreadPool};
pub use rows::{par_rows, par_weighted};

use std::ops::Range;

/// Run `body` over `range` in parallel chunks on the global pool.
///
/// `grain` is the smallest chunk size worth dispatching; ranges smaller than
/// `grain` run inline on the calling thread. `body` receives disjoint
/// sub-ranges that exactly cover `range`.
pub fn parallel_for<F>(range: Range<usize>, grain: usize, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    pool().parallel_for(range, grain, body);
}

/// Chunked map returning one `R` per chunk, **in chunk order**, so that a
/// subsequent sequential fold is deterministic regardless of which worker ran
/// which chunk.
pub fn parallel_map<R, F>(range: Range<usize>, grain: usize, body: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    pool().parallel_map(range, grain, body)
}

/// Run two closures potentially in parallel and return both results.
pub fn join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    pool().join(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_for_covers_every_index_once() {
        let n = 10_001;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(0..n, 64, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_small_range_runs_inline() {
        let hits = AtomicUsize::new(0);
        parallel_for(0..10, 1024, |r| {
            hits.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn parallel_map_is_in_chunk_order() {
        let out = parallel_map(0..1000, 10, |r| r.start);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(out, sorted, "chunk results must be returned in index order");
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 21 * 2, || "ok");
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
    }

    #[test]
    fn nested_parallelism_does_not_deadlock() {
        let total = AtomicUsize::new(0);
        parallel_for(0..8, 1, |outer| {
            for _ in outer {
                parallel_for(0..100, 10, |inner| {
                    total.fetch_add(inner.len(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 800);
    }

    #[test]
    #[should_panic(expected = "task in Long Exposure thread pool panicked")]
    fn panics_propagate_to_submitter() {
        parallel_for(0..4, 1, |r| {
            if r.start == 2 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn in_worker_flag_tracks_task_execution() {
        assert!(
            !crate::in_worker(),
            "submitting thread outside a task must not report in_worker"
        );
        let saw_worker = AtomicUsize::new(0);
        // Force enough chunks that at least one task runs through the pool
        // (worker thread or help-drain), where the flag must be set.
        parallel_for(0..64, 1, |_r| {
            if crate::in_worker() {
                saw_worker.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(
            saw_worker.load(Ordering::Relaxed) > 0,
            "pool tasks must observe in_worker() == true"
        );
        assert!(!crate::in_worker(), "flag must be restored after the scope");
    }

    #[test]
    fn empty_range_is_a_noop() {
        parallel_for(10..10, 1, |_| panic!("must not be called"));
        let v: Vec<usize> = parallel_map(0..0, 1, |r| r.start);
        assert!(v.is_empty());
    }
}
