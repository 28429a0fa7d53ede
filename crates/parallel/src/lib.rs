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
//! * row-partitioned `par_rows` / `par_weighted` loops that hand each task a
//!   disjoint sub-slice of the output, so results do not depend on which
//!   worker ran which range and experiments are reproducible run-to-run.
//!
//! Helping while waiting makes nested parallel sections safe: a worker that
//! submits a group and waits keeps draining the shared queue, so the pool can
//! never deadlock on its own tasks.

mod latch;
mod pool;
mod rows;

pub use latch::Latch;
pub use pool::{in_worker, pool, ThreadPool};
pub use rows::{par_rows, par_weighted, par_weighted_parts};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Boxed tasks for [`ThreadPool::run_scoped`].
    fn tasks<'a>(n: usize, f: &'a (dyn Fn(usize) + Sync)) -> Vec<Box<dyn FnOnce() + Send + 'a>> {
        (0..n)
            .map(|i| Box::new(move || f(i)) as Box<dyn FnOnce() + Send + 'a>)
            .collect()
    }

    #[test]
    fn run_scoped_runs_every_task_once() {
        let n = 1000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool().run_scoped(tasks(n, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        }));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_parallelism_does_not_deadlock() {
        let total = AtomicUsize::new(0);
        pool().run_scoped(tasks(8, &|_| {
            let mut rows = vec![0u8; 100];
            par_rows(&mut rows, 100, 1, 10, |r, _| {
                total.fetch_add(r.len(), Ordering::Relaxed);
            });
        }));
        assert_eq!(total.load(Ordering::Relaxed), 800);
    }

    #[test]
    #[should_panic(expected = "task in Long Exposure thread pool panicked")]
    fn panics_propagate_to_submitter() {
        pool().run_scoped(tasks(4, &|i| {
            if i == 2 {
                panic!("boom");
            }
        }));
    }

    #[test]
    fn in_worker_flag_tracks_task_execution() {
        assert!(
            !crate::in_worker(),
            "submitting thread outside a task must not report in_worker"
        );
        let saw_worker = AtomicUsize::new(0);
        // Every task runs through the pool (worker thread or help-drain),
        // where the flag must be set.
        pool().run_scoped(tasks(64, &|_| {
            if crate::in_worker() {
                saw_worker.fetch_add(1, Ordering::Relaxed);
            }
        }));
        assert_eq!(
            saw_worker.load(Ordering::Relaxed),
            64,
            "pool tasks must observe in_worker() == true"
        );
        assert!(!crate::in_worker(), "flag must be restored after the scope");
    }
}
