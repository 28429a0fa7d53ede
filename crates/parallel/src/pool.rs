//! The worker pool itself.

use crate::latch::Latch;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

type Task = Box<dyn FnOnce() + Send + 'static>;

std::thread_local! {
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// True while the current thread is executing a pool task — either on a
/// worker thread or on a submitting thread that is helping drain the queue.
/// Kernels use this to fall back to sequential execution instead of
/// oversubscribing the pool with nested parallel sections.
pub fn in_worker() -> bool {
    IN_WORKER.with(|f| f.get())
}

/// Run `task` with the in-worker flag set, restoring the previous value
/// afterwards (nested scopes keep the flag set).
fn run_marked(task: Task) {
    IN_WORKER.with(|f| {
        let prev = f.replace(true);
        task();
        f.set(prev);
    });
}

struct Shared {
    queue: Mutex<VecDeque<Task>>,
    work_available: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn try_pop(&self) -> Option<Task> {
        self.queue.lock().pop_front()
    }
}

/// Fixed-size pool of worker threads executing boxed tasks from a shared
/// queue. Submitting threads that wait on a task group *help* drain the queue,
/// which makes nested parallel sections deadlock-free.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    n_threads: usize,
}

impl ThreadPool {
    /// Create a pool with `n_threads` workers (at least 1).
    pub fn new(n_threads: usize) -> Self {
        let n_threads = n_threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..n_threads)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("lx-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn lx worker thread")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            n_threads,
        }
    }

    /// Number of worker threads (excluding helping submitters).
    pub fn threads(&self) -> usize {
        self.n_threads
    }

    fn push_task(&self, task: Task) {
        self.shared.queue.lock().push_back(task);
        self.shared.work_available.notify_one();
    }

    /// Execute a group of borrowed tasks, blocking (and helping) until all of
    /// them finish. Panics in any task are re-raised here after the whole
    /// group has completed, so the borrowed environment is never observed by
    /// a still-running task.
    pub fn run_scoped<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if tasks.is_empty() {
            return;
        }
        let latch = Arc::new(Latch::new(tasks.len()));
        let panicked = Arc::new(AtomicBool::new(false));
        for task in tasks {
            // SAFETY: `run_scoped` does not return until `latch` reports every
            // task finished, so the `'env` borrows inside `task` strictly
            // outlive its execution. The transmute only erases the lifetime;
            // layout of the fat pointer is unchanged.
            let task: Task =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(task) };
            let latch = latch.clone();
            let panicked = panicked.clone();
            self.push_task(Box::new(move || {
                if std::panic::catch_unwind(AssertUnwindSafe(task)).is_err() {
                    panicked.store(true, Ordering::SeqCst);
                }
                latch.count_down();
            }));
        }
        // Help execute queued tasks while waiting: required for nested scopes.
        while !latch.is_done() {
            if let Some(task) = self.shared.try_pop() {
                run_marked(task);
            } else {
                latch.wait_timeout(Duration::from_micros(200));
            }
        }
        if panicked.load(Ordering::SeqCst) {
            panic!("task in Long Exposure thread pool panicked");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work_available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut queue = shared.queue.lock();
            loop {
                if let Some(task) = queue.pop_front() {
                    break Some(task);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                shared.work_available.wait(&mut queue);
            }
        };
        match task {
            Some(task) => run_marked(task),
            None => return,
        }
    }
}

/// Split `range` into at most `max_parts_per_thread * threads` chunks of at
/// least `grain` items, preserving order.
pub(crate) fn split_range(range: Range<usize>, grain: usize, threads: usize) -> Vec<Range<usize>> {
    let n = range.len();
    // Oversubscribe 2x for load balance between uneven chunks.
    let target_chunks = (threads * 2).max(1);
    let chunk = (n.div_ceil(target_chunks)).max(grain);
    let mut out = Vec::with_capacity(n.div_ceil(chunk));
    let mut start = range.start;
    while start < range.end {
        let end = (start + chunk).min(range.end);
        out.push(start..end);
        start = end;
    }
    out
}

static GLOBAL_POOL: OnceLock<ThreadPool> = OnceLock::new();

/// The pool width an `LX_THREADS` value asks for: a positive integer,
/// surrounding whitespace ignored.
fn parse_threads(raw: &str) -> Option<usize> {
    raw.trim().parse().ok().filter(|&n| n > 0)
}

/// The process-wide pool. Size: `LX_THREADS`, else `available_parallelism`;
/// a value that is not a positive integer warns and falls back, so a typo
/// can't silently un-pin a benchmark.
pub fn pool() -> &'static ThreadPool {
    GLOBAL_POOL.get_or_init(|| {
        let detected = || std::thread::available_parallelism().map_or(1, |n| n.get());
        let n = match std::env::var("LX_THREADS") {
            Ok(raw) => parse_threads(&raw).unwrap_or_else(|| {
                let n = detected();
                eprintln!(
                    "lx-parallel: ignoring LX_THREADS={raw:?} (expected a positive integer); \
                     using {n} threads"
                );
                n
            }),
            Err(_) => detected(),
        };
        ThreadPool::new(n)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lx_threads_values_parse_or_are_rejected() {
        assert_eq!(parse_threads("2"), Some(2));
        assert_eq!(parse_threads(" 2\n"), Some(2));
        for junk in ["0", "abc", "", " ", "-1", "2.0", "2 4"] {
            assert_eq!(parse_threads(junk), None, "{junk:?}");
        }
    }

    #[test]
    fn split_range_covers_exactly() {
        let chunks = split_range(3..1003, 10, 4);
        assert_eq!(chunks.first().unwrap().start, 3);
        assert_eq!(chunks.last().unwrap().end, 1003);
        for pair in chunks.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert!(chunks.iter().all(|c| !c.is_empty()));
    }

    #[test]
    fn split_range_respects_grain() {
        let chunks = split_range(0..100, 40, 8);
        // grain 40 forces at most ceil(100/40)=3 chunks even with 8 threads.
        assert!(chunks.len() <= 3);
        assert!(chunks[..chunks.len() - 1].iter().all(|c| c.len() >= 40));
    }

    #[test]
    fn private_pool_executes_and_shuts_down() {
        let pool = ThreadPool::new(3);
        assert_eq!(pool.threads(), 3);
        let mut data: Vec<usize> = vec![0; 100];
        pool.par_rows(&mut data, 100, 1, 5, |rows, chunk| {
            for (v, i) in chunk.iter_mut().zip(rows) {
                *v = i;
            }
        });
        assert_eq!(data.iter().sum::<usize>(), (0..100).sum::<usize>());
        drop(pool); // must not hang
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let mut data = vec![0u8; 10];
        pool.par_rows(&mut data, 10, 1, 1, |_, chunk| chunk.fill(1));
        assert_eq!(data.iter().map(|&v| v as usize).sum::<usize>(), 10);
    }
}
