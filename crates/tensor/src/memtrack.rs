//! Global allocation tracker for tensor buffers.
//!
//! Paper Fig. 8 reports fine-tuning memory footprints; we reproduce it by
//! accounting every tensor buffer the engine allocates. Tracking is
//! cooperative (tensors register/unregister themselves) rather than a global
//! allocator hook, which keeps it cheap and lets experiments scope peaks to a
//! region of interest.
//!
//! Two views are maintained:
//!
//! * **Live bytes** ([`current_bytes`] / [`peak_bytes`]): how much buffer
//!   memory tensors hold right now, whatever its provenance.
//! * **Fresh-allocation counters** ([`alloc_stats`]): how many *new* heap
//!   buffers `Tensor`/`Reduced` constructors created, and their bytes.
//!   Buffers recycled through a [`crate::Workspace`] register live bytes but
//!   do **not** advance these counters — which is exactly what makes
//!   "zero heap tensor allocations in a steady-state step" an assertable
//!   property instead of a vibe: snapshot [`alloc_stats`], run the step,
//!   and diff with [`AllocStats::since`].
//!
//! Both views also exist **per thread** ([`thread_live_bytes`] /
//! [`thread_alloc_stats`]): what the calling thread itself registered. The
//! process-wide numbers move whenever any thread allocates, so an exact
//! before/after delta is only meaningful on the thread-scoped view — that is
//! what lets accounting tests assert exact byte counts while sibling tests
//! allocate concurrently.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOC_COUNT: AtomicUsize = AtomicUsize::new(0);
static ALLOC_BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Signed: a buffer may be dropped on a different thread than the one
    // that allocated it.
    static THREAD_LIVE: Cell<isize> = const { Cell::new(0) };
    static THREAD_ALLOCS: Cell<AllocStats> = const { Cell::new(AllocStats { count: 0, bytes: 0 }) };
}

// `try_with`: tensors may be dropped while the thread's locals are being
// torn down; the thread-scoped view simply stops counting then.
fn thread_live_add(delta: isize) {
    let _ = THREAD_LIVE.try_with(|live| live.set(live.get() + delta));
}

/// Register a freshly heap-allocated buffer: live bytes *and* the
/// fresh-allocation counters advance. Zero-byte buffers (empty tensors)
/// never touch the heap, so they don't count as allocations.
pub(crate) fn register(bytes: usize) {
    if bytes > 0 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes, Ordering::Relaxed);
        let _ = THREAD_ALLOCS.try_with(|allocs| {
            let so_far = allocs.get();
            allocs.set(AllocStats {
                count: so_far.count + 1,
                bytes: so_far.bytes + bytes,
            });
        });
    }
    register_reuse(bytes);
}

/// Register a buffer recycled from a workspace pool: live bytes advance but
/// the fresh-allocation counters do not.
pub(crate) fn register_reuse(bytes: usize) {
    let now = CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
    thread_live_add(bytes as isize);
}

pub(crate) fn unregister(bytes: usize) {
    CURRENT.fetch_sub(bytes, Ordering::Relaxed);
    thread_live_add(-(bytes as isize));
}

/// Bytes the calling thread registered minus bytes it unregistered. Only
/// differences are meaningful, and only around work that allocates and
/// frees on this thread.
pub fn thread_live_bytes() -> isize {
    THREAD_LIVE.with(|live| live.get())
}

/// Bytes currently held by live tensors.
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// High-water mark since process start or the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Reset the peak to the current level; returns the old peak.
pub fn reset_peak() -> usize {
    PEAK.swap(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed)
}

/// Cumulative fresh-allocation counters — a resettable mark: snapshot one,
/// do work, and ask [`AllocStats::since`] what was newly heap-allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Fresh buffers `Tensor`/`Reduced` constructors heap-allocated.
    pub count: usize,
    /// Their total bytes (at allocation capacity).
    pub bytes: usize,
}

impl AllocStats {
    /// Allocations between `mark` (an earlier snapshot) and this one.
    pub fn since(&self, mark: &AllocStats) -> AllocStats {
        AllocStats {
            count: self.count - mark.count,
            bytes: self.bytes - mark.bytes,
        }
    }
}

/// Snapshot the cumulative fresh-allocation counters (monotonic since
/// process start). Workspace-recycled buffers never advance them.
pub fn alloc_stats() -> AllocStats {
    AllocStats {
        count: ALLOC_COUNT.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

/// [`alloc_stats`] restricted to buffers the calling thread allocated.
pub fn thread_alloc_stats() -> AllocStats {
    THREAD_ALLOCS.with(|a| a.get())
}

/// Measure the peak tensor memory while `f` runs, in bytes above zero.
/// The global peak is reset on entry, so concurrent measurement regions
/// interfere; experiments run them sequentially.
pub fn measure_peak<R>(f: impl FnOnce() -> R) -> (R, usize) {
    reset_peak();
    let r = f();
    (r, peak_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn tensor_lifecycle_tracks_bytes() {
        let before = thread_live_bytes();
        let t = Tensor::zeros(&[128, 64]);
        assert_eq!(thread_live_bytes() - before, 128 * 64 * 4);
        // The process-wide view holds at least this thread's live buffer.
        assert!(current_bytes() >= 128 * 64 * 4);
        drop(t);
        assert_eq!(thread_live_bytes(), before);
    }

    #[test]
    fn clone_registers_its_own_buffer() {
        let before = thread_live_bytes();
        let t = Tensor::zeros(&[10, 10]);
        let u = t.clone();
        assert_eq!(thread_live_bytes() - before, 2 * 10 * 10 * 4);
        drop(t);
        drop(u);
        assert_eq!(thread_live_bytes(), before);
    }

    #[test]
    fn measure_peak_sees_transient_allocation() {
        let (_, peak) = measure_peak(|| {
            let base = current_bytes();
            let t = Tensor::zeros(&[256, 256]);
            drop(t);
            base
        });
        assert!(peak >= 256 * 256 * 4);
    }

    #[test]
    fn alloc_stats_count_fresh_buffers() {
        let (mark, global_mark) = (thread_alloc_stats(), alloc_stats());
        let t = Tensor::zeros(&[16, 16]);
        let u = t.clone();
        let d = thread_alloc_stats().since(&mark);
        assert_eq!(d.count, 2);
        assert_eq!(d.bytes, 2 * 16 * 16 * 4);
        drop(t);
        drop(u);
        // Dropping frees live bytes but never rewinds the cumulative counters.
        assert_eq!(thread_alloc_stats().since(&mark).count, 2);
        // The process-wide counters saw (at least) the same allocations.
        assert!(alloc_stats().since(&global_mark).count >= 2);
    }
}
