//! Safe disjoint-region parallel splitting.
//!
//! Every CPU kernel in this workspace parallelises the same way: tasks write
//! disjoint regions of one output buffer. Before this module each kernel
//! carried its own `SendPtr(*mut f32)` wrapper plus per-task
//! `from_raw_parts_mut` — a dozen copies of the same unsafety. The two
//! helpers here replace all of them with *safe* code: chunks are carved off
//! the output with `split_at_mut` on the submitting thread, so each task owns
//! a real `&mut [T]` and the borrow checker (plus `run_scoped`'s completion
//! guarantee) does the rest. The only remaining audited `unsafe` on this path
//! is the lifetime erasure inside [`ThreadPool::run_scoped`].
//!
//! * [`par_rows`] — uniform stride: `data` is `rows` rows of `row_stride`
//!   elements (the last row may be shorter when the buffer is a strided
//!   window). Tasks get contiguous row *ranges*.
//! * [`par_weighted`] — items of unequal cost described by a prefix-sum
//!   table (CSR row pointers, the run table of a grouped GEMM). Tasks get
//!   contiguous item ranges of roughly equal *weight*, not equal count, so a
//!   causal layout whose last block-rows hold most of the blocks still
//!   splits evenly.

use crate::pool::{pool, split_range, ThreadPool};
use std::ops::Range;

impl ThreadPool {
    /// Parallel loop over the rows of `data` (row length `row_stride`),
    /// handing each task a contiguous row range and the sub-slice covering
    /// exactly those rows. `grain` is the minimum number of rows per task;
    /// smaller inputs run inline on the calling thread.
    ///
    /// `data` must hold at least `(rows-1)·row_stride + 1` and at most
    /// `rows·row_stride` elements, so strided windows whose final row is
    /// shorter than the stride are accepted.
    pub fn par_rows<T, F>(
        &self,
        data: &mut [T],
        rows: usize,
        row_stride: usize,
        grain: usize,
        body: F,
    ) where
        T: Send,
        F: Fn(Range<usize>, &mut [T]) + Sync,
    {
        if rows == 0 {
            return;
        }
        assert!(row_stride > 0, "par_rows: zero row stride");
        assert!(
            data.len() > (rows - 1) * row_stride && data.len() <= rows * row_stride,
            "par_rows: {} elements cannot be {rows} rows of stride {row_stride}",
            data.len()
        );
        let grain = grain.max(1);
        if rows <= grain {
            body(0..rows, data);
            return;
        }
        let chunks = split_range(0..rows, grain, self.threads());
        let body_ref = &body;
        let mut rest = data;
        let mut carved = 0usize;
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(chunks.len());
        let n_chunks = chunks.len();
        for (ci, chunk) in chunks.into_iter().enumerate() {
            let end = if ci + 1 == n_chunks {
                carved + rest.len()
            } else {
                chunk.end * row_stride
            };
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(end - carved);
            carved = end;
            rest = tail;
            tasks.push(Box::new(move || body_ref(chunk, head)));
        }
        self.run_scoped(tasks);
    }

    /// Parallel loop over `prefix.len() - 1` items of unequal weight: item `i`
    /// weighs `prefix[i + 1] - prefix[i]` (a non-decreasing prefix-sum table,
    /// e.g. CSR row pointers). Items are split into contiguous ranges of
    /// roughly equal weight — at least `min_weight` each — and `cover(range)`
    /// names the sub-slice of `data` the items of `range` write; covers of
    /// successive ranges must be ascending and disjoint. Each task receives
    /// its item range and exactly that sub-slice. A total weight of at most
    /// `min_weight` runs inline on the calling thread.
    pub fn par_weighted<T, C, F>(
        &self,
        data: &mut [T],
        prefix: &[u32],
        min_weight: usize,
        cover: C,
        body: F,
    ) where
        T: Send,
        C: Fn(Range<usize>) -> Range<usize>,
        F: Fn(Range<usize>, &mut [T]) + Sync,
    {
        let n = prefix.len().saturating_sub(1);
        if n == 0 {
            return;
        }
        let weight = |items: Range<usize>| (prefix[items.end] - prefix[items.start]) as usize;
        let min_weight = min_weight.max(1);
        let total = weight(0..n);
        if total <= min_weight {
            return body(0..n, &mut data[cover(0..n)]);
        }
        // Oversubscribe 2x like `split_range`: the greedy cut overshoots its
        // target by up to one item, and the spare chunks absorb that.
        let target = total.div_ceil(self.threads() * 2).max(min_weight);
        let body_ref = &body;
        let mut rest = data;
        let mut carved = 0usize;
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        let mut start = 0;
        while start < n {
            let mut end = start + 1;
            while end < n && weight(start..end) < target {
                end += 1;
            }
            // A light tail would be one more dispatch for no balance gain.
            if weight(end..n) < min_weight {
                end = n;
            }
            let span = cover(start..end);
            assert!(
                carved <= span.start && span.start <= span.end,
                "par_weighted: cover of items {start}..{end} overlaps its predecessor"
            );
            let (_, at_base) = std::mem::take(&mut rest).split_at_mut(span.start - carved);
            let (head, tail) = at_base.split_at_mut(span.end - span.start);
            carved = span.end;
            rest = tail;
            let items = start..end;
            tasks.push(Box::new(move || body_ref(items, head)));
            start = end;
        }
        self.run_scoped(tasks);
    }
}

/// [`ThreadPool::par_rows`] on the global pool.
pub fn par_rows<T, F>(data: &mut [T], rows: usize, row_stride: usize, grain: usize, body: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    pool().par_rows(data, rows, row_stride, grain, body)
}

/// [`ThreadPool::par_weighted`] on the global pool.
pub fn par_weighted<T, C, F>(data: &mut [T], prefix: &[u32], min_weight: usize, cover: C, body: F)
where
    T: Send,
    C: Fn(Range<usize>) -> Range<usize>,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    pool().par_weighted(data, prefix, min_weight, cover, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_rows_writes_every_row_once() {
        let (rows, stride) = (97, 13);
        let mut data = vec![0u32; rows * stride];
        par_rows(&mut data, rows, stride, 4, |rng, chunk| {
            for (local, r) in rng.clone().enumerate() {
                for v in &mut chunk[local * stride..(local + 1) * stride] {
                    *v += r as u32 + 1;
                }
            }
        });
        for r in 0..rows {
            for c in 0..stride {
                assert_eq!(data[r * stride + c], r as u32 + 1, "row {r} col {c}");
            }
        }
    }

    #[test]
    fn par_rows_accepts_short_last_row() {
        // A strided window: 4 rows of stride 10 but only 3 valid tail cols.
        let mut data = vec![0u8; 3 * 10 + 3];
        par_rows(&mut data, 4, 10, 1, |rng, chunk| {
            for (local, _) in rng.enumerate() {
                let end = ((local + 1) * 10).min(chunk.len());
                for v in &mut chunk[local * 10..end] {
                    *v += 1;
                }
            }
        });
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn par_rows_small_runs_inline() {
        let mut data = vec![0u8; 8];
        par_rows(&mut data, 2, 4, 16, |rng, chunk| {
            assert_eq!(rng, 0..2);
            assert_eq!(chunk.len(), 8);
            chunk.fill(7);
        });
        assert!(data.iter().all(|&v| v == 7));
    }

    #[test]
    fn par_rows_empty_is_noop() {
        let mut data: Vec<u8> = vec![];
        par_rows(&mut data, 0, 4, 1, |_, _| panic!("must not run"));
    }

    /// Causal-shaped weights (item `i` weighs `i + 1`, owning that many
    /// elements): every element is written once, and no task is handed more
    /// than its fair share plus one item.
    #[test]
    fn par_weighted_balances_by_weight_not_count() {
        let n = 64usize;
        let prefix: Vec<u32> = (0..=n as u32).map(|i| i * (i + 1) / 2).collect();
        let total = prefix[n] as usize;
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let mut data = vec![0u32; total];
            let heaviest = std::sync::atomic::AtomicUsize::new(0);
            let cover = |r: Range<usize>| prefix[r.start] as usize..prefix[r.end] as usize;
            pool.par_weighted(&mut data, &prefix, 1, cover, |items, chunk| {
                assert_eq!(chunk.len(), cover(items.clone()).len());
                heaviest.fetch_max(chunk.len(), std::sync::atomic::Ordering::Relaxed);
                let base = prefix[items.start] as usize;
                for i in items {
                    for v in &mut chunk[prefix[i] as usize - base..prefix[i + 1] as usize - base] {
                        *v += i as u32 + 1;
                    }
                }
            });
            for i in 0..n {
                for v in &data[prefix[i] as usize..prefix[i + 1] as usize] {
                    assert_eq!(*v, i as u32 + 1);
                }
            }
            let fair = total.div_ceil(2 * threads);
            assert!(
                heaviest.into_inner() <= fair + n,
                "{threads} threads: a task got more than its share"
            );
        }
    }

    #[test]
    fn par_weighted_small_or_empty_runs_inline() {
        let mut data = vec![0u8; 6];
        par_weighted(
            &mut data,
            &[0, 2, 2, 6],
            100,
            |_| 0..6,
            |items, chunk| {
                assert_eq!(items, 0..3);
                chunk.fill(1);
            },
        );
        assert!(data.iter().all(|&v| v == 1));
        par_weighted(&mut data, &[], 1, |_| 0..0, |_, _| panic!("must not run"));
        par_weighted(&mut data, &[0], 1, |_| 0..0, |_, _| panic!("must not run"));
    }

    #[test]
    #[should_panic(expected = "overlaps its predecessor")]
    fn par_weighted_rejects_descending_covers() {
        let mut data = vec![0u8; 8];
        // Four unit-weight items whose covers run backwards.
        par_weighted(
            &mut data,
            &[0, 1, 2, 3, 4],
            1,
            |r| 8 - r.end * 2..8 - r.start * 2,
            |_, _| {},
        );
    }
}
