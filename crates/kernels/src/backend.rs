//! The [`KernelBackend`] trait and the [`Reference`] scalar backend.

use crate::epilogue::{apply_epilogue, Epilogue};
use crate::op::{BOperand, GemmGroup, GemmOp, Layout};
use lx_parallel::par_rows;

/// Don't fan a GEMM out across the pool unless a task has at least this many
/// fused mul-adds (same constant the original loop kernels used).
pub(crate) const GRAIN_FLOPS: usize = 1 << 16;

pub(crate) fn row_grain(k: usize, n: usize) -> usize {
    (GRAIN_FLOPS / (k * n).max(1)).max(1)
}

/// A family of GEMM kernels sharing one storage convention (row-major with
/// leading dimensions). Implementations must tolerate degenerate shapes
/// (`m`, `k` or `n` of 0) and must scale `C` by `beta` exactly once.
/// `beta == 0.0` means *overwrite*: prior contents of `C` — including NaN —
/// must not leak into the result.
pub trait KernelBackend: Sync {
    /// Short name for dispatch logs and benches.
    fn name(&self) -> &'static str;

    /// `C[m,n] = op(A)·op(B) + beta·C`, then `ep` applied to every element of
    /// the `m×n` output after its complete accumulation — bit-identical to
    /// the plain product followed by standalone bias/activation passes.
    ///
    /// Mixed-precision contract: a non-f32 [`BOperand`] is decoded to f32 (an
    /// exact conversion) inside the load/pack stage and every multiply and
    /// accumulation runs in f32, so the result matches decoding B up front
    /// and running the f32 product on the same backend.
    fn gemm(&self, op: &GemmOp<'_>, c: &mut [f32], ldc: usize, beta: f32, ep: Epilogue<'_>);

    /// Every task of `group` in table order, each `C[c] = op(A[a])·op(B[b]) +
    /// β·C[c]` with `β = group.beta` for the first task of a run and 1 for
    /// the rest. The default is the per-task [`gemm`](Self::gemm) loop — the
    /// oracle a backend that packs shared windows once and splits the runs
    /// across the pool is checked against.
    fn gemm_grouped(&self, group: &GemmGroup<'_>, c: &mut [f32]) {
        per_task(self, group, c)
    }
}

/// The per-task loop behind [`KernelBackend::gemm_grouped`]'s default.
pub(crate) fn per_task<B: KernelBackend + ?Sized>(be: &B, group: &GemmGroup<'_>, c: &mut [f32]) {
    let table = group.table;
    if table.tasks().is_empty() || group.m == 0 || group.n == 0 {
        return;
    }
    group.check(c.len());
    for run in table.runs().windows(2) {
        let tasks = &table.tasks()[run[0] as usize..run[1] as usize];
        for (i, task) in tasks.iter().enumerate() {
            let beta = if i == 0 { group.beta } else { 1.0 };
            let c_win = &mut c[group.c_offset(task)..][..group.c_span()];
            be.gemm(&group.task_op(task), c_win, group.ldc, beta, Epilogue::None);
        }
    }
}

/// `C *= beta` sweep: the whole op when `k == 0`. Parallel across row chunks unless the
/// caller is already inside a pool worker or forced sequential.
pub(crate) fn scale_only(c: &mut [f32], m: usize, n: usize, ldc: usize, beta: f32) {
    if crate::sequential_mode() {
        for i in 0..m {
            scale_row(&mut c[i * ldc..i * ldc + n], beta);
        }
        return;
    }
    par_rows(c, m, ldc, (1 << 14) / n.max(1), |rows, chunk| {
        for i in rows.clone() {
            let local = (i - rows.start) * ldc;
            scale_row(&mut chunk[local..local + n], beta);
        }
    });
}

#[inline]
pub(crate) fn scale_row(row: &mut [f32], beta: f32) {
    if beta == 0.0 {
        row.fill(0.0);
    } else if beta != 1.0 {
        for v in row {
            *v *= beta;
        }
    }
}

#[inline]
fn axpy_row(c: &mut [f32], a: f32, b: &[f32]) {
    debug_assert_eq!(c.len(), b.len());
    for (cv, bv) in c.iter_mut().zip(b.iter()) {
        *cv += a * bv;
    }
}

#[inline]
fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for c in 0..chunks {
        let i = c * 4;
        acc[0] += a[i] * b[i];
        acc[1] += a[i + 1] * b[i + 1];
        acc[2] += a[i + 2] * b[i + 2];
        acc[3] += a[i + 3] * b[i + 3];
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

/// The scalar loop kernels that used to live in `lx-tensor::gemm`, kept
/// verbatim (modulo leading dims) as the correctness oracle of the
/// differential tests and the base column of `kernel_bench`; no runtime path
/// runs them. `i-k-j` order with an A-element
/// broadcast against a contiguous B row, which LLVM auto-vectorises well;
/// rows of C split across the pool with a FLOP-based grain.
pub struct Reference;

impl KernelBackend for Reference {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn gemm(&self, op: &GemmOp<'_>, c: &mut [f32], ldc: usize, beta: f32, ep: Epilogue<'_>) {
        op.check(c.len(), ldc);
        let (m, k, n) = (op.m, op.k, op.n);
        if m == 0 || n == 0 {
            return;
        }
        ep.check(n);
        if k == 0 {
            scale_only(c, m, n, ldc, beta);
            return apply_epilogue(c, m, n, ldc, ep);
        }
        match (op.b, op.a_layout, op.b_layout) {
            (BOperand::F32(b), Layout::Normal, Layout::Normal) => f32_nn(op, b, c, ldc, beta, ep),
            (BOperand::F32(b), Layout::Normal, Layout::Transposed) => {
                f32_nt(op, b, c, ldc, beta, ep)
            }
            // `check` admits a transposed A only against a plain f32 B, and
            // the gradient-of-weights shape never takes a bias or activation
            // fused, so the epilogue runs as a standalone pass.
            (BOperand::F32(b), Layout::Transposed, _) => {
                f32_tn(op, b, c, ldc, beta);
                apply_epilogue(c, m, n, ldc, ep);
            }
            // On-load decode: one B row is decoded to an f32 scratch per
            // k-step (or per output column for the transposed layout), so
            // the full f32 B is never materialised. Per-element accumulation
            // order is identical to the f32 loops, so results match the
            // decode-up-front path bit for bit.
            (_, _, b_layout) => {
                match b_layout {
                    Layout::Normal => decoded_nn(op, c, ldc, beta),
                    Layout::Transposed => decoded_nt(op, c, ldc, beta),
                }
                apply_epilogue(c, m, n, ldc, ep);
            }
        }
    }
}

/// `A·B` on f32 operands. The fused epilogue is applied to each C row right
/// after the row's full k accumulation, inside the same worker task — same
/// element order as the unfused pass, so results are bit-identical.
fn f32_nn(op: &GemmOp<'_>, b: &[f32], c: &mut [f32], ldc: usize, beta: f32, ep: Epilogue<'_>) {
    let (k, n, a, lda, ldb) = (op.k, op.n, op.a, op.lda, op.ldb);
    par_rows(c, op.m, ldc, row_grain(k, n), |rows, chunk| {
        for i in rows.clone() {
            let local = (i - rows.start) * ldc;
            let c_row = &mut chunk[local..local + n];
            scale_row(c_row, beta);
            let a_row = &a[i * lda..i * lda + k];
            for (l, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[l * ldb..l * ldb + n];
                axpy_row(c_row, av, b_row);
            }
            ep.apply_tile(c_row, n, 1, n, 0);
        }
    });
}

/// `A·Bᵀ` on f32 operands (B stored `n×k`); epilogue placement as [`f32_nn`].
fn f32_nt(op: &GemmOp<'_>, b: &[f32], c: &mut [f32], ldc: usize, beta: f32, ep: Epilogue<'_>) {
    let (k, n, a, lda, ldb) = (op.k, op.n, op.a, op.lda, op.ldb);
    par_rows(c, op.m, ldc, row_grain(k, n), |rows, chunk| {
        for i in rows.clone() {
            let local = (i - rows.start) * ldc;
            let c_row = &mut chunk[local..local + n];
            let a_row = &a[i * lda..i * lda + k];
            for (j, cv) in c_row.iter_mut().enumerate() {
                let b_row = &b[j * ldb..j * ldb + k];
                let dot = dot_unrolled(a_row, b_row);
                *cv = if beta == 0.0 { dot } else { beta * *cv + dot };
            }
            ep.apply_tile(c_row, n, 1, n, 0);
        }
    });
}

/// `Aᵀ·B` on f32 operands (A stored `k×m`).
fn f32_tn(op: &GemmOp<'_>, b: &[f32], c: &mut [f32], ldc: usize, beta: f32) {
    let (k, n, a, lda, ldb) = (op.k, op.n, op.a, op.lda, op.ldb);
    par_rows(c, op.m, ldc, row_grain(k, n), |rows, chunk| {
        for i in rows.clone() {
            let local = (i - rows.start) * ldc;
            scale_row(&mut chunk[local..local + n], beta);
        }
        for l in 0..k {
            let b_row = &b[l * ldb..l * ldb + n];
            for i in rows.clone() {
                let av = a[l * lda + i];
                if av == 0.0 {
                    continue;
                }
                let local = (i - rows.start) * ldc;
                axpy_row(&mut chunk[local..local + n], av, b_row);
            }
        }
    });
}

/// The k-outer on-load-decode loop for a non-f32 `B` (stored `k×n`): one
/// `n`-long B row decoded to scratch per k-step and streamed against every A
/// row of the chunk, never materialising the full f32 B. Per-element
/// accumulation order is identical to [`f32_nn`].
fn decoded_nn(op: &GemmOp<'_>, c: &mut [f32], ldc: usize, beta: f32) {
    let (k, n, a, lda) = (op.k, op.n, op.a, op.lda);
    par_rows(c, op.m, ldc, row_grain(k, n), |rows, chunk| {
        for i in rows.clone() {
            let local = (i - rows.start) * ldc;
            scale_row(&mut chunk[local..local + n], beta);
        }
        let mut b_row = vec![0.0f32; n];
        for l in 0..k {
            op.b.decode_into(l * op.ldb, &mut b_row);
            for i in rows.clone() {
                let av = a[i * lda + l];
                if av == 0.0 {
                    continue;
                }
                let local = (i - rows.start) * ldc;
                axpy_row(&mut chunk[local..local + n], av, &b_row);
            }
        }
    });
}

/// The `nt` twin of [`decoded_nn`] (B stored `n×k`): one `k`-long B row
/// decoded per output column, dotted against every A row of the chunk.
fn decoded_nt(op: &GemmOp<'_>, c: &mut [f32], ldc: usize, beta: f32) {
    let (k, n, a, lda) = (op.k, op.n, op.a, op.lda);
    par_rows(c, op.m, ldc, row_grain(k, n), |rows, chunk| {
        let mut b_row = vec![0.0f32; k];
        for j in 0..n {
            op.b.decode_into(j * op.ldb, &mut b_row);
            for i in rows.clone() {
                let a_row = &a[i * lda..i * lda + k];
                let dot = dot_unrolled(a_row, &b_row);
                let cv = &mut chunk[(i - rows.start) * ldc + j];
                *cv = if beta == 0.0 { dot } else { beta * *cv + dot };
            }
        }
    });
}
