//! The operand-typed GEMM descriptor every backend consumes.
//!
//! One [`GemmOp`] names the whole product `C[m,n] = op(A) · op(B)`: shapes,
//! the f32 `A` view, the [`BOperand`] (whatever storage the weights live in)
//! and a [`Layout`] per side. Storage format and transposition are *data*,
//! not method names, so a new storage format is one `BOperand` variant and a
//! new layout combination is no new API at all.
//!
//! Both operands carry *leading dimensions* (`lda`/`ldb`, in elements), so a
//! caller can point a kernel at a strided window of a larger buffer — a block
//! column of a compact activation matrix, a neuron slab of a weight matrix —
//! without copying. A leading dimension equal to the stored width is the
//! contiguous case.
//!
//! Slice length contract (checked by [`GemmOp::check`]): a matrix view of `r`
//! rows × `c` cols with leading dimension `ld ≥ c` needs at least
//! `(r−1)·ld + c` elements (so views carved out of a larger buffer, whose
//! final row stops at the logical width, are accepted).

use crate::Q4View;

/// How an operand is stored relative to how it is multiplied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layout {
    /// Stored as it is multiplied (`rows × cols` row-major).
    Normal,
    /// Stored transposed (`cols × rows` row-major).
    Transposed,
}

impl Layout {
    /// Stored `(rows, cols)` of an operand multiplied as `rows × cols`.
    fn stored(self, rows: usize, cols: usize) -> (usize, usize) {
        match self {
            Layout::Normal => (rows, cols),
            Layout::Transposed => (cols, rows),
        }
    }
}

/// Storage kind of a B operand — and of a stored tensor buffer: the single
/// source of truth for which formats exist and how many bytes one buffer of
/// each occupies. The tensor layer registers these sizes with its memory
/// tracker and parameter accounting reads them from here, so the two cannot
/// drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// IEEE binary32 — all compute, activations, gradients, optimizer state.
    F32,
    /// IEEE binary16 — frozen-parameter storage.
    F16,
    /// NF4 4-bit normal-float codes, two per byte, one f32 absmax scale per
    /// 64-element block (codec in `lx-quant`).
    Nf4Block,
}

impl Dtype {
    /// Every storage kind, in declaration order (`dtype as usize` indexes it).
    pub(crate) const ALL: [Dtype; 3] = [Dtype::F32, Dtype::F16, Dtype::Nf4Block];

    /// Exact storage bytes for a buffer of `numel` elements, including the
    /// per-block f32 scales of NF4.
    pub const fn bytes_for(self, numel: usize) -> usize {
        match self {
            Dtype::F32 => 4 * numel,
            Dtype::F16 => 2 * numel,
            Dtype::Nf4Block => lx_quant::nibble_bytes(numel) + lx_quant::n_blocks(numel) * 4,
        }
    }

    pub const fn name(self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::F16 => "f16",
            Dtype::Nf4Block => "nf4-block",
        }
    }
}

impl std::fmt::Display for Dtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The B operand of a GEMM, in whatever storage it lives in. `A`, `C` and
/// all accumulation are always f32; every non-f32 variant decodes to f32
/// inside the backend's load/pack stage (an exact conversion), so the result
/// matches decoding B up front and running the f32 product.
#[derive(Clone, Copy, Debug)]
pub enum BOperand<'a> {
    F32(&'a [f32]),
    /// IEEE binary16 bits.
    F16(&'a [u16]),
    /// NF4 codebook nibbles plus per-block scales.
    Q4(Q4View<'a>),
}

impl BOperand<'_> {
    /// Elements in the row-major element space.
    pub fn len(&self) -> usize {
        match self {
            BOperand::F32(b) => b.len(),
            BOperand::F16(b) => b.len(),
            BOperand::Q4(b) => b.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The storage kind.
    pub fn dtype(&self) -> Dtype {
        match self {
            BOperand::F32(_) => Dtype::F32,
            BOperand::F16(_) => Dtype::F16,
            BOperand::Q4(_) => Dtype::Nf4Block,
        }
    }

    /// Decoded f32 value of flat element `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> f32 {
        match self {
            BOperand::F32(b) => b[idx],
            BOperand::F16(b) => crate::half::f16_bits_to_f32(b[idx]),
            BOperand::Q4(b) => b.get(idx),
        }
    }

    /// Decode flat elements `base .. base + out.len()` into `out`: one
    /// [`decode::run`](crate::decode::run) on the
    /// [`active_isa`](crate::active_isa) arm. Every codec decodes
    /// elementwise over flat indices and every arm equals [`get`](Self::get)
    /// bit for bit, so any window is bit-identical to the same elements of
    /// a full decode.
    pub fn decode_into(&self, base: usize, out: &mut [f32]) {
        crate::decode::run(crate::active_isa(), *self, base, out)
    }
}

impl<'a> From<&'a [f32]> for BOperand<'a> {
    fn from(b: &'a [f32]) -> Self {
        BOperand::F32(b)
    }
}

impl<'a> From<&'a [u16]> for BOperand<'a> {
    fn from(b: &'a [u16]) -> Self {
        BOperand::F16(b)
    }
}

impl<'a> From<Q4View<'a>> for BOperand<'a> {
    fn from(b: Q4View<'a>) -> Self {
        BOperand::Q4(b)
    }
}

/// One GEMM: `C[m,n] = op(A)[m,k] · op(B)[k,n] + beta·C`, where `op` is the
/// identity for [`Layout::Normal`] and a transpose for
/// [`Layout::Transposed`] (`A` then stored `k×m`, `B` stored `n×k`).
#[derive(Clone, Copy, Debug)]
pub struct GemmOp<'a> {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub a: &'a [f32],
    pub lda: usize,
    pub a_layout: Layout,
    pub b: BOperand<'a>,
    pub ldb: usize,
    pub b_layout: Layout,
}

impl<'a> GemmOp<'a> {
    /// `A[m,k] · B[k,n]`.
    #[allow(clippy::too_many_arguments)]
    pub fn nn(
        m: usize,
        k: usize,
        n: usize,
        a: &'a [f32],
        lda: usize,
        b: impl Into<BOperand<'a>>,
        ldb: usize,
    ) -> Self {
        GemmOp {
            m,
            k,
            n,
            a,
            lda,
            a_layout: Layout::Normal,
            b: b.into(),
            ldb,
            b_layout: Layout::Normal,
        }
    }

    /// `A[m,k] · B[n,k]ᵀ` — B stored row-major as `n×k`.
    #[allow(clippy::too_many_arguments)]
    pub fn nt(
        m: usize,
        k: usize,
        n: usize,
        a: &'a [f32],
        lda: usize,
        b: impl Into<BOperand<'a>>,
        ldb: usize,
    ) -> Self {
        GemmOp {
            b_layout: Layout::Transposed,
            ..Self::nn(m, k, n, a, lda, b, ldb)
        }
    }

    /// `A[k,m]ᵀ · B[k,n]` — A stored row-major as `k×m`. This is the
    /// gradient-of-weights shape (`dW = Xᵀ·dY`).
    #[allow(clippy::too_many_arguments)]
    pub fn tn(
        m: usize,
        k: usize,
        n: usize,
        a: &'a [f32],
        lda: usize,
        b: impl Into<BOperand<'a>>,
        ldb: usize,
    ) -> Self {
        GemmOp {
            a_layout: Layout::Transposed,
            ..Self::nn(m, k, n, a, lda, b, ldb)
        }
    }

    /// Both operands contiguous: each leading dimension is the stored width.
    pub fn contiguous(
        m: usize,
        k: usize,
        n: usize,
        a: &'a [f32],
        a_layout: Layout,
        b: impl Into<BOperand<'a>>,
        b_layout: Layout,
    ) -> Self {
        let stored_width = |layout, normal: usize, transposed: usize| match layout {
            Layout::Normal => normal.max(1),
            Layout::Transposed => transposed.max(1),
        };
        GemmOp {
            m,
            k,
            n,
            a,
            lda: stored_width(a_layout, k, m),
            a_layout,
            b: b.into(),
            ldb: stored_width(b_layout, n, k),
            b_layout,
        }
    }

    /// Validate the three views against the slice-length contract, and
    /// reject the one unsupported combination: a transposed `A` is the
    /// gradient-of-weights shape, which only ever meets a plain f32 `B`.
    #[track_caller]
    pub(crate) fn check(&self, c_len: usize, ldc: usize) {
        assert!(
            self.a_layout == Layout::Normal
                || (matches!(self.b, BOperand::F32(_)) && self.b_layout == Layout::Normal),
            "gemm: a transposed A requires an f32, non-transposed B"
        );
        let (a_rows, a_cols) = self.a_layout.stored(self.m, self.k);
        let (b_rows, b_cols) = self.b_layout.stored(self.k, self.n);
        check_view(self.a.len(), a_rows, a_cols, self.lda, "gemm: A");
        check_view(self.b.len(), b_rows, b_cols, self.ldb, "gemm: B");
        check_view(c_len, self.m, self.n, ldc, "gemm: C");
    }
}

/// Check a `rows × cols` view with leading dimension `ld`.
#[track_caller]
fn check_view(len: usize, rows: usize, cols: usize, ld: usize, what: &str) {
    assert!(ld >= cols, "{what}: leading dim {ld} < width {cols}");
    if rows == 0 || cols == 0 {
        return;
    }
    let need = (rows - 1) * ld + cols;
    assert!(
        len >= need,
        "{what}: {len} elements < {need} needed for {rows}x{cols} (ld {ld})"
    );
}

/// One task of a [`GemmTable`]: `C[c] (+)= op(A[a]) · op(B[b])`. `a` and `b`
/// are *slots* — positions in the table's distinct-window lists — and `c` is
/// a window index; a window index times the operand's
/// [`stride`](Windows::stride) is an element offset.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GemmTask {
    pub a: u32,
    pub b: u32,
    pub c: u32,
}

/// The offset table of a grouped GEMM — the paper's Dynamic-aware Operator
/// lookup table: which `(A, B, C)` windows each block task multiplies, built
/// **once** per sparse layout and reused by every forward and backward launch
/// over it.
///
/// Tasks are listed in *runs*: the tasks of one run accumulate into the same
/// C window in table order, and different runs write different windows, so
/// runs are the unit work is split by. Distinct A and B windows are numbered
/// in first-use order, which lets a backend pack each of them exactly once
/// and makes "these two tasks read adjacent packed panels" a property of the
/// table alone — never of how a launch was partitioned.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct GemmTable {
    a_windows: Vec<u32>,
    b_windows: Vec<u32>,
    tasks: Vec<GemmTask>,
    runs: Vec<u32>,
    /// Largest A, B and C window index (0 for an empty table).
    max: [u32; 3],
    /// C window indices strictly ascend over the non-empty runs, so the runs'
    /// C regions are sorted in memory whenever they are disjoint.
    c_ascending: bool,
}

impl GemmTable {
    /// Build from `(a, b, c)` window-index triples and the run boundaries
    /// (`runs[r]..runs[r + 1]` are the tasks of run `r`; empty runs are
    /// allowed, so CSR row pointers can be passed as they are). Panics unless
    /// the runs tile the task list and every run shares one C window.
    pub fn new(triples: impl IntoIterator<Item = (u32, u32, u32)>, runs: Vec<u32>) -> Self {
        /// Slot of `window`, appending it to `windows` on first use.
        fn slot(window: u32, slots: &mut Vec<u32>, windows: &mut Vec<u32>) -> u32 {
            let w = window as usize;
            if slots.len() <= w {
                slots.resize(w + 1, u32::MAX);
            }
            if slots[w] == u32::MAX {
                slots[w] = windows.len() as u32;
                windows.push(window);
            }
            slots[w]
        }
        let (mut a_slots, mut b_slots) = (Vec::new(), Vec::new());
        let (mut a_windows, mut b_windows) = (Vec::new(), Vec::new());
        let tasks: Vec<GemmTask> = triples
            .into_iter()
            .map(|(a, b, c)| GemmTask {
                a: slot(a, &mut a_slots, &mut a_windows),
                b: slot(b, &mut b_slots, &mut b_windows),
                c,
            })
            .collect();
        assert!(
            runs.first() == Some(&0) && runs.last().map(|&e| e as usize) == Some(tasks.len()),
            "gemm table: runs must tile the {} tasks",
            tasks.len()
        );
        let (mut c_ascending, mut prev) = (true, None);
        for r in runs.windows(2) {
            assert!(r[0] <= r[1], "gemm table: runs must not decrease");
            let run = &tasks[r[0] as usize..r[1] as usize];
            let Some(first) = run.first() else { continue };
            assert!(
                run.iter().all(|t| t.c == first.c),
                "gemm table: a run must share one C window"
            );
            c_ascending &= prev.is_none_or(|p| p < first.c);
            prev = Some(first.c);
        }
        let max = |windows: &[u32]| windows.iter().copied().max().unwrap_or(0);
        GemmTable {
            max: [
                max(&a_windows),
                max(&b_windows),
                tasks.iter().map(|t| t.c).max().unwrap_or(0),
            ],
            a_windows,
            b_windows,
            tasks,
            runs,
            c_ascending,
        }
    }

    /// Every task its own run: each `(a, b, c)` triple overwrites (or
    /// accumulates into) a C window no other task touches.
    pub fn each(triples: impl IntoIterator<Item = (u32, u32, u32)>) -> Self {
        let triples: Vec<_> = triples.into_iter().collect();
        let runs = (0..=triples.len() as u32).collect();
        Self::new(triples, runs)
    }

    pub fn tasks(&self) -> &[GemmTask] {
        &self.tasks
    }

    /// Run boundaries: a prefix-sum table over task counts.
    pub fn runs(&self) -> &[u32] {
        &self.runs
    }

    /// Window index of each distinct A window, in slot order.
    pub fn a_windows(&self) -> &[u32] {
        &self.a_windows
    }

    /// Window index of each distinct B window, in slot order.
    pub fn b_windows(&self) -> &[u32] {
        &self.b_windows
    }
}

/// A family of equally-shaped windows into one f32 buffer: window `i` starts
/// at element `i · stride` and is read with leading dimension `ld`.
#[derive(Clone, Copy, Debug)]
pub struct Windows<'a> {
    pub data: &'a [f32],
    pub ld: usize,
    pub stride: usize,
    pub layout: Layout,
}

impl<'a> Windows<'a> {
    /// Windows stored as they are multiplied.
    pub fn normal(data: &'a [f32], ld: usize, stride: usize) -> Self {
        Windows {
            data,
            ld,
            stride,
            layout: Layout::Normal,
        }
    }

    /// Windows stored transposed.
    pub fn transposed(data: &'a [f32], ld: usize, stride: usize) -> Self {
        Windows {
            layout: Layout::Transposed,
            ..Self::normal(data, ld, stride)
        }
    }
}

/// A grouped GEMM: every task of `table` is one `m×k×n` product
/// `C[c] = op(A[a]) · op(B[b]) + β·C[c]` over windows of three shared
/// buffers, where `β` is `beta` for the first task of a run and 1 for the
/// rest (a run accumulates). One launch covers a whole block-sparse operator;
/// an empty table is a no-op.
#[derive(Clone, Copy, Debug)]
pub struct GemmGroup<'a> {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub a: Windows<'a>,
    pub b: Windows<'a>,
    /// Leading dimension of every C window.
    pub ldc: usize,
    /// C window `i` starts at element `i · c_stride` of the output buffer.
    pub c_stride: usize,
    pub beta: f32,
    pub table: &'a GemmTable,
}

/// How the C windows of a group lie in the output buffer — what decides how
/// a launch may be split across threads without two of them sharing memory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CShape {
    /// Column windows of one `m`-row matrix: split by rows.
    Columns,
    /// Sorted, non-overlapping regions, one per run: split by runs.
    Regions,
    /// Anything else: not split.
    Other,
}

impl GemmGroup<'_> {
    /// The operand views of one task as a plain [`GemmOp`].
    pub(crate) fn task_op(&self, t: &GemmTask) -> GemmOp<'_> {
        fn window<'w>(w: &Windows<'w>, windows: &[u32], slot: u32) -> &'w [f32] {
            // A degenerate shape may come with empty buffers.
            let off = windows[slot as usize] as usize * w.stride;
            w.data.get(off..).unwrap_or(&[])
        }
        GemmOp {
            m: self.m,
            k: self.k,
            n: self.n,
            a: window(&self.a, self.table.a_windows(), t.a),
            lda: self.a.ld,
            a_layout: self.a.layout,
            b: BOperand::F32(window(&self.b, self.table.b_windows(), t.b)),
            ldb: self.b.ld,
            b_layout: self.b.layout,
        }
    }

    /// Element offset of a task's C window.
    pub(crate) fn c_offset(&self, t: &GemmTask) -> usize {
        t.c as usize * self.c_stride
    }

    /// Elements from the start of a C window to one past its last element.
    pub(crate) fn c_span(&self) -> usize {
        match (self.m, self.n) {
            (0, _) | (_, 0) => 0,
            (m, n) => (m - 1) * self.ldc + n,
        }
    }

    /// Validate every window of a non-empty table against the slice-length
    /// contract — O(1): the table knows its largest window index per operand
    /// — and classify the C windows.
    #[track_caller]
    pub(crate) fn check(&self, c_len: usize) -> CShape {
        let (a_rows, a_cols) = self.a.layout.stored(self.m, self.k);
        let (b_rows, b_cols) = self.b.layout.stored(self.k, self.n);
        let t = self.table;
        let a_off = t.max[0] as usize * self.a.stride;
        let b_off = t.max[1] as usize * self.b.stride;
        let c_off = t.max[2] as usize * self.c_stride;
        let tail = |len: usize, off: usize| len.saturating_sub(off);
        check_view(
            tail(self.a.data.len(), a_off),
            a_rows,
            a_cols,
            self.a.ld,
            "gemm group: A",
        );
        check_view(
            tail(self.b.data.len(), b_off),
            b_rows,
            b_cols,
            self.b.ld,
            "gemm group: B",
        );
        check_view(
            tail(c_len, c_off),
            self.m,
            self.n,
            self.ldc,
            "gemm group: C",
        );
        if c_off + self.n <= self.ldc && c_len <= self.m * self.ldc {
            CShape::Columns
        } else if t.c_ascending && self.c_span() <= self.c_stride {
            CShape::Regions
        } else {
            CShape::Other
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_storage_types() {
        assert_eq!(Dtype::F16.to_string(), "f16");
        assert_eq!(Dtype::Nf4Block.to_string(), "nf4-block");
        for (i, dtype) in Dtype::ALL.into_iter().enumerate() {
            assert_eq!(dtype as usize, i, "{dtype} indexes Dtype::ALL");
        }
    }

    #[test]
    fn bytes_for_counts_codes_and_scales_exactly() {
        assert_eq!(Dtype::F32.bytes_for(10), 40);
        assert_eq!(Dtype::F16.bytes_for(10), 20);
        assert_eq!(Dtype::F32.bytes_for(1), std::mem::size_of::<f32>());
        assert_eq!(Dtype::F16.bytes_for(1), std::mem::size_of::<u16>());
        // 32 packed bytes + 1 scale; odd length rounds the nibbles up.
        assert_eq!(Dtype::Nf4Block.bytes_for(64), 32 + 4);
        assert_eq!(Dtype::Nf4Block.bytes_for(65), 33 + 8);
        assert_eq!(Dtype::Nf4Block.bytes_for(0), 0);
    }

    #[test]
    fn quant_compression_ratios_beat_the_fig8_gates() {
        // The fig8 gate: nf4 ≤ 0.17x of f32 for matrix-sized buffers.
        let n = 256 * 1024;
        let f32b = Dtype::F32.bytes_for(n) as f64;
        assert!(Dtype::Nf4Block.bytes_for(n) as f64 / f32b < 0.15);
    }
}
