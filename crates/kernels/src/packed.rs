//! The [`Packed`] backend: panel-packed GEMM microkernels behind one
//! macro-kernel, the grouped launch.
//!
//! Every product runs as a launch over an offset table of block tasks
//! ([`GemmTable`]): a sparse operator's table lists its blocks, and a plain
//! [`KernelBackend::gemm`] is a launch of one task. Every launch is staged
//! ([`Packed::stage`], [`Staged`]) — its tile picked and B̃ packed — and then
//! run; only `k` is blocked:
//!
//! ```text
//!   stage: pack each distinct shared B window → B̃, whole depth
//!          (KC-deep segments of NR-wide column panels)
//!   parallel over C row chunks (or runs of tasks):   // one section
//!     for pc in steps of KC over k:                  // K block
//!       for each run, its tasks in table order:
//!         pack a shared A window → Ã once per thread (MR-tall row panels),
//!           or read an A window one task uses where it lies
//!         for jr, ir over NR/MR panels:
//!           microkernel: C[MR×NR] (+)= Ã-panel · B̃-panel
//!       (last k-block: add each run's bias to its finished C rows)
//! ```
//!
//! * The microkernel keeps an `MR×NR` register tile of C accumulators and
//!   streams one `MR` column of Ã against one `NR` row of B̃ per k-step —
//!   explicit FMA-friendly inner loops. The register-tile shape follows the
//!   active [`Isa`] arm (6×16 scalar/AVX2/NEON; 14×32 or 16×16 AVX-512,
//!   whichever [`pick_tile`] finds cheaper for the task shape), and packing
//!   geometry follows the tile so each kernel sees panels of its own width.
//!   There is one microkernel family: it reads each operand through a
//!   [`Src`], which is a packed panel here and an operand's own strides
//!   where it is read in place. NEON runs the portable fused definition
//!   (`f32::mul_add`), not hand-written intrinsics.
//! * Packing absorbs both operands' [`Layout`]s: every combination feeds the
//!   *same* microkernel, only the pack routines index differently. Edge tiles
//!   are zero-padded in the packed buffers, so the microkernel never branches
//!   on shape; write-back clamps to the valid region.
//! * Packing is also where reduced storage turns into f32 ([`fill_panel`]),
//!   so the microkernel and all accumulation stay f32 whatever the storage —
//!   the BLIS-style mixed-precision scheme: an f16 or NF4 B costs one decode
//!   during the O(k·n) pack, not one per O(m·k·n) FLOP. It decodes a run at
//!   a time through the active arm's [`decode::run`]: one run per k-row of a
//!   Normal panel, straight into it; one run per column of a Transposed
//!   panel, into a stack scratch and from there strided into the panel. f32
//!   B is copied element by element.
//! * Only what is reused is packed. B̃ holds each distinct B window once —
//!   packed in parallel across panel chunks when the pool is available —
//!   and is shared read-only by every row task: the "B-panel reuse across A
//!   rows" that makes the kernel bandwidth-friendly. f32 B rows a whole
//!   number of register tiles wide are read in place instead, and so is
//!   every A window one task reads — a plain product's whole A.
//! * C row chunks (or runs of tasks) are worker-disjoint (`par_rows` /
//!   `par_weighted` split_at_mut carving), so one big GEMM saturates all
//!   `LX_THREADS` workers. Nested calls (a GEMM issued from inside a pool
//!   worker) detect [`lx_parallel::in_worker`] via [`crate::sequential_mode`]
//!   and run the whole launch on the calling thread instead of
//!   oversubscribing the pool.
//! * `beta` folds into the first k-block's write-back ([`WriteBack`]), and
//!   each run's bias window ([`GemmGroup::bias`]) is added to the run's rows
//!   right after their **final** k-block, on the worker that computed them
//!   — i.e. after the complete `beta·C + ΣA·B` sum, in the same element order
//!   as a separate scale pass before and a bias pass after — so results are
//!   bit-identical to those passes while their read-modify-write sweeps over
//!   C disappear. A plain product's bias is the bias of its one run.
//!
//! A caller can also stage a launch itself and compute its runs piecemeal on
//! its own workers ([`Staged::run`]) — how the attention core interleaves
//! score products, softmax and context products per block-row. Such a run
//! reads every A window in place, also from a slice the caller has just
//! written ([`Staged::run_over`]).
//!
//! Pack buffers are thread-local and reused across calls, so steady-state
//! GEMMs allocate nothing.

use crate::backend::{add_bias, scale_row, KernelBackend, GRAIN_FLOPS};
use crate::decode;
use crate::dispatch::tiles;
use crate::isa::{active_isa, Isa};
use crate::op::{BOperand, Bias, CShape, GemmGroup, GemmOp, GemmTable, GemmTask, Layout, Windows};
use lx_obs::{registry, Counter};
use lx_parallel::ThreadPool;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Arc, LazyLock, OnceLock};

/// Register tile height of the 6×16 arms (scalar/AVX2/NEON); also the unit
/// the cache-model rounds MC to. The AVX-512 arm uses its own 14×32 tile.
pub const MR: usize = 6;
/// Register tile width of the 6×16 arms; see [`MR`].
pub const NR: usize = 16;

/// Fill one `nr`-wide B̃ panel: `dst[p·nr + j]` = B(p, j) for `p < kc`,
/// `j < width`, counted from the element at flat index `at` of B stored in
/// `layout`; lanes past `width` are left as they are. An f32 B is copied a
/// k-row at a time, or transposed 16 × 16 at a time; reduced storage is
/// decoded in runs on arm `isa` — straight into the panel's k-rows, or into
/// 16 column runs that are then transposed the same way. Decoder indices
/// are buffer-relative, never panel- or window-relative, so NF4 resolves its
/// block scales under any `ldb` and any window offset.
#[allow(clippy::too_many_arguments)]
fn fill_panel(
    isa: Isa,
    b: BOperand<'_>,
    layout: Layout,
    dst: &mut [f32],
    ldb: usize,
    at: usize,
    kc: usize,
    width: usize,
    nr: usize,
) {
    match (b, layout) {
        (BOperand::F32(b), Layout::Normal) => {
            for p in 0..kc {
                let (src, row) = (&b[at + p * ldb..][..width], &mut dst[p * nr..][..width]);
                // An inline loop: a k-row is a register tile wide, too short
                // to pay a `memcpy` call.
                for (d, &v) in row.iter_mut().zip(src) {
                    *d = v;
                }
            }
        }
        (BOperand::F32(b), Layout::Transposed) => {
            transpose_into(|j| &b[at + j * ldb..][..kc], dst, kc, width, nr)
        }
        (_, Layout::Normal) => {
            for p in 0..kc {
                let row = &mut dst[p * nr..p * nr + width];
                decode::run(isa, b, at + p * ldb, row);
            }
        }
        (_, Layout::Transposed) => {
            // The default k-block depth: one run per column at the default
            // tiling.
            const RUN: usize = 256;
            let mut runs = vec![[0.0f32; RUN]; TRANSPOSE];
            for j0 in (0..width).step_by(TRANSPOSE) {
                let cols = TRANSPOSE.min(width - j0);
                for p0 in (0..kc).step_by(RUN) {
                    let len = RUN.min(kc - p0);
                    for (j, run) in runs.iter_mut().enumerate().take(cols) {
                        decode::run(isa, b, at + (j0 + j) * ldb + p0, &mut run[..len]);
                    }
                    let dst = &mut dst[p0 * nr + j0..];
                    transpose_into(|j| &runs[j][..len], dst, len, cols, nr);
                }
            }
        }
    }
}

/// Columns and k-steps one transposing fill moves per block.
const TRANSPOSE: usize = 16;

/// `dst[p·nr + j] = col(j)[p]` for `p < kc`, `j < width`, where `col(j)` is
/// the `kc` values of column `j`: blocks of 16 × 16 go through a stack tile,
/// so every load and every store is a contiguous run rather than one
/// element `nr` apart from the next.
fn transpose_into<'c>(
    col: impl Fn(usize) -> &'c [f32],
    dst: &mut [f32],
    kc: usize,
    width: usize,
    nr: usize,
) {
    const T: usize = TRANSPOSE;
    let mut tile = [[0.0f32; T]; T];
    for j0 in (0..width).step_by(T) {
        let cols = T.min(width - j0);
        for p0 in (0..kc).step_by(T) {
            let steps = T.min(kc - p0);
            if cols == T && steps == T {
                // A whole block: fixed-size moves the compiler keeps inline.
                for (j, row) in tile.iter_mut().enumerate() {
                    *row = *col(j0 + j)[p0..].first_chunk::<T>().expect("a whole block");
                }
                for (p, out) in dst[p0 * nr + j0..].chunks_mut(nr).take(T).enumerate() {
                    let out: &mut [f32; T] = out.first_chunk_mut().expect("a whole block");
                    *out = std::array::from_fn(|j| tile[j][p]);
                }
                continue;
            }
            for (j, row) in tile.iter_mut().enumerate().take(cols) {
                row[..steps].copy_from_slice(&col(j0 + j)[p0..p0 + steps]);
            }
            for p in 0..steps {
                let out = &mut dst[(p0 + p) * nr + j0..][..cols];
                for (j, o) in out.iter_mut().enumerate() {
                    *o = tile[j][p];
                }
            }
        }
    }
}

thread_local! {
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// B̃ buffers this thread is not using right now: a stage takes one and
    /// returns it when it is dropped.
    static PACK_B: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    /// Which A slots of a grouped launch this thread has packed so far.
    static PACKED_SLOTS: RefCell<Vec<bool>> = const { RefCell::new(Vec::new()) };
}

/// One `mr`-tall Ã panel: `dst[p·mr + i]` = A(i0 + i, pc + p) for
/// `i < height`; rows past `height` are left as they are (the caller zeroes
/// them).
#[allow(clippy::too_many_arguments)]
fn pack_a_panel(
    dst: &mut [f32],
    a: &[f32],
    lda: usize,
    layout: Layout,
    i0: usize,
    height: usize,
    pc: usize,
    kc: usize,
    mr: usize,
) {
    match layout {
        Layout::Normal => {
            for i in 0..height {
                let src = &a[(i0 + i) * lda + pc..];
                for p in 0..kc {
                    dst[p * mr + i] = src[p];
                }
            }
        }
        Layout::Transposed => {
            for p in 0..kc {
                let src = &a[(pc + p) * lda + i0..];
                dst[p * mr..p * mr + height].copy_from_slice(&src[..height]);
            }
        }
    }
}

/// How a microkernel call folds its register tile `acc` into C. Folding the
/// `beta` scale into the first k-block's write-back replaces a separate pass
/// over C and rounds exactly as that pass did: every C element is still
/// `beta·C` (or nothing) plus one complete FMA chain that started from `+0`.
#[derive(Clone, Copy, PartialEq, Debug)]
enum WriteBack {
    /// `C += acc`: `beta = 1`, and every k-block after the first.
    Add,
    /// `C = acc`: `beta = 0` — prior C, NaN included, is never read. A chain
    /// from `+0` never ends at `-0`, so this equals `0 + acc`.
    Set,
    /// `C = beta·C + acc`, a separate multiply and add.
    Scale(f32),
}

impl WriteBack {
    /// The write-back of k-block `pc` under `beta`: only the first block
    /// sees `beta`.
    fn at(pc: usize, beta: f32) -> Self {
        if pc > 0 || beta == 1.0 {
            WriteBack::Add
        } else if beta == 0.0 {
            WriteBack::Set
        } else {
            WriteBack::Scale(beta)
        }
    }

    #[inline(always)]
    fn apply(self, c: f32, acc: f32) -> f32 {
        match self {
            WriteBack::Add => c + acc,
            WriteBack::Set => acc,
            WriteBack::Scale(beta) => c * beta + acc,
        }
    }
}

/// Fold a spilled `rows × nr` register tile (row stride `ld`) into C.
///
/// # Safety
/// `c` must be valid for `rows` rows × `nr` cols at stride `ldc`.
#[inline(always)]
unsafe fn write_back_spilled(
    tmp: &[f32],
    ld: usize,
    c: *mut f32,
    ldc: usize,
    rows: usize,
    nr: usize,
    wb: WriteBack,
) {
    for i in 0..rows {
        for j in 0..nr {
            let cp = c.add(i * ldc + j);
            *cp = wb.apply(*cp, tmp[i * ld + j]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The AVX2+FMA 6×16 microkernel. `unsafe` here is confined to
    //! intrinsics plus the raw pointer arithmetic the caller has already
    //! bounds-checked; it is only reachable when
    //! [`Isa::Avx2`](crate::Isa::Avx2) passed its runtime support probe.
    use super::{write_back_spilled, Src, WriteBack, MR, NR};
    use std::arch::x86_64::*;

    /// `C = wb(C, acc)` for one row of two 8-lane halves, full width.
    #[inline(always)]
    unsafe fn store_row(cp: *mut f32, lanes: &[__m256; 2], wb: WriteBack) {
        for (h, &acc) in lanes.iter().enumerate() {
            let p = cp.add(8 * h);
            let out = match wb {
                WriteBack::Add => _mm256_add_ps(_mm256_loadu_ps(p), acc),
                WriteBack::Set => acc,
                WriteBack::Scale(beta) => {
                    _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(p), _mm256_set1_ps(beta)), acc)
                }
            };
            _mm256_storeu_ps(p, out);
        }
    }

    /// Fold `acc` into the `rows × nr` tile at `c`.
    #[inline(always)]
    unsafe fn write_back(
        acc: &[[__m256; 2]],
        c: *mut f32,
        ldc: usize,
        rows: usize,
        nr: usize,
        wb: WriteBack,
    ) {
        if nr == NR {
            // Full-width tile (any height): vector write-back of the valid
            // rows.
            for (i, lanes) in acc.iter().enumerate().take(rows) {
                store_row(c.add(i * ldc), lanes, wb);
            }
        } else {
            // Narrow edge tile: spill the register tile and clamp the
            // write-back.
            let mut tmp = [0.0f32; MR * NR];
            for (i, lanes) in acc.iter().enumerate() {
                _mm256_storeu_ps(tmp.as_mut_ptr().add(i * NR), lanes[0]);
                _mm256_storeu_ps(tmp.as_mut_ptr().add(i * NR + 8), lanes[1]);
            }
            write_back_spilled(&tmp, NR, c, ldc, rows, nr, wb);
        }
    }

    /// `M` rows × 16 columns, A and B read wherever `a` / `b` point (see
    /// [`Src`]). Up to 6 rows × two 8-lane halves = 12 ymm accumulators,
    /// leaving room for the two B loads and the A broadcast.
    ///
    /// # Safety
    /// Requires AVX2+FMA; the [`Src`] contract for `a` (`M` rows) and `b`
    /// (16 columns) over `depth` segments of `kc` k-steps; `c` valid for `M`
    /// rows × `nr` cols at stride `ldc`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn strided<const M: usize>(
        depth: usize,
        kc: usize,
        a: Src<'_>,
        b: Src<'_>,
        c: *mut f32,
        ldc: usize,
        nr: usize,
        wb: WriteBack,
    ) {
        let mut acc = [[_mm256_setzero_ps(); 2]; M];
        for s in 0..depth {
            let (mut ap, mut bp) = (a.seg(s), b.seg(s));
            for _ in 0..kc {
                let b0 = _mm256_loadu_ps(bp);
                let b1 = _mm256_loadu_ps(bp.add(8));
                for (i, lanes) in acc.iter_mut().enumerate() {
                    let av = _mm256_broadcast_ss(&*ap.add(i * a.xs));
                    lanes[0] = _mm256_fmadd_ps(av, b0, lanes[0]);
                    lanes[1] = _mm256_fmadd_ps(av, b1, lanes[1]);
                }
                ap = ap.add(a.ks);
                bp = bp.add(b.ks);
            }
        }
        write_back(&acc, c, ldc, M, nr, wb);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! AVX-512F microkernels: the 14×32 tile (14 rows × two zmm halves = 28
    //! of the 32 zmm registers hold C, leaving the two B loads and the A
    //! broadcast) and the 16×16 one-zmm-per-row tile a 16-row block fills
    //! exactly. Only reachable when [`Isa::Avx512`](crate::Isa::Avx512)
    //! passed its runtime support probe.
    use super::{Src, WriteBack};
    use std::arch::x86_64::*;

    /// Fold `acc` (`V` zmm per row) into the `acc.len() × nr` tile at `c`;
    /// lanes past `nr` are masked off, so C is never touched beyond it.
    #[inline(always)]
    unsafe fn write_back<const V: usize>(
        acc: &[[__m512; V]],
        c: *mut f32,
        ldc: usize,
        nr: usize,
        wb: WriteBack,
    ) {
        for (i, lanes) in acc.iter().enumerate() {
            let row = c.add(i * ldc);
            for (v, &x) in lanes.iter().enumerate() {
                let left = nr.saturating_sub(16 * v);
                if left == 0 {
                    break;
                }
                let mask: __mmask16 = if left >= 16 { !0 } else { (1 << left) - 1 };
                let cp = row.add(16 * v);
                let out = match wb {
                    WriteBack::Add => _mm512_add_ps(_mm512_maskz_loadu_ps(mask, cp), x),
                    WriteBack::Set => x,
                    WriteBack::Scale(beta) => _mm512_add_ps(
                        _mm512_mul_ps(_mm512_maskz_loadu_ps(mask, cp), _mm512_set1_ps(beta)),
                        x,
                    ),
                };
                _mm512_mask_storeu_ps(cp, mask, out);
            }
        }
    }

    /// `M` rows × `16·V` columns read through [`Src`]: `V = 2` is the
    /// strided 14×32 tile, `V = 1` the 16×16 one.
    ///
    /// # Safety
    /// Requires AVX-512F; the [`Src`] contract for `a` (`M` rows) and `b`
    /// (`16·V` columns) over `depth` segments of `kc` k-steps; `c` valid for
    /// `M` rows × `nr` cols at stride `ldc`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn strided<const M: usize, const V: usize>(
        depth: usize,
        kc: usize,
        a: Src<'_>,
        b: Src<'_>,
        c: *mut f32,
        ldc: usize,
        nr: usize,
        wb: WriteBack,
    ) {
        let mut acc = [[_mm512_setzero_ps(); V]; M];
        for s in 0..depth {
            let (mut ap, mut bp) = (a.seg(s), b.seg(s));
            for _ in 0..kc {
                let mut bv = [_mm512_setzero_ps(); V];
                for (v, x) in bv.iter_mut().enumerate() {
                    *x = _mm512_loadu_ps(bp.add(16 * v));
                }
                for (i, lanes) in acc.iter_mut().enumerate() {
                    let av = _mm512_set1_ps(*ap.add(i * a.xs));
                    for (l, &x) in lanes.iter_mut().zip(&bv) {
                        *l = _mm512_fmadd_ps(av, x, *l);
                    }
                }
                ap = ap.add(a.ks);
                bp = bp.add(b.ks);
            }
        }
        write_back(&acc, c, ldc, nr, wb);
    }
}

/// Where a strided microkernel reads one operand: element `x` — a row of A,
/// a column of B — at k-step `p` of segment `s` is
/// `ptr[segs.at(s) + p·ks + x·xs]`. A packed panel is `ks = tile width`,
/// `xs = 1`; an f32 window read in place is its own strides. B always has
/// `xs = 1` and a full register-tile width of readable columns (a packed,
/// zero-padded panel or a full-width window); A is read only for the rows a
/// call computes.
#[derive(Clone, Copy)]
struct Src<'a> {
    ptr: *const f32,
    ks: usize,
    xs: usize,
    segs: Segs<'a>,
}

/// Where the segments of a K-merged call start (a run of tasks over
/// consecutive slots, accumulated as one chain).
#[derive(Clone, Copy)]
enum Segs<'a> {
    /// Segment `s` starts `s·step` elements on: consecutive packed panels.
    Step(usize),
    /// Segment `s` is window `windows[s]`, `stride` elements each.
    Windows(&'a [u32], usize),
}

impl Src<'_> {
    /// First element of segment `s`. The offset is added with wrapping
    /// arithmetic: a pointer may be counted from before the slice it reads
    /// (a staged run's A, counted from element 0 of the group's buffer) as
    /// long as every segment lands inside it.
    ///
    /// # Safety
    /// The segment must lie inside the allocation it is read from.
    #[inline(always)]
    unsafe fn seg(&self, s: usize) -> *const f32 {
        let off = match self.segs {
            Segs::Step(step) => s * step,
            Segs::Windows(windows, stride) => windows[s] as usize * stride,
        };
        self.ptr.wrapping_add(off)
    }
}

impl<'a> Src<'a> {
    /// A packed panel `width` elements wide per k-step (an `mr`-tall Ã
    /// panel, an `nr`-wide B̃ one), whose segments follow each other `step`
    /// elements apart.
    fn panel(panel: &'a [f32], width: usize, step: usize) -> Self {
        Src {
            ptr: panel.as_ptr(),
            ks: width,
            xs: 1,
            segs: Segs::Step(step),
        }
    }
}

/// A register-tile geometry of the microkernels, all of which read through
/// [`Src`]. Every launch runs the one [`pick_tile`] chooses for its task
/// shape from the tiles of its arm ([`Tile::of`]). Private: the public arm
/// stays [`Isa`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tile {
    /// 6×16, `s += a·b` per k-step: the scalar arm's definition.
    Scalar,
    /// 6×16, one fused multiply-add per k-step: the portable FMA definition
    /// the NEON arm runs (`f32::mul_add` is one instruction there).
    Fused,
    /// AVX2 6×16.
    Avx2,
    /// AVX-512 14×32.
    Avx512,
    /// AVX-512 16×16, one zmm per row.
    Avx512x16,
}

impl Tile {
    /// `(rows, columns)` of the register tile.
    fn shape(self) -> (usize, usize) {
        match self {
            Tile::Avx512 => (14, 32),
            Tile::Avx512x16 => (16, 16),
            _ => (MR, NR),
        }
    }

    /// The tiles arm `isa` runs; the first has the arm's shape,
    /// [`Isa::tile`].
    fn of(isa: Isa) -> &'static [Tile] {
        match isa {
            Isa::Scalar => &[Tile::Scalar],
            Isa::Avx2 => &[Tile::Avx2],
            Isa::Avx512 => &[Tile::Avx512, Tile::Avx512x16],
            Isa::Neon => &[Tile::Fused],
        }
    }

    /// Vector instructions per k-step of one register tile: an FMA per
    /// accumulator plus a load per B vector and per A broadcast.
    fn instructions(self) -> usize {
        let (mr, nr) = self.shape();
        let vectors = nr
            / if matches!(self, Tile::Avx512 | Tile::Avx512x16) {
                16
            } else {
                8
            };
        mr * vectors + mr + vectors
    }
}

/// The register tile an `m×n` product with strided operands runs: of the
/// tiles arm `isa` runs, the one that issues the fewest vector instructions
/// per k-step over the product padded to it. A 16×16 score block fills the
/// 16×16 tile exactly but wastes most of the 14×32 one, a 512-row product
/// is the other way round. `None` means the [`active_isa`], and on an
/// AVX-512 host also offers the AVX2 tile; an explicit arm is held to its
/// own tiles. The FMA tiles agree bit for bit (every C element is one fused
/// multiply-add chain over `k` in each), so the choice never shows in the
/// result.
fn pick_tile(isa: Option<Isa>, m: usize, n: usize) -> Tile {
    let cost = |t: &&Tile| {
        let (mr, nr) = t.shape();
        m.div_ceil(mr) * n.div_ceil(nr) * t.instructions()
    };
    let avx2 = (isa.is_none() && active_isa() == Isa::Avx512 && Isa::Avx2.supported())
        .then_some(&Tile::Avx2);
    *Tile::of(isa.unwrap_or_else(active_isa))
        .iter()
        .chain(avx2)
        .min_by_key(cost)
        .expect("every arm has a tile")
}

/// The portable strided kernel: `M` rows × 16 columns, `FUSED` choosing
/// `mul_add` (NEON's definition) or a separate multiply and add (the scalar
/// arm's).
///
/// # Safety
/// The [`Src`] contract for `a` (`M` rows) and `b` (16 columns) over `depth`
/// segments of `kc` k-steps; `c` valid for `M` rows × `nr` cols at `ldc`.
#[allow(clippy::too_many_arguments)]
unsafe fn strided_portable<const M: usize, const FUSED: bool>(
    depth: usize,
    kc: usize,
    a: Src<'_>,
    b: Src<'_>,
    c: *mut f32,
    ldc: usize,
    nr: usize,
    wb: WriteBack,
) {
    let mut acc = [[0.0f32; NR]; M];
    for s in 0..depth {
        let (mut ap, mut bp) = (a.seg(s), b.seg(s));
        for _ in 0..kc {
            let b_row = &*(bp as *const [f32; NR]);
            for (i, accs) in acc.iter_mut().enumerate() {
                let av = *ap.add(i * a.xs);
                for (s, &bv) in accs.iter_mut().zip(b_row) {
                    *s = if FUSED {
                        av.mul_add(bv, *s)
                    } else {
                        *s + av * bv
                    };
                }
            }
            ap = ap.add(a.ks);
            bp = bp.add(b.ks);
        }
    }
    write_back_spilled(acc.as_flattened(), NR, c, ldc, M, nr, wb);
}

/// One strided register tile: `mr` rows × `nr` columns of C folded with
/// `wb` over `depth` segments of `kc` k-steps (see [`Src`]). `tile` has
/// passed its arm's runtime probe and `mr`, `nr` fit its shape.
#[allow(clippy::too_many_arguments)]
fn strided(
    tile: Tile,
    depth: usize,
    kc: usize,
    a: Src<'_>,
    b: Src<'_>,
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
    wb: WriteBack,
) {
    let (tmr, tnr) = tile.shape();
    assert!(mr > 0 && mr <= tmr && nr > 0 && nr <= tnr);
    assert!(c.len() >= (mr - 1) * ldc + nr);
    let c = c.as_mut_ptr();
    macro_rules! rows {
        ($f:ident; $($m:literal)*) => {
            match mr {
                $($m => $f::<$m>(depth, kc, a, b, c, ldc, nr, wb),)*
                _ => unreachable!(),
            }
        };
        ($f:ident, $g:tt; $($m:literal)*) => {
            match mr {
                $($m => $f::<$m, $g>(depth, kc, a, b, c, ldc, nr, wb),)*
                _ => unreachable!(),
            }
        };
    }
    // SAFETY: the tile's arm passed its runtime probe (`pick_tile` offers
    // only the active arm's tiles, `gemm_grouped_on` asserts an explicit
    // arm); the callers build `a` and `b` from checked views under the
    // `Src` contract, and `c` was checked above.
    unsafe {
        match tile {
            Tile::Scalar => rows!(strided_portable, false; 1 2 3 4 5 6),
            Tile::Fused => rows!(strided_portable, true; 1 2 3 4 5 6),
            #[cfg(target_arch = "x86_64")]
            Tile::Avx2 => {
                use avx2::strided as k;
                rows!(k; 1 2 3 4 5 6)
            }
            #[cfg(target_arch = "x86_64")]
            Tile::Avx512 => {
                use avx512::strided as k;
                rows!(k, 2; 1 2 3 4 5 6 7 8 9 10 11 12 13 14)
            }
            #[cfg(target_arch = "x86_64")]
            Tile::Avx512x16 => {
                use avx512::strided as k;
                rows!(k, 1; 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("x86 tile on another architecture"),
        }
    }
}

/// The packed backend. The k-block depth `KC` is read from the global
/// [`KernelPolicy`](crate::KernelPolicy) at call time, so an installed policy
/// takes effect immediately; the microkernel arm follows [`active_isa`].
pub struct Packed;

/// Which operand a pack copies.
#[derive(Clone, Copy)]
enum Operand {
    A,
    B,
}

/// `kernel.gemm.packed{operand}`: elements copied into packed panels, so a
/// trace shows which operands a launch read where they lie.
fn packed_elements(operand: Operand) -> &'static Counter {
    static COUNTERS: OnceLock<[Arc<Counter>; 2]> = OnceLock::new();
    let counters = COUNTERS.get_or_init(|| {
        ["a", "b"].map(|o| registry().counter_labeled("kernel.gemm.packed", &[("operand", o)]))
    });
    &counters[operand as usize]
}

/// A launch whose tasks are the adjacent column windows of one product:
/// one shared A window, a fresh B window and its own run per task, C windows
/// side by side (`fc1_forward`'s `Z = X · [W_a]ᵀ`). Such a launch is a single
/// `m × k × (tasks·n)` GEMM whose B columns are gathered from the windows,
/// so slabs narrower than the register tile share its panels; like any
/// single product, it reads its A in place.
fn is_wide(g: &GemmGroup<'_>, shape: CShape) -> bool {
    let (table, tasks) = (g.table, g.table.tasks());
    shape == CShape::Columns
        && g.c_stride == g.n
        && table.a_windows().len() == 1
        && table.b_windows().len() == tasks.len()
        && table.runs().len() == tasks.len() + 1
        && (0u32..).zip(tasks).all(|(i, t)| t.c == tasks[0].c + i)
}

/// B read where it lies: f32 windows stored as they are multiplied, a whole
/// number of `tile`'s register columns wide.
fn b_in_place<'a>(g: &GemmGroup<'a>, tile: Tile) -> Option<&'a [f32]> {
    match g.b.data {
        BOperand::F32(b) if g.b.layout == Layout::Normal && g.n.is_multiple_of(tile.shape().1) => {
            Some(b)
        }
        _ => None,
    }
}

/// A grouped launch staged by [`Packed::stage`]: its register tile chosen
/// and its B̃ packed, waiting for callers to compute its runs. It alone
/// walks a launch's k-blocks.
pub struct Staged<'a> {
    g: GemmGroup<'a>,
    tile: Tile,
    /// Width of a C window: `g.n`, or all of them side by side when the
    /// launch [`is_wide`] (then `runs`/`tasks` hold the one widened task).
    cols: usize,
    runs: &'a [u32],
    tasks: &'a [GemmTask],
    /// Slots of B̃, which is laid out `[column panel][slot][k][nr]`: the
    /// panels of consecutive slots follow each other, so a run of tasks over
    /// consecutive slots reads them `k·nr` apart.
    b_slots: usize,
    /// Every A window is read by one task: the microkernel reads it in
    /// place instead of from a packed panel.
    a_direct: bool,
    /// B windows are f32 rows a whole number of tiles wide: read in place
    /// from this buffer, B̃ is never packed.
    b_direct: Option<&'a [f32]>,
    /// The arm a reduced B decodes on.
    isa: Isa,
    /// B̃, in one of this thread's buffers, which is returned on drop.
    bpack: Vec<f32>,
}

impl<'a> Staged<'a> {
    /// Pick the tile and pack B̃ (on `pool` unless [`crate::sequential_mode`])
    /// for a launch that runs `wide` (see [`is_wide`]) and reads every A
    /// window in place when `a_direct`.
    fn new(
        pool: &ThreadPool,
        isa: Option<Isa>,
        g: GemmGroup<'a>,
        wide: bool,
        a_direct: bool,
    ) -> Self {
        if let Some(isa) = isa {
            assert!(isa.supported(), "gemm group: {} not supported", isa.name());
        }
        let table = g.table;
        let (cols, runs, tasks, b_slots) = if wide {
            let tasks = table.tasks();
            (tasks.len() * g.n, &[0, 1][..], &tasks[..1], 1)
        } else {
            (g.n, table.runs(), table.tasks(), table.b_windows().len())
        };
        let tile = pick_tile(isa, g.m, cols);
        let b_direct = b_in_place(&g, tile).filter(|_| !wide);
        let mut staged = Staged {
            g,
            tile,
            cols,
            runs,
            tasks,
            b_slots,
            a_direct,
            b_direct,
            isa: isa.unwrap_or_else(active_isa),
            bpack: take_b_buffer(),
        };
        if b_direct.is_none() && !tasks.is_empty() && g.m > 0 && g.n > 0 {
            let mut bpack = std::mem::take(&mut staged.bpack);
            staged.pack_b(&mut bpack, (!crate::sequential_mode()).then_some(pool));
            staged.bpack = bpack;
        }
        staged
    }

    /// Pack B̃ over the whole depth: every distinct B window once (or,
    /// widened, their columns gathered into shared panels), a reduced B
    /// decoded as it is packed.
    fn pack_b(&self, out: &mut Vec<f32>, pool: Option<&ThreadPool>) {
        let (g, k) = (&self.g, self.g.k);
        let (_, nr) = self.tile.shape();
        let panel_len = k * nr;
        if panel_len == 0 {
            return;
        }
        let windows = g.table.b_windows();
        let panels = self.cols.div_ceil(nr) * self.b_slots;
        out.resize(panels * panel_len, 0.0);
        let fill = |prange: Range<usize>, dst_all: &mut [f32]| {
            // Panel `p` is column panel `p / b_slots` of slot `p % b_slots`,
            // counted up rather than divided out per panel.
            let (mut jp, mut slot) = (prange.start / self.b_slots, prange.start % self.b_slots);
            for dst in dst_all.chunks_exact_mut(panel_len) {
                let cols = jp * nr..self.cols.min((jp + 1) * nr);
                if cols.len() < nr {
                    dst.fill(0.0);
                }
                // Column `v` of slot `s` is column `v % n` of window
                // `s + v / n` (`v < n` unless widened).
                let mut v = cols.start;
                while v < cols.end {
                    let (window, j) = if v < g.n {
                        (windows[slot] as usize, v)
                    } else {
                        (windows[slot + v / g.n] as usize, v % g.n)
                    };
                    let width = (g.n - j).min(cols.end - v);
                    let at = window * g.b.stride + g.b.layout.at(g.b.ld, 0, j);
                    let dst = &mut dst[v - cols.start..];
                    let (b, ld) = (g.b.data, g.b.ld);
                    fill_panel(self.isa, b, g.b.layout, dst, ld, at, k, width, nr);
                    v += width;
                }
                slot += 1;
                if slot == self.b_slots {
                    (jp, slot) = (jp + 1, 0);
                }
            }
        };
        let grain = ((1 << 15) / panel_len).max(1);
        match pool {
            Some(pool) if panels > grain => pool.par_rows(out, panels, panel_len, grain, fill),
            _ => fill(0..panels, out),
        }
        packed_elements(Operand::B).add((k * self.cols * self.b_slots) as u64);
    }

    /// Compute runs `runs` of the staged launch into `chunk`, which holds
    /// elements `base ..` of its C, on the calling thread: every k-block of
    /// each run, its `beta` and its bias, as the grouped launch does.
    pub fn run(&self, runs: Range<usize>, chunk: &mut [f32], base: usize) {
        self.run_over(self.g.a.data, 0, runs, chunk, base)
    }

    /// [`run`](Self::run) with the A windows read from `a`, which holds
    /// elements `a_base ..` of the group's A buffer — for an A that the
    /// caller writes between the runs it computes, such as the probabilities
    /// a context product reads right after its softmax. Panics unless every
    /// A window of `runs` lies inside `a`.
    pub fn run_over(
        &self,
        a: &[f32],
        a_base: usize,
        runs: Range<usize>,
        chunk: &mut [f32],
        base: usize,
    ) {
        let g = &self.g;
        let tasks = &self.tasks[self.runs[runs.start] as usize..self.runs[runs.end] as usize];
        g.check_a(a.len(), a_base, tasks);
        if g.m > 0 && g.n > 0 {
            self.work(a, a_base, runs, 0..g.m, chunk, base)
        }
    }

    /// Runs `rs`, rows `rows` of every C window, into `chunk`, which starts
    /// at element `base` of C, with the A windows read from `a`, which holds
    /// elements `a_base ..` of the group's A: k-block by k-block, the runs'
    /// tasks in table order within each. `k = 0` is one empty block.
    fn work(
        &self,
        a: &[f32],
        a_base: usize,
        rs: Range<usize>,
        rows: Range<usize>,
        chunk: &mut [f32],
        base: usize,
    ) {
        let (k, kc_max) = (self.g.k, tiles().kc.max(1));
        for pc in (0..k.max(1)).step_by(kc_max) {
            let kc = kc_max.min(k - pc);
            self.block(a, a_base, pc, kc, rs.clone(), rows.clone(), chunk, base);
        }
    }

    /// The k-block `pc .. pc + kc` of [`work`](Self::work). B comes from B̃
    /// unless read in place; A windows are read in place, or packed as the
    /// runs meet them into this thread's panels, laid out
    /// `[row panel][slot][kc][mr]`. The first tasks of a run fold `beta` into
    /// their write-back (an empty block only scales), and on the final
    /// k-block its finished rows take its bias — per column window when the
    /// launch is widened.
    #[allow(clippy::too_many_arguments)]
    fn block(
        &self,
        a_buf: &[f32],
        a_base: usize,
        pc: usize,
        kc: usize,
        rs: Range<usize>,
        rows: Range<usize>,
        chunk: &mut [f32],
        base: usize,
    ) {
        let g = &self.g;
        let (mr, nr) = self.tile.shape();
        let (a_windows, b_windows) = (g.table.a_windows(), g.table.b_windows());
        let m_panels = rows.len().div_ceil(mr);
        // Per call, not per task: a division costs tens of cycles, a
        // score block's whole product a few hundred.
        let (n_panels, c_windows) = (self.cols.div_ceil(nr), self.cols / g.n);
        let height = |ip: usize| mr.min(rows.len() - ip * mr);
        let a_panel = |ip: usize, slot: usize| (ip * a_windows.len() + slot) * kc * mr;
        let (a_ks, a_xs) = match g.a.layout {
            Layout::Normal => (1, g.a.ld),
            Layout::Transposed => (g.a.ld, 1),
        };
        PACK_A.with(|apack| {
            PACKED_SLOTS.with(|packed| {
                let apack = &mut *apack.borrow_mut();
                let packed = &mut *packed.borrow_mut();
                if !self.a_direct {
                    apack.resize(m_panels * a_windows.len() * kc * mr, 0.0);
                    packed.clear();
                    packed.resize(a_windows.len(), false);
                }
                let mut copied = 0;
                for r in rs {
                    let run = &self.tasks[self.runs[r] as usize..self.runs[r + 1] as usize];
                    let Some(first) = run.first() else { continue };
                    let c_off = g.c_offset(first) + rows.start * g.ldc - base;
                    if kc == 0 {
                        // Nothing to accumulate: the rows are only scaled.
                        for i in 0..rows.len() {
                            scale_row(&mut chunk[c_off + i * g.ldc..][..self.cols], g.beta);
                        }
                    }
                    let mut wb = WriteBack::at(pc, g.beta);
                    let mut t = 0;
                    while kc > 0 && t < run.len() {
                        let (a0, b0) = (run[t].a as usize, run[t].b as usize);
                        // Tasks over consecutive slots: one deeper call.
                        let mut depth = 1;
                        while run.get(t + depth).is_some_and(|next| {
                            next.a as usize == a0 + depth && next.b as usize == b0 + depth
                        }) {
                            depth += 1;
                        }
                        for slot in a0..a0 + depth {
                            if self.a_direct || std::mem::replace(&mut packed[slot], true) {
                                continue;
                            }
                            copied += rows.len() * kc;
                            let a = &a_buf[a_windows[slot] as usize * g.a.stride - a_base..];
                            for ip in 0..m_panels {
                                let dst = &mut apack[a_panel(ip, slot)..][..kc * mr];
                                if height(ip) < mr {
                                    dst.fill(0.0);
                                }
                                let i0 = rows.start + ip * mr;
                                pack_a_panel(
                                    dst,
                                    a,
                                    g.a.ld,
                                    g.a.layout,
                                    i0,
                                    height(ip),
                                    pc,
                                    kc,
                                    mr,
                                );
                            }
                        }
                        for jp in 0..n_panels {
                            let b = if let Some(bf) = self.b_direct {
                                Src {
                                    ptr: bf[pc * g.b.ld + jp * nr..].as_ptr(),
                                    ks: g.b.ld,
                                    xs: 1,
                                    segs: Segs::Windows(&b_windows[b0..b0 + depth], g.b.stride),
                                }
                            } else {
                                let panel =
                                    &self.bpack[((jp * self.b_slots + b0) * g.k + pc) * nr..];
                                Src::panel(panel, nr, g.k * nr)
                            };
                            let width = nr.min(self.cols - jp * nr);
                            for ip in 0..m_panels {
                                let a = if self.a_direct {
                                    let row = rows.start + ip * mr;
                                    // Counted from element 0 of the group's A: the
                                    // windows' offsets take `a` back into range.
                                    let at = a_buf[row * a_xs + pc * a_ks..].as_ptr();
                                    Src {
                                        ptr: at.wrapping_sub(a_base),
                                        ks: a_ks,
                                        xs: a_xs,
                                        segs: Segs::Windows(&a_windows[a0..a0 + depth], g.a.stride),
                                    }
                                } else {
                                    Src::panel(&apack[a_panel(ip, a0)..], mr, kc * mr)
                                };
                                let c = &mut chunk[c_off + ip * mr * g.ldc + jp * nr..];
                                strided(
                                    self.tile,
                                    depth,
                                    kc,
                                    a,
                                    b,
                                    c,
                                    g.ldc,
                                    height(ip),
                                    width,
                                    wb,
                                );
                            }
                        }
                        wb = WriteBack::Add;
                        t += depth;
                    }
                    if pc + kc == g.k {
                        // The table's tasks behind the run's column windows:
                        // its first task, or every task of a widened launch.
                        let windows = &g.table.tasks()[self.runs[r] as usize..][..c_windows];
                        for (w, t) in windows.iter().enumerate() {
                            if let Some(bias) = g.run_bias(t) {
                                let c = &mut chunk[c_off + w * g.n..];
                                add_bias(c, rows.len(), g.n, g.ldc, bias);
                            }
                        }
                    }
                }
                if copied > 0 {
                    packed_elements(Operand::A).add(copied as u64);
                }
            })
        });
    }
}

/// The offset table of a plain product: one task over A, B and C window 0.
static ONE_TASK: LazyLock<GemmTable> = LazyLock::new(|| GemmTable::each([(0, 0, 0)]));

impl Packed {
    /// [`KernelBackend::gemm`] on an explicit pool (tests: the result must
    /// not depend on how many threads split the rows): a grouped launch of
    /// `ONE_TASK`, whose one run carries the op's bias.
    pub fn gemm_on(
        &self,
        pool: &ThreadPool,
        op: &GemmOp<'_>,
        c: &mut [f32],
        ldc: usize,
        beta: f32,
    ) {
        op.check(c.len(), ldc);
        let GemmOp { m, k, n, .. } = *op;
        if m == 0 || n == 0 {
            return;
        }
        let g = GemmGroup {
            m,
            k,
            n,
            a: Windows {
                data: op.a,
                ld: op.lda,
                stride: 0,
                layout: op.a_layout,
            },
            b: Windows {
                data: op.b,
                ld: op.ldb,
                stride: 0,
                layout: op.b_layout,
            },
            ldc,
            c_stride: 0,
            beta,
            table: &ONE_TASK,
            bias: op.bias.map(|data| Bias { data, stride: 0 }),
        };
        // C cut to the product's span is one column window of an `m`-row
        // matrix, which the launch splits by rows.
        self.gemm_grouped_on(pool, None, &g, &mut c[..(m - 1) * ldc + n])
    }

    /// [`KernelBackend::gemm_grouped`] on an explicit pool and, when `isa` is
    /// given, an explicit microkernel and decode arm (tests and benches;
    /// `None` picks the register tile from the task shape and decodes on the
    /// [`active_isa`]). The launch is [staged](Self::stage), and its runs
    /// are split over `pool` in one parallel section: by rows when the C
    /// windows are column windows of one matrix (neuron slabs), by task
    /// count per run when they are separate regions (score blocks, block
    /// rows), inline when [`sequential_mode`] is set or the windows lie
    /// otherwise. Unlike a caller's stage, a launch packs each A window that
    /// several tasks share, once per thread that needs it, into thread-local
    /// panels, and runs a launch of adjacent column windows as one wide
    /// product (see `is_wide`).
    ///
    /// [`sequential_mode`]: crate::sequential_mode
    pub fn gemm_grouped_on(
        &self,
        pool: &ThreadPool,
        isa: Option<Isa>,
        g: &GemmGroup<'_>,
        c: &mut [f32],
    ) {
        let table = g.table;
        if table.tasks().is_empty() || g.m == 0 || g.n == 0 {
            return;
        }
        let shape = g.check(c.len());
        let wide = is_wide(g, shape);
        // Every A window read by one task of the launch as it runs.
        let a_direct = wide || table.a_windows().len() == table.tasks().len();
        let staged = Staged::new(pool, isa, *g, wide, a_direct);
        let (a, all_runs) = (g.a.data, 0..staged.runs.len() - 1);
        let seq = crate::sequential_mode();
        match shape {
            CShape::Columns if !seq => {
                // Multiply-adds behind one row of every C window.
                let row_macs = g.k * g.n * table.tasks().len();
                let grain = (GRAIN_FLOPS / row_macs.max(1)).max(staged.tile.shape().0);
                pool.par_rows(c, g.m, g.ldc, grain, |rows, chunk| {
                    let base = rows.start * g.ldc;
                    staged.work(a, 0, all_runs.clone(), rows, chunk, base)
                });
            }
            CShape::Regions if !seq => {
                let (runs, tasks) = (table.runs(), table.tasks());
                // The C region covering the non-empty runs of `rs`.
                let cover = |rs: Range<usize>| {
                    let span = &tasks[runs[rs.start] as usize..runs[rs.end] as usize];
                    match (span.first(), span.last()) {
                        (Some(lo), Some(hi)) => g.c_offset(lo)..g.c_offset(hi) + g.c_span(),
                        _ => 0..0,
                    }
                };
                let min_tasks = GRAIN_FLOPS / (g.m * g.k * g.n).max(1);
                pool.par_weighted(c, runs, min_tasks, cover, |rs, chunk| {
                    let base = cover(rs.clone()).start;
                    staged.work(a, 0, rs, 0..g.m, chunk, base)
                });
            }
            _ => staged.work(a, 0, all_runs, 0..g.m, c, 0),
        }
    }

    /// Stage `g` for a caller that computes its runs piecemeal, inside its
    /// own split of the work — say one task per attention block-row that runs
    /// a score product, a softmax and a context product back to back while
    /// the blocks are in cache. Staging picks the register tile and packs B̃
    /// once, on `pool` (inline under [`sequential_mode`]); then
    /// [`Staged::run`] computes any runs on the calling thread, each C
    /// element bit for bit what the grouped launch gives it, which is itself
    /// a staged launch.
    ///
    /// Only what is reused is packed. B̃ holds every distinct B window once,
    /// over the whole depth, shared read-only — unless the windows are f32
    /// rows a whole number of register tiles wide, which the microkernel
    /// reads in place. A reduced B (the f16 / NF4 neuron slabs) is decoded
    /// window by window into B̃, so it holds the f32 values a decoded twin's
    /// windows hold. A staged run reads every A window where it lies: a run
    /// of a few blocks would pay more to pack a window than its products
    /// save. Tasks of a run whose A *and* B slots are consecutive collapse
    /// into one deeper microkernel call (one accumulator chain across the
    /// blocks) — a property of the table, so every C element sees the same
    /// accumulation order however the runs are split.
    ///
    /// [`sequential_mode`]: crate::sequential_mode
    pub fn stage<'a>(&self, pool: &ThreadPool, isa: Option<Isa>, g: GemmGroup<'a>) -> Staged<'a> {
        if !g.table.tasks().is_empty() {
            g.check_b();
        }
        Staged::new(pool, isa, g, false, true)
    }
}

/// A B̃ buffer for a launch on this thread: one it has used before, or a
/// new one. Taken out of the thread-local, not borrowed across a parallel
/// section: the submitting thread helps drain the pool queue while waiting,
/// and a stolen task may launch on this very thread — a held `RefCell`
/// borrow would panic, whereas a nested launch simply takes another buffer.
fn take_b_buffer() -> Vec<f32> {
    PACK_B.with(|b| b.borrow_mut().pop().unwrap_or_default())
}

impl Drop for Staged<'_> {
    fn drop(&mut self) {
        let bpack = std::mem::take(&mut self.bpack);
        PACK_B.with(|b| b.borrow_mut().push(bpack));
    }
}

impl KernelBackend for Packed {
    fn name(&self) -> &'static str {
        "packed"
    }

    /// Every storage kind feeds the same macro-kernel: the decode (f16 bits,
    /// NF4 dequant — see `fill_panel`) is fused into the B̃ pack, so a
    /// dense f32 B is never materialised and the microkernel runs unchanged
    /// on f32 panels.
    fn gemm(&self, op: &GemmOp<'_>, c: &mut [f32], ldc: usize, beta: f32) {
        self.gemm_on(lx_parallel::pool(), op, c, ldc, beta)
    }

    fn gemm_grouped(&self, group: &GemmGroup<'_>, c: &mut [f32]) {
        self.gemm_grouped_on(lx_parallel::pool(), None, group, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic values in `[-1, 1)`.
    fn values(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            })
            .collect()
    }

    fn assert_bits(what: &str, got: &[f32], want: &[f32]) {
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: idx {i}: {x} vs {y}");
        }
    }

    /// One multiply-add step of a chain: fused, or a product then a sum.
    fn step(fused: bool, a: f32, b: f32, acc: f32) -> f32 {
        if fused {
            a.mul_add(b, acc)
        } else {
            acc + a * b
        }
    }

    /// A plain product's contract as plain scalar code: per k-block of
    /// `kc` steps, every C element takes one multiply-add chain from `+0`,
    /// folded into C with the block's [`WriteBack`].
    fn chain_gemm(op: &GemmOp<'_>, c: &mut [f32], ldc: usize, beta: f32, fused: bool) {
        let kc = tiles().kc;
        let a_at = |i: usize, p: usize| match op.a_layout {
            Layout::Normal => op.a[i * op.lda + p],
            Layout::Transposed => op.a[p * op.lda + i],
        };
        let b_at = |p: usize, j: usize| match op.b_layout {
            Layout::Normal => op.b.get(p * op.ldb + j),
            Layout::Transposed => op.b.get(j * op.ldb + p),
        };
        for i in 0..op.m {
            for j in 0..op.n {
                let cv = &mut c[i * ldc + j];
                for pc in (0..op.k).step_by(kc) {
                    let acc = (pc..op.k.min(pc + kc))
                        .fold(0.0, |acc, p| step(fused, a_at(i, p), b_at(p, j), acc));
                    *cv = WriteBack::at(pc, beta).apply(*cv, acc);
                }
            }
        }
    }

    /// Fill one `nr`-wide B̃ panel from a **Normal**-layout operand, one
    /// `load(flat index)` per element: `dst[p·nr + j] = load(at + p·ldb + j)`
    /// for `p < kc`, `j < width` — the definition the fills are checked against.
    #[allow(clippy::too_many_arguments)]
    fn fill_normal_elementwise(
        load: impl Fn(usize) -> f32,
        dst: &mut [f32],
        ldb: usize,
        at: usize,
        kc: usize,
        width: usize,
        nr: usize,
    ) {
        for p in 0..kc {
            let base = at + p * ldb;
            for j in 0..width {
                dst[p * nr + j] = load(base + j);
            }
        }
    }

    /// Fill one `nr`-wide B̃ panel from a **Transposed**-layout operand:
    /// `dst[p·nr + j] = load(at + j·ldb + p)` — the definition the fills are
    /// checked against.
    #[allow(clippy::too_many_arguments)]
    fn fill_transposed_elementwise(
        load: impl Fn(usize) -> f32,
        dst: &mut [f32],
        ldb: usize,
        at: usize,
        kc: usize,
        width: usize,
        nr: usize,
    ) {
        for j in 0..width {
            let base = at + j * ldb;
            for p in 0..kc {
                dst[p * nr + j] = load(base + p);
            }
        }
    }

    fn supported(tile: Tile) -> bool {
        match tile {
            Tile::Scalar | Tile::Fused => true,
            Tile::Avx2 => Isa::Avx2.supported(),
            Tile::Avx512 | Tile::Avx512x16 => Isa::Avx512.supported(),
        }
    }

    /// A stage's B̃ fill ([`Staged::pack_b`]) into a buffer holding an
    /// earlier call's (here: NaN) lanes gives the panels a zeroed buffer and
    /// the elementwise fills give — for every storage kind on every tile of
    /// every arm this host runs, so the row copies, the 16 × 16 transposes
    /// and the run-decoding fills of f16 and NF4 equal their elementwise
    /// oracle bit for bit. The windows cover `ldb` past the stored width,
    /// panels narrower than `nr` (down to one column), odd first columns (a
    /// window offset, also one that starts `pc` k-rows down), depths `kc`
    /// that are no multiple of a vector step or of the transpose block, and
    /// `kc` past one decode run.
    #[test]
    fn pack_b_overwrites_every_lane_of_a_reused_buffer() {
        let arms = [Isa::Scalar, Isa::Avx2, Isa::Avx512].into_iter();
        let table = GemmTable::each([(0, 1, 0)]);
        let no_a: &[f32] = &[];
        for isa in arms.filter(|isa| isa.supported()) {
            for &tile in Tile::of(isa) {
                let nr = tile.shape().1;
                for layout in [Layout::Normal, Layout::Transposed] {
                    for (k, n, pad, pc, kc, jc, nc) in [
                        (20, 40, 0, 3, 17, 2, 37),
                        (8, 16, 0, 0, 8, 0, 16),
                        (9, 5, 0, 1, 8, 0, 5),
                        (70, 75, 3, 5, 61, 3, 70),
                        (130, 33, 1, 1, 129, 1, 31),
                        (310, 40, 2, 3, 300, 5, 35),
                        (17, 3, 0, 0, 17, 2, 1),
                    ] {
                        let ldb = pad + if layout == Layout::Normal { n } else { k };
                        let len = if layout == Layout::Normal { k } else { n } * ldb;
                        let vals = values(len, (k * n + nc) as u64);
                        let bits = crate::half::encode_slice(&vals);
                        let (codes, scales) = lx_quant::nf4::quantize(&vals);
                        let q4 = lx_quant::Q4View::new(&codes, &scales, len);
                        for b in [BOperand::F32(&vals), BOperand::F16(&bits), BOperand::Q4(q4)] {
                            let mut want = vec![0.0; nc.div_ceil(nr) * kc * nr];
                            for (panel, dst) in want.chunks_exact_mut(kc * nr).enumerate() {
                                let (j0, width) = (jc + panel * nr, nr.min(nc - panel * nr));
                                let (load, at) = (|i| b.get(i), layout.at(ldb, pc, j0));
                                match layout {
                                    Layout::Normal => {
                                        fill_normal_elementwise(load, dst, ldb, at, kc, width, nr)
                                    }
                                    Layout::Transposed => fill_transposed_elementwise(
                                        load, dst, ldb, at, kc, width, nr,
                                    ),
                                }
                            }
                            // B window 1 starts at k-row `pc`, column `jc`.
                            let g = GemmGroup {
                                m: 1,
                                k: kc,
                                n: nc,
                                a: Windows::normal(no_a, kc, 0),
                                b: Windows {
                                    data: b,
                                    ld: ldb,
                                    stride: layout.at(ldb, pc, jc),
                                    layout,
                                },
                                ldc: nc,
                                c_stride: 0,
                                beta: 1.0,
                                table: &table,
                                bias: None,
                            };
                            let staged = Staged {
                                g,
                                tile,
                                cols: nc,
                                runs: table.runs(),
                                tasks: table.tasks(),
                                b_slots: 1,
                                a_direct: true,
                                b_direct: None,
                                isa,
                                bpack: take_b_buffer(),
                            };
                            let mut got = vec![f32::NAN; want.len() + 7];
                            staged.pack_b(&mut got, None);
                            let what = format!("{tile:?} {} {layout:?} nc {nc}", b.dtype());
                            assert_bits(&what, &got, &want);
                            assert_eq!(got.len(), want.len());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tile_choice_follows_the_task_shape() {
        assert_eq!(pick_tile(Some(Isa::Scalar), 16, 16), Tile::Scalar);
        assert_eq!(pick_tile(Some(Isa::Avx2), 16, 16), Tile::Avx2);
        assert_eq!(pick_tile(Some(Isa::Neon), 16, 16), Tile::Fused);
        // A 16-row block fills the one-zmm-per-row tile; a tall product the
        // 14×32 one.
        for (m, n) in [(16, 16), (16, 32), (8, 8), (16, 256)] {
            assert_eq!(
                pick_tile(Some(Isa::Avx512), m, n),
                Tile::Avx512x16,
                "{m}x{n}"
            );
        }
        for (m, n) in [(512, 256), (14, 32), (512, 400)] {
            assert_eq!(pick_tile(Some(Isa::Avx512), m, n), Tile::Avx512, "{m}x{n}");
        }
        // An explicit arm never leaves its own tiles, and its first tile has
        // the arm's shape.
        for isa in [Isa::Scalar, Isa::Avx2, Isa::Avx512, Isa::Neon] {
            assert_eq!(Tile::of(isa)[0].shape(), isa.tile(), "{isa:?}");
            for (m, n) in [(4, 8), (16, 16), (512, 256), (512, 16)] {
                assert!(Tile::of(isa).contains(&pick_tile(Some(isa), m, n)));
            }
        }
        // The default never leaves the active arm's tiles (plus AVX2 under
        // AVX-512), so an `avx2` or `scalar` pin keeps its old tile.
        let active = active_isa();
        for (m, n) in [(4, 8), (16, 16), (512, 256)] {
            let tile = pick_tile(None, m, n);
            assert!(supported(tile));
            assert!(
                Tile::of(active).contains(&tile) || tile == Tile::Avx2,
                "{tile:?}"
            );
        }
    }

    /// Every strided tile, in place over two layouts of A and windowed B
    /// segments, folds exactly the chain its definition names.
    #[test]
    fn strided_tiles_match_the_chain_definition() {
        let (kc, ld, stride, ldc) = (7, 40, 400, 40);
        let windows = [3u32, 0, 5];
        let (a, b) = (values(4000, 1), values(4000, 2));
        let tiles = [
            Tile::Scalar,
            Tile::Fused,
            Tile::Avx2,
            Tile::Avx512,
            Tile::Avx512x16,
        ];
        for tile in tiles.into_iter().filter(|&t| supported(t)) {
            let fused = tile != Tile::Scalar;
            let (tmr, tnr) = tile.shape();
            for (mr, nr) in [(tmr, tnr), (1, 3), (tmr - 1, tnr - 5)] {
                for (ks, xs) in [(1, ld), (ld, 1)] {
                    let seg = Segs::Windows(&windows, stride);
                    let a_src = Src {
                        ptr: a.as_ptr(),
                        ks,
                        xs,
                        segs: seg,
                    };
                    let b_src = Src {
                        ptr: b.as_ptr(),
                        ks: ld,
                        xs: 1,
                        segs: seg,
                    };
                    for wb in [WriteBack::Add, WriteBack::Set, WriteBack::Scale(0.5)] {
                        let c0 = values(tmr * ldc, 3);
                        let mut got = c0.clone();
                        strided(tile, 3, kc, a_src, b_src, &mut got, ldc, mr, nr, wb);
                        let mut want = c0.clone();
                        for i in 0..mr {
                            for j in 0..nr {
                                let mut acc = 0.0;
                                for &w in &windows {
                                    let w = w as usize * stride;
                                    for p in 0..kc {
                                        let (x, y) = (a[w + p * ks + i * xs], b[w + p * ld + j]);
                                        acc = step(fused, x, y, acc);
                                    }
                                }
                                want[i * ldc + j] = wb.apply(c0[i * ldc + j], acc);
                            }
                        }
                        let what = format!("{tile:?} {mr}x{nr} ks={ks} {wb:?}");
                        assert_bits(&what, &got, &want);
                    }
                }
            }
        }
    }

    /// Plain products — one-task launches — against the chain definition
    /// followed by a plain bias pass, bitwise: across a k-block boundary;
    /// f32, f16 and NF4 B in both layouts (and a transposed A over f32 B);
    /// all three write-backs, over a NaN-poisoned C for `beta = 0`; with and
    /// without a bias; on the global pool and explicit 1- and 2-thread ones.
    /// The shapes include products one register tile wide or narrower, at
    /// most 16 rows tall, and widths no multiple of any tile, where B is
    /// packed rather than read in place.
    #[test]
    fn plain_products_match_the_chain_definition() {
        let fused = active_isa() != Isa::Scalar;
        let k = tiles().kc + 44;
        let pools = [1, 2].map(ThreadPool::new);
        let mut seed = 10;
        for (m, n) in [
            (37, 8),
            (40, 16),
            (8, 40),
            (16, 64),
            (5, 3),
            (30, 40),
            (20, 100),
        ] {
            let bias = values(n, seed);
            let layouts = [
                (Layout::Normal, Layout::Normal),
                (Layout::Normal, Layout::Transposed),
                (Layout::Transposed, Layout::Normal),
            ];
            for (a_layout, b_layout) in layouts {
                seed += 3;
                let (a, vals) = (values(m * k, seed), values(k * n, seed + 1));
                let bits = crate::half::encode_slice(&vals);
                let (codes, scales) = lx_quant::nf4::quantize(&vals);
                let q4 = lx_quant::Q4View::new(&codes, &scales, vals.len());
                let mut operands = vec![BOperand::F32(&vals)];
                if a_layout == Layout::Normal {
                    operands.extend([BOperand::F16(&bits), BOperand::Q4(q4)]);
                }
                for b in operands {
                    let op = GemmOp::contiguous(m, k, n, &a, a_layout, b, b_layout);
                    for beta in [0.0f32, 1.0, 0.5] {
                        let c0 = if beta == 0.0 {
                            vec![f32::NAN; m * n]
                        } else {
                            values(m * n, seed + 2)
                        };
                        let mut chain = c0.clone();
                        chain_gemm(&op, &mut chain, n, beta, fused);
                        for bias in [None, Some(&bias[..])] {
                            let mut want = chain.clone();
                            if let Some(bias) = bias {
                                add_bias(&mut want, m, n, n, bias);
                            }
                            let what = format!(
                                "{m}x{k}x{n} A {a_layout:?} B {} {b_layout:?} beta={beta} bias {}",
                                b.dtype(),
                                bias.is_some()
                            );
                            let op = GemmOp { bias, ..op };
                            let mut got = c0.clone();
                            Packed.gemm(&op, &mut got, n, beta);
                            assert_bits(&what, &got, &want);
                            for pool in &pools {
                                let mut got = c0.clone();
                                Packed.gemm_on(pool, &op, &mut got, n, beta);
                                let what = format!("{what} on {} threads", pool.threads());
                                assert_bits(&what, &got, &want);
                            }
                        }
                    }
                }
            }
        }
    }
}
