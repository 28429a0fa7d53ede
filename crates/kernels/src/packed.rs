//! The [`Packed`] backend: cache-blocked, panel-packed GEMM microkernels.
//!
//! Classic three-level blocking (BLIS/GotoBLAS structure, adapted from the
//! shared-memory-tile + register-tile pattern GPU kernels use):
//!
//! ```text
//!   for jc in steps of NC over n:            // C column block   (≈ L3)
//!     for pc in steps of KC over k:          // K block
//!       pack B[pc.., jc..] → B̃  (KC×NC, NR-wide column panels)   (≈ L2→L1)
//!       parallel over worker-disjoint row chunks of C:
//!         for ic in steps of MC over rows:   // A row block      (≈ L2)
//!           pack A[ic.., pc..] → Ã (MC×KC, MR-tall row panels)
//!           for jr, ir over NR/MR panels:
//!             microkernel: C[MR×NR] += Ã-panel · B̃-panel
//!             (last k-block: apply the fused epilogue to the hot tile)
//! ```
//!
//! * The microkernel keeps an `MR×NR` register tile of C accumulators and
//!   streams one `MR` column of Ã against one `NR` row of B̃ per k-step —
//!   explicit FMA-friendly inner loops. The register-tile shape follows the
//!   active [`Isa`] arm (6×16 scalar/AVX2/NEON, 14×32 AVX-512), and packing
//!   geometry follows the arm so each kernel sees panels of its own width.
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
//! * B̃ is packed once per `(jc, pc)` block — in parallel across panel chunks
//!   when the pool is available — and shared read-only across all row tasks:
//!   the "B-panel reuse across A rows" that makes the kernel
//!   bandwidth-friendly. C row chunks are worker-disjoint (`par_rows`
//!   split_at_mut carving), so one big GEMM saturates all `LX_THREADS`
//!   workers.
//! * Nested calls (a GEMM issued from inside a pool worker) detect
//!   [`lx_parallel::in_worker`] via [`crate::sequential_mode`] and run the
//!   whole macro-kernel on the calling thread instead of oversubscribing the
//!   pool.
//! * `beta` folds into the first k-block's write-back ([`WriteBack`]) and a
//!   fused [`Epilogue`] is applied to each macro-block right after its
//!   **final** k-block — i.e. after the complete `beta·C + ΣA·B` sum, in the
//!   same element order as a separate scale pass before and an unfused bias
//!   or GELU pass after — so results are bit-identical to those passes
//!   while their read-modify-write sweeps over C disappear.
//! * Only operands that are reused are packed. A product one register tile
//!   wide reads each A row once, one at most 16 rows tall each B row once:
//!   such an operand is read where it lies by the strided microkernels
//!   ([`Src`]: a pointer plus k- and row/column strides), whose register
//!   tile [`pick_tile`] chooses from the product's shape.
//!
//! * A grouped launch ([`Packed::gemm_grouped_on`]) applies the same rule
//!   across the tasks of an offset table: each distinct shared A and B
//!   window is packed once, windows used by one task (and f32 B rows a
//!   whole number of tiles wide) are read in place, and the table's runs
//!   (or the rows of its column windows) are what the pool splits.
//!
//! Pack buffers are thread-local and reused across calls, so steady-state
//! GEMMs allocate nothing.

use crate::backend::{per_task, row_grain, scale_only, KernelBackend, GRAIN_FLOPS};
use crate::decode;
use crate::dispatch::tiles;
use crate::epilogue::{apply_epilogue, Epilogue};
use crate::isa::{active_isa, Isa};
use crate::op::{BOperand, CShape, GemmGroup, GemmOp, GemmTask, Layout};
use lx_obs::{registry, Counter};
use lx_parallel::ThreadPool;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Register tile height of the 6×16 arms (scalar/AVX2/NEON); also the unit
/// the cache-model rounds MC to. The AVX-512 arm uses its own 14×32 tile.
pub const MR: usize = 6;
/// Register tile width of the 6×16 arms; see [`MR`].
pub const NR: usize = 16;

/// The width (of C) up to which a product reads its A rows once, and the
/// height up to which it reads its B rows once: one 16-wide / 16-tall
/// register tile.
const SINGLE_USE: usize = 16;

/// Fill one `nr`-wide B̃ panel: `dst[p·nr + j]` = B(pc+p, col0+j) for
/// `p < kc`, `j < width`, from B stored in `layout`; lanes past `width` are
/// left as they are. An f32 B is copied element by element, reduced storage
/// decoded in runs on arm `isa`. Decoder indices are buffer-relative, never
/// panel-relative, so NF4 resolves its block scales under any `ldb`.
#[allow(clippy::too_many_arguments)]
fn fill_panel(
    isa: Isa,
    b: BOperand<'_>,
    layout: Layout,
    dst: &mut [f32],
    ldb: usize,
    pc: usize,
    kc: usize,
    col0: usize,
    width: usize,
    nr: usize,
) {
    match (b, layout) {
        (BOperand::F32(b), Layout::Normal) => {
            fill_normal_elementwise(|i| b[i], dst, ldb, pc, kc, col0, width, nr)
        }
        (BOperand::F32(b), Layout::Transposed) => {
            fill_transposed_elementwise(|i| b[i], dst, ldb, pc, kc, col0, width, nr)
        }
        (_, Layout::Normal) => {
            for p in 0..kc {
                let row = &mut dst[p * nr..p * nr + width];
                decode::run(isa, b, (pc + p) * ldb + col0, row);
            }
        }
        (_, Layout::Transposed) => {
            // The default k-block depth: one run per column at the default
            // tiling.
            const RUN: usize = 256;
            let mut scratch = [0.0f32; RUN];
            for j in 0..width {
                let base = (col0 + j) * ldb + pc;
                for p0 in (0..kc).step_by(RUN) {
                    let run = &mut scratch[..RUN.min(kc - p0)];
                    decode::run(isa, b, base + p0, run);
                    for (p, &v) in run.iter().enumerate() {
                        dst[(p0 + p) * nr + j] = v;
                    }
                }
            }
        }
    }
}

/// Fill one `nr`-wide B̃ panel from a **Normal**-layout operand, one
/// `load(flat index)` per element: `dst[p·nr + j] = load((pc+p)·ldb + col0+j)`
/// for `p < kc`, `j < width`. Lanes past `width` are left as they are.
#[allow(clippy::too_many_arguments)]
fn fill_normal_elementwise(
    load: impl Fn(usize) -> f32,
    dst: &mut [f32],
    ldb: usize,
    pc: usize,
    kc: usize,
    col0: usize,
    width: usize,
    nr: usize,
) {
    for p in 0..kc {
        let base = (pc + p) * ldb + col0;
        for j in 0..width {
            dst[p * nr + j] = load(base + j);
        }
    }
}

/// Fill one `nr`-wide B̃ panel from a **Transposed**-layout operand:
/// `dst[p·nr + j] = load((col0+j)·ldb + pc+p)`. Lanes past `width` are left
/// as they are.
#[allow(clippy::too_many_arguments)]
fn fill_transposed_elementwise(
    load: impl Fn(usize) -> f32,
    dst: &mut [f32],
    ldb: usize,
    pc: usize,
    kc: usize,
    col0: usize,
    width: usize,
    nr: usize,
) {
    for j in 0..width {
        let base = (col0 + j) * ldb + pc;
        for p in 0..kc {
            dst[p * nr + j] = load(base + p);
        }
    }
}

thread_local! {
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Which A slots of a grouped launch this thread has packed so far.
    static PACKED_SLOTS: RefCell<Vec<bool>> = const { RefCell::new(Vec::new()) };
}

/// Pack `kc` k-steps × `nc` columns of B into `nr`-wide column panels:
/// `out[panel][p·nr + j]` = B(pc+p, jc + panel·nr + j), zero-padded past
/// `nc`, reduced storage decoded on arm `isa`. Panels are disjoint slices of
/// `out`, so when a pool is given the fill is carved across it (one "row"
/// per panel).
#[allow(clippy::too_many_arguments)]
fn pack_b(
    out: &mut Vec<f32>,
    isa: Isa,
    b: BOperand<'_>,
    ldb: usize,
    layout: Layout,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    nr: usize,
    pool: Option<&ThreadPool>,
) {
    let panels = nc.div_ceil(nr);
    let panel_len = kc * nr;
    // Every lane is written below, so the buffer keeps its old contents.
    out.resize(panels * panel_len, 0.0);
    let fill = |prange: Range<usize>, dst_all: &mut [f32]| {
        for (pi, panel) in prange.enumerate() {
            let j0 = panel * nr;
            let width = nr.min(nc - j0);
            let dst = &mut dst_all[pi * panel_len..(pi + 1) * panel_len];
            fill_panel(isa, b, layout, dst, ldb, pc, kc, jc + j0, width, nr);
            // The fills store the lanes below `width`; zero the padding.
            if width < nr {
                for row in dst.chunks_exact_mut(nr) {
                    row[width..].fill(0.0);
                }
            }
        }
    };
    // Each task should pack a cache-friendly stretch of panels; packing is
    // bandwidth-bound, so only fan out when there is real work to split.
    let grain = ((1 << 15) / panel_len.max(1)).max(1);
    match pool {
        Some(pool) if panels > grain => pool.par_rows(out, panels, panel_len, grain, fill),
        _ => fill(0..panels, out),
    }
}

/// Pack `mc` rows × `kc` k-steps of A into `mr`-tall row panels:
/// `out[panel][p·mr + i]` = A(ic + panel·mr + i, pc+p), zero-padded past
/// `mc`.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    out: &mut Vec<f32>,
    a: &[f32],
    lda: usize,
    layout: Layout,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    mr: usize,
) {
    let panels = mc.div_ceil(mr);
    out.clear();
    out.resize(panels * kc * mr, 0.0);
    for (panel, dst) in out.chunks_exact_mut((kc * mr).max(1)).enumerate() {
        let i0 = panel * mr;
        pack_a_panel(dst, a, lda, layout, ic + i0, mr.min(mc - i0), pc, kc, mr);
    }
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
    /// First element of segment `s`.
    ///
    /// # Safety
    /// The segment must lie inside the allocation `ptr` points into.
    #[inline(always)]
    unsafe fn seg(&self, s: usize) -> *const f32 {
        let off = match self.segs {
            Segs::Step(step) => s * step,
            Segs::Windows(windows, stride) => windows[s] as usize * stride,
        };
        self.ptr.add(off)
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
/// [`Src`]. The packed driver runs its arm's first tile ([`Tile::of`]);
/// grouped launches and products with a single-use operand take the one
/// [`pick_tile`] chooses per call. Private: the public arm stays [`Isa`].
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

    /// The tiles arm `isa` runs; the first is its packed driver's, of
    /// shape [`Isa::tile`].
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
    // SAFETY: the tile's arm passed its runtime probe (the driver runs
    // `active_isa`'s, `pick_tile` offers only supported tiles,
    // `gemm_grouped_on` asserts an explicit arm); the
    // callers build `a` and `b` from checked views under the `Src` contract,
    // and `c` was checked above.
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

/// The packed/tiled backend. Tile sizes (MC/KC/NC) are read from the global
/// [`KernelPolicy`](crate::KernelPolicy) at call time, so an installed policy
/// takes effect immediately; the microkernel arm follows [`active_isa`].
pub struct Packed;

impl Packed {
    /// The macro-kernel, for every storage kind of B: only the B̃ fill
    /// ([`fill_panel`]) looks at it.
    #[allow(clippy::too_many_arguments)]
    fn driver(
        &self,
        pool: &ThreadPool,
        op: &GemmOp<'_>,
        c: &mut [f32],
        ldc: usize,
        beta: f32,
        ep: Epilogue<'_>,
    ) {
        let GemmOp {
            m,
            k,
            n,
            a,
            lda,
            a_layout,
            ldb,
            b_layout,
            ..
        } = *op;
        if m == 0 || n == 0 {
            return;
        }
        ep.check(n);
        if k == 0 {
            // Degenerate product: the "sum" is just the beta scale, so the
            // epilogue becomes a standalone pass.
            if beta != 1.0 {
                scale_only(c, m, n, ldc, beta);
            }
            apply_epilogue(c, m, n, ldc, ep);
            return;
        }
        // Nested call (inside a pool worker) or explicit
        // `with_sequential`: run the whole macro-kernel on this thread.
        let seq = crate::sequential_mode();
        // A product one register tile wide reads each A row once, and one
        // a register tile tall reads each B row once: packing such an
        // operand buys nothing, so it is read where it lies.
        let isa = active_isa();
        let b_rows = match op.b {
            BOperand::F32(b) if b_layout == Layout::Normal && m <= SINGLE_USE => Some(b),
            _ => None,
        };
        if n <= SINGLE_USE || b_rows.is_some() {
            return self.single_use(pool, seq, isa, op, b_rows, c, ldc, beta, ep);
        }
        let tile = Tile::of(isa)[0];
        let (tmr, tnr) = tile.shape();
        let t = tiles();
        let (mc, kc_max, nc_max) = (t.mc.max(tmr), t.kc.max(1), t.nc.max(tnr));
        // Reuse this thread's B̃ buffer across calls. Taken out of the
        // thread-local (not borrowed across the parallel section): the
        // submitting thread helps drain the pool queue while waiting, and a
        // stolen task may re-enter `driver` on this very thread — a held
        // `RefCell` borrow would panic, whereas a nested call here simply
        // finds an empty cell and allocates its own buffer.
        let mut bpack = PACK_B.with(|b| std::mem::take(&mut *b.borrow_mut()));
        let mut jc = 0;
        while jc < n {
            let nc = nc_max.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kc = kc_max.min(k - pc);
                // `beta` folds into the first k-block's write-back, the
                // epilogue into the *final* one's, i.e. after the complete
                // accumulated sum.
                let wb = WriteBack::at(pc, beta);
                let ep_blk = if pc + kc == k { ep } else { Epilogue::None };
                pack_b(
                    &mut bpack,
                    isa,
                    op.b,
                    ldb,
                    b_layout,
                    pc,
                    kc,
                    jc,
                    nc,
                    tnr,
                    (!seq).then_some(pool),
                );
                packed_elements(Operand::B).add((kc * nc) as u64);
                let bpack_ref = &bpack;
                let grain = row_grain(kc, nc).max(tmr);
                let macro_rows = |rows: Range<usize>, chunk: &mut [f32]| {
                    packed_elements(Operand::A).add((rows.len() * kc) as u64);
                    PACK_A.with(|apack| {
                        let apack = &mut *apack.borrow_mut();
                        let mut ic = rows.start;
                        while ic < rows.end {
                            let mcb = mc.min(rows.end - ic);
                            pack_a(apack, a, lda, a_layout, ic, mcb, pc, kc, tmr);
                            for jr in (0..nc).step_by(tnr) {
                                let nr = tnr.min(nc - jr);
                                let bp = Src::panel(&bpack_ref[(jr / tnr) * kc * tnr..], tnr, 0);
                                for ir in (0..mcb).step_by(tmr) {
                                    let mr = tmr.min(mcb - ir);
                                    let ap = Src::panel(&apack[(ir / tmr) * kc * tmr..], tmr, 0);
                                    let coff = (ic - rows.start + ir) * ldc + jc + jr;
                                    let c = &mut chunk[coff..];
                                    strided(tile, 1, kc, ap, bp, c, ldc, mr, nr, wb);
                                }
                            }
                            // Epilogue over the finished mc×nc block, full
                            // rows at a time: the block is still cache-warm,
                            // the work stays on the worker that computed it,
                            // and the long contiguous rows amortise loop
                            // setup the way a 32-wide register tile cannot.
                            if !ep_blk.is_none() {
                                for r in 0..mcb {
                                    let off = (ic - rows.start + r) * ldc + jc;
                                    ep_blk.apply_tile(&mut chunk[off..], ldc, 1, nc, jc);
                                }
                            }
                            ic += mcb;
                        }
                    });
                };
                if seq {
                    macro_rows(0..m, &mut *c);
                } else {
                    pool.par_rows(c, m, ldc, grain, macro_rows);
                }
                pc += kc;
            }
            jc += nc;
        }
        PACK_B.with(|b| *b.borrow_mut() = bpack);
    }

    /// [`driver`](Self::driver) for a product whose A rows (`n` within
    /// [`SINGLE_USE`]) or B rows (`b_rows`: a Normal f32 B under at most
    /// [`SINGLE_USE`] rows of C) are each read once: the strided microkernels read A where it
    /// lies, and B too when `b_rows` is given — all but a narrow last column
    /// panel, which is packed. The k-blocks, and so every C element's
    /// chains, are the packed driver's.
    #[allow(clippy::too_many_arguments)]
    fn single_use(
        &self,
        pool: &ThreadPool,
        seq: bool,
        isa: Isa,
        op: &GemmOp<'_>,
        b_rows: Option<&[f32]>,
        c: &mut [f32],
        ldc: usize,
        beta: f32,
        ep: Epilogue<'_>,
    ) {
        let GemmOp { m, k, n, a, .. } = *op;
        let tile = pick_tile(None, m, n);
        let (tmr, tnr) = tile.shape();
        let kc_max = tiles().kc.max(1);
        let (a_ks, a_xs) = match op.a_layout {
            Layout::Normal => (1, op.lda),
            Layout::Transposed => (op.lda, 1),
        };
        // Columns `..direct` read B in place; the rest are packed.
        let direct = b_rows.map_or(0, |_| n - n % tnr);
        let mut bpack = PACK_B.with(|b| std::mem::take(&mut *b.borrow_mut()));
        let mut pc = 0;
        while pc < k {
            let kc = kc_max.min(k - pc);
            let wb = WriteBack::at(pc, beta);
            let ep_blk = if pc + kc == k { ep } else { Epilogue::None };
            if direct < n {
                let pool = (!seq).then_some(pool);
                pack_b(
                    &mut bpack,
                    isa,
                    op.b,
                    op.ldb,
                    op.b_layout,
                    pc,
                    kc,
                    direct,
                    n - direct,
                    tnr,
                    pool,
                );
                packed_elements(Operand::B).add((kc * (n - direct)) as u64);
            }
            let bpack = &bpack;
            let body = |rows: Range<usize>, chunk: &mut [f32]| {
                for jr in (0..n).step_by(tnr) {
                    let bsrc = match b_rows {
                        Some(bf) if jr < direct => Src {
                            ptr: bf[pc * op.ldb + jr..].as_ptr(),
                            ks: op.ldb,
                            xs: 1,
                            segs: Segs::Step(0),
                        },
                        _ => Src::panel(&bpack[(jr - direct) / tnr * kc * tnr..], tnr, 0),
                    };
                    for ir in rows.clone().step_by(tmr) {
                        let asrc = Src {
                            ptr: a[ir * a_xs + pc * a_ks..].as_ptr(),
                            ks: a_ks,
                            xs: a_xs,
                            segs: Segs::Step(0),
                        };
                        let (mr, nr) = (tmr.min(rows.end - ir), tnr.min(n - jr));
                        let tile_c = &mut chunk[(ir - rows.start) * ldc + jr..];
                        strided(tile, 1, kc, asrc, bsrc, tile_c, ldc, mr, nr, wb);
                    }
                }
                if !ep_blk.is_none() {
                    for r in 0..rows.len() {
                        ep_blk.apply_tile(&mut chunk[r * ldc..], ldc, 1, n, 0);
                    }
                }
            };
            if seq {
                body(0..m, &mut *c);
            } else {
                pool.par_rows(c, m, ldc, row_grain(kc, n).max(tmr), body);
            }
            pc += kc;
        }
        PACK_B.with(|b| *b.borrow_mut() = bpack);
    }
}

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
/// so slabs narrower than the register tile share its panels.
fn is_wide(g: &GemmGroup<'_>, shape: CShape) -> bool {
    let (table, tasks) = (g.table, g.table.tasks());
    shape == CShape::Columns
        && g.c_stride == g.n
        && table.a_windows().len() == 1
        && table.b_windows().len() == tasks.len()
        && table.runs().len() == tasks.len() + 1
        && (0u32..).zip(tasks).all(|(i, t)| t.c == tasks[0].c + i)
}

/// One k-block of a grouped launch: everything its chunks share.
struct GroupPass<'a> {
    g: &'a GemmGroup<'a>,
    tile: Tile,
    /// First k-step and depth of the block.
    pc: usize,
    kc: usize,
    /// Width of a C window: `g.n`, or all of them side by side when the
    /// launch [`is_wide`] (then `runs`/`tasks` hold the one widened task).
    cols: usize,
    runs: &'a [u32],
    tasks: &'a [GemmTask],
    /// Slots of B̃, which is laid out `[column panel][slot][kc][nr]`: the
    /// panels of consecutive slots are contiguous along k, so a run of tasks
    /// over consecutive slots reads one long panel.
    b_slots: usize,
    /// Every A window is read by one task: the microkernel reads it in
    /// place instead of from a packed panel.
    a_direct: bool,
    /// B windows are f32 rows a whole number of tiles wide: read in place,
    /// B̃ is never packed.
    b_direct: bool,
}

impl GroupPass<'_> {
    /// Pack B̃ for this block: every distinct B window once (or, widened,
    /// their columns gathered into shared panels).
    fn pack_b(&self, out: &mut Vec<f32>, pool: Option<&ThreadPool>) {
        let (g, kc, pc) = (self.g, self.kc, self.pc);
        let (_, nr) = self.tile.shape();
        let panel_len = kc * nr;
        if panel_len == 0 {
            return;
        }
        let windows = g.table.b_windows();
        let panels = self.cols.div_ceil(nr) * self.b_slots;
        out.resize(panels * panel_len, 0.0);
        let fill = |prange: Range<usize>, dst_all: &mut [f32]| {
            for (dst, p) in dst_all.chunks_exact_mut(panel_len).zip(prange) {
                let (jp, slot) = (p / self.b_slots, p % self.b_slots);
                let cols = jp * nr..self.cols.min((jp + 1) * nr);
                if cols.len() < nr {
                    dst.fill(0.0);
                }
                // Column `v` of slot `s` is column `v % n` of window
                // `s + v / n` (`v < n` unless widened).
                let mut v = cols.start;
                while v < cols.end {
                    let (window, j) = (windows[slot + v / g.n] as usize, v % g.n);
                    let width = (g.n - j).min(cols.end - v);
                    let b = BOperand::F32(&g.b.data[window * g.b.stride..]);
                    let dst = &mut dst[v - cols.start..];
                    let isa = Isa::Scalar; // f32 windows: copied, not decoded
                    fill_panel(isa, b, g.b.layout, dst, g.b.ld, pc, kc, j, width, nr);
                    v += width;
                }
            }
        };
        let grain = ((1 << 15) / panel_len).max(1);
        match pool {
            Some(pool) if panels > grain => pool.par_rows(out, panels, panel_len, grain, fill),
            _ => fill(0..panels, out),
        }
        packed_elements(Operand::B).add((kc * self.cols * self.b_slots) as u64);
    }

    /// Runs `rs`, rows `rows` of every C window, into `chunk`, which starts
    /// at element `base` of C. B comes from the packed `bpack` unless read
    /// in place; A windows are read in place, or packed as the runs meet
    /// them into this thread's panels, laid out `[row panel][slot][kc][mr]`
    /// like B̃. The first tasks of a run fold `beta` into their write-back.
    fn work(
        &self,
        bpack: &[f32],
        rs: Range<usize>,
        rows: Range<usize>,
        chunk: &mut [f32],
        base: usize,
    ) {
        let (g, kc, pc) = (self.g, self.kc, self.pc);
        let (mr, nr) = self.tile.shape();
        let (a_windows, b_windows) = (g.table.a_windows(), g.table.b_windows());
        let m_panels = rows.len().div_ceil(mr);
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
                for run in rs {
                    let run = &self.tasks[self.runs[run] as usize..self.runs[run + 1] as usize];
                    let Some(first) = run.first() else { continue };
                    let c_off = g.c_offset(first) + rows.start * g.ldc - base;
                    let mut wb = WriteBack::at(pc, g.beta);
                    let mut t = 0;
                    while t < run.len() {
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
                            let a = &g.a.data[a_windows[slot] as usize * g.a.stride..];
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
                        for jp in 0..self.cols.div_ceil(nr) {
                            let b = if self.b_direct {
                                Src {
                                    ptr: g.b.data[pc * g.b.ld + jp * nr..].as_ptr(),
                                    ks: g.b.ld,
                                    xs: 1,
                                    segs: Segs::Windows(&b_windows[b0..b0 + depth], g.b.stride),
                                }
                            } else {
                                let panel = &bpack[(jp * self.b_slots + b0) * kc * nr..];
                                Src::panel(panel, nr, kc * nr)
                            };
                            let width = nr.min(self.cols - jp * nr);
                            for ip in 0..m_panels {
                                let a = if self.a_direct {
                                    let row = rows.start + ip * mr;
                                    Src {
                                        ptr: g.a.data[row * a_xs + pc * a_ks..].as_ptr(),
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
                }
                if copied > 0 {
                    packed_elements(Operand::A).add(copied as u64);
                }
            })
        });
    }
}

impl Packed {
    /// [`KernelBackend::gemm`] on an explicit pool (tests: the result must
    /// not depend on how many threads split the rows).
    pub fn gemm_on(
        &self,
        pool: &ThreadPool,
        op: &GemmOp<'_>,
        c: &mut [f32],
        ldc: usize,
        beta: f32,
        ep: Epilogue<'_>,
    ) {
        op.check(c.len(), ldc);
        self.driver(pool, op, c, ldc, beta, ep)
    }

    /// [`KernelBackend::gemm_grouped`] on an explicit pool and, when `isa` is
    /// given, an explicit microkernel arm (tests and benches; `None` picks
    /// the register tile from the task shape).
    ///
    /// Only what is reused is packed. B̃ holds every distinct B window once
    /// per launch, shared read-only — unless the windows are f32 rows a whole
    /// number of register tiles wide, which the microkernel reads in place.
    /// A window used by one task (a P or dS block of a DSD) is read in place
    /// too; windows shared by several tasks are packed once per thread that
    /// needs them, into thread-local panels. Tasks of a run whose A *and* B
    /// slots are consecutive collapse into one deeper microkernel call (one
    /// accumulator chain across the blocks), and a launch of adjacent column
    /// windows runs as one wide product (see `is_wide`) — properties of the
    /// table, so every C element sees the same accumulation order however
    /// the launch is split: by rows when the C windows are column windows
    /// of one matrix (neuron slabs), by task count per run when they are
    /// separate regions (score blocks, block rows), inline when
    /// [`sequential_mode`] is set.
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
        if let Some(isa) = isa {
            assert!(isa.supported(), "gemm group: {} not supported", isa.name());
        }
        if g.k == 0 {
            // Nothing to accumulate: each run's C window is only scaled.
            return per_task(self, g, c);
        }
        let wide = is_wide(g, shape);
        let (cols, runs, tasks, b_slots) = if wide {
            let tasks = table.tasks();
            (tasks.len() * g.n, &[0, 1][..], &tasks[..1], 1)
        } else {
            (g.n, table.runs(), table.tasks(), table.b_windows().len())
        };
        let tile = pick_tile(isa, g.m, cols);
        let a_direct = !wide && table.a_windows().len() == table.tasks().len();
        let b_direct = !wide && g.b.layout == Layout::Normal && g.n.is_multiple_of(tile.shape().1);
        let seq = crate::sequential_mode();
        let kc_max = tiles().kc.max(1);
        // As in `driver`: taken, not borrowed, across the parallel section.
        let mut bpack = PACK_B.with(|b| std::mem::take(&mut *b.borrow_mut()));
        let mut pc = 0;
        while pc < g.k {
            let kc = kc_max.min(g.k - pc);
            let pass = GroupPass {
                g,
                tile,
                pc,
                kc,
                cols,
                runs,
                tasks,
                b_slots,
                a_direct,
                b_direct,
            };
            if !b_direct {
                pass.pack_b(&mut bpack, (!seq).then_some(pool));
            }
            let bpack = &bpack;
            let all_runs = 0..runs.len() - 1;
            // Multiply-adds behind one row of every C window.
            let row_macs = g.k * g.n * table.tasks().len();
            match shape {
                _ if seq => pass.work(bpack, all_runs, 0..g.m, c, 0),
                CShape::Columns => {
                    let grain = (GRAIN_FLOPS / row_macs.max(1)).max(tile.shape().0);
                    pool.par_rows(c, g.m, g.ldc, grain, |rows, chunk| {
                        let base = rows.start * g.ldc;
                        pass.work(bpack, all_runs.clone(), rows, chunk, base)
                    });
                }
                CShape::Regions => {
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
                        pass.work(bpack, rs, 0..g.m, chunk, base)
                    });
                }
                CShape::Other => pass.work(bpack, all_runs, 0..g.m, c, 0),
            }
            pc += kc;
        }
        PACK_B.with(|b| *b.borrow_mut() = bpack);
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
    fn gemm(&self, op: &GemmOp<'_>, c: &mut [f32], ldc: usize, beta: f32, ep: Epilogue<'_>) {
        self.gemm_on(lx_parallel::pool(), op, c, ldc, beta, ep)
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

    /// The packed driver's contract as plain scalar code: per k-block of
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

    fn supported(tile: Tile) -> bool {
        match tile {
            Tile::Scalar | Tile::Fused => true,
            Tile::Avx2 => Isa::Avx2.supported(),
            Tile::Avx512 | Tile::Avx512x16 => Isa::Avx512.supported(),
        }
    }

    /// `pack_b` into a buffer holding an earlier call's (here: NaN) lanes
    /// gives the panels a zeroed buffer and the elementwise fills give — for
    /// every storage kind on every arm this host runs, so the run-decoding
    /// fills of f16 and NF4 equal their elementwise oracle bit for bit. The
    /// windows cover `ldb` past the stored width, panels narrower than `nr`,
    /// odd first columns and `kc` that is no multiple of a vector step.
    #[test]
    fn pack_b_overwrites_every_lane_of_a_reused_buffer() {
        let arms = [Isa::Scalar, Isa::Avx2, Isa::Avx512].into_iter();
        for isa in arms.filter(|isa| isa.supported()) {
            let nr = isa.tile().1;
            for layout in [Layout::Normal, Layout::Transposed] {
                for (k, n, pad, pc, kc, jc, nc) in [
                    (20, 40, 0, 3, 17, 2, 37),
                    (8, 16, 0, 0, 8, 0, 16),
                    (9, 5, 0, 1, 8, 0, 5),
                    (70, 75, 3, 5, 61, 3, 70),
                    (130, 33, 1, 1, 129, 1, 31),
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
                            let load = |i| b.get(i);
                            match layout {
                                Layout::Normal => {
                                    fill_normal_elementwise(load, dst, ldb, pc, kc, j0, width, nr)
                                }
                                Layout::Transposed => fill_transposed_elementwise(
                                    load, dst, ldb, pc, kc, j0, width, nr,
                                ),
                            }
                        }
                        let mut got = vec![f32::NAN; want.len() + 7];
                        pack_b(&mut got, isa, b, ldb, layout, pc, kc, jc, nc, nr, None);
                        let what = format!("{} {} {layout:?} nc {nc}", isa.name(), b.dtype());
                        assert_bits(&what, &got, &want);
                        assert_eq!(got.len(), want.len());
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
        // An explicit arm never leaves its own tiles, and its first tile is
        // the packed driver's geometry.
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

    /// Both driver paths — packed panels, and the single-use operands read
    /// in place (a one-tile-wide product, a B read by at most 16 rows, with
    /// and without a packed narrow last panel) — against the chain
    /// definition, across a k-block boundary, both A layouts and all three
    /// write-backs, over a NaN-poisoned C for `beta = 0`.
    #[test]
    fn driver_paths_match_the_chain_definition() {
        let fused = active_isa() != Isa::Scalar;
        let k = tiles().kc + 44;
        let mut seed = 10;
        for (m, n) in [(37, 8), (40, 16), (8, 40), (16, 64), (5, 3), (30, 40)] {
            for a_layout in [Layout::Normal, Layout::Transposed] {
                for beta in [0.0f32, 1.0, 0.5] {
                    seed += 3;
                    let (a, b) = (values(m * k, seed), values(k * n, seed + 1));
                    let op = GemmOp::contiguous(m, k, n, &a, a_layout, &b[..], Layout::Normal);
                    let c0 = if beta == 0.0 {
                        vec![f32::NAN; m * n]
                    } else {
                        values(m * n, seed + 2)
                    };
                    let mut want = c0.clone();
                    chain_gemm(&op, &mut want, n, beta, fused);
                    let mut got = c0;
                    Packed.gemm(&op, &mut got, n, beta, Epilogue::None);
                    let what = format!("{m}x{k}x{n} {a_layout:?} beta={beta}");
                    assert_bits(&what, &got, &want);
                }
            }
        }
    }
}
