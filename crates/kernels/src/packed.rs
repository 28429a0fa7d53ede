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
//! * Packing absorbs both operands' [`Layout`]s: every combination feeds the
//!   *same* microkernel, only the pack routines index differently. Edge tiles
//!   are zero-padded in the packed buffers, so the microkernel never branches
//!   on shape; write-back clamps to the valid region.
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
//! * A fused [`Epilogue`] is applied to each register tile immediately after
//!   its **final** k-block is accumulated — i.e. after the complete
//!   `beta·C + ΣA·B` sum, in the same element order as an unfused bias or
//!   GELU pass — so fused results are bit-identical to unfused ones while
//!   the separate read-modify-write passes over C disappear.
//!
//! * A grouped launch ([`Packed::gemm_grouped_on`]) reuses all of the above
//!   across the tasks of an offset table: each distinct A and B window is
//!   packed once, the microkernel runs off those panels per task, and the
//!   table's runs (or the rows of its column windows) are what the pool
//!   splits.
//!
//! Pack buffers are thread-local and reused across calls, so steady-state
//! GEMMs allocate nothing.

use crate::backend::{row_grain, scale_only, scale_row, KernelBackend, GRAIN_FLOPS};
use crate::dispatch::tiles;
use crate::epilogue::{apply_epilogue, Epilogue};
use crate::isa::{active_isa, Isa};
use crate::op::{BOperand, CShape, GemmGroup, GemmOp, GemmTask, Layout};
use lx_parallel::ThreadPool;
use std::cell::RefCell;
use std::ops::Range;

/// Register tile height of the 6×16 arms (scalar/AVX2/NEON); also the unit
/// the cache-model rounds MC to. The AVX-512 arm uses its own 14×32 tile.
pub const MR: usize = 6;
/// Register tile width of the 6×16 arms; see [`MR`].
pub const NR: usize = 16;

/// Largest register tile any arm uses — sizes fixed spill buffers.
const MR_MAX: usize = 14;
const NR_MAX: usize = 32;

/// Element type a B operand may be stored in. Packing converts to f32, so
/// the microkernel and all accumulation stay f32 regardless of storage —
/// the BLIS-style mixed-precision scheme: lower-precision operands cost one
/// conversion during the O(k·n) pack, not per O(m·k·n) FLOP.
pub(crate) trait PackElem: Copy + Sync {
    fn to_f32(self) -> f32;
}

impl PackElem for f32 {
    #[inline(always)]
    fn to_f32(self) -> f32 {
        self
    }
}

/// `u16` is interpreted as IEEE binary16 bits.
impl PackElem for u16 {
    #[inline(always)]
    fn to_f32(self) -> f32 {
        crate::half::f16_bits_to_f32(self)
    }
}

/// A B operand the pack routines can read by **flat element index** — the
/// generalisation [`PackElem`] needs once storage is no longer one element
/// per slot. Block-quantized sources resolve their per-block scale from the
/// same flat index (`scales[idx / BLOCK]`), which works under `ldb` striding
/// because the index handed in is always buffer-relative, never
/// panel-relative.
///
/// The per-panel fill hooks have elementwise defaults that reproduce the
/// classic pack loops bit-for-bit; a source with occupancy structure (the
/// N:M view) overrides them to skip work. The destination panel is always
/// pre-zeroed by [`pack_b`], so an override may legitimately skip stores of
/// `+0.0` elements.
pub(crate) trait PackSrc: Sync {
    /// Dequantized/decoded f32 value of element `idx` of the row-major
    /// buffer.
    fn load(&self, idx: usize) -> f32;

    /// Fill one pre-zeroed `nr`-wide B̃ panel from a **Normal**-layout
    /// operand: `dst[p·nr + j] = element(pc+p, col0+j)` for `p < kc`,
    /// `j < width`.
    #[allow(clippy::too_many_arguments)]
    fn fill_panel_normal(
        &self,
        dst: &mut [f32],
        ldb: usize,
        pc: usize,
        kc: usize,
        col0: usize,
        width: usize,
        nr: usize,
    ) {
        fill_normal_elementwise(self, dst, ldb, pc, kc, col0, width, nr);
    }

    /// Fill one pre-zeroed `nr`-wide B̃ panel from a **Transposed**-layout
    /// operand: `dst[p·nr + j] = element(col0+j, pc+p)`.
    #[allow(clippy::too_many_arguments)]
    fn fill_panel_transposed(
        &self,
        dst: &mut [f32],
        ldb: usize,
        pc: usize,
        kc: usize,
        col0: usize,
        width: usize,
        nr: usize,
    ) {
        fill_transposed_elementwise(self, dst, ldb, pc, kc, col0, width, nr);
    }
}

/// The classic elementwise Normal-layout panel fill (also the fallback the
/// N:M override uses when its fast-path preconditions don't hold).
#[allow(clippy::too_many_arguments)]
fn fill_normal_elementwise<S: PackSrc + ?Sized>(
    b: &S,
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
            dst[p * nr + j] = b.load(base + j);
        }
    }
}

/// Transposed-layout twin of [`fill_normal_elementwise`].
#[allow(clippy::too_many_arguments)]
fn fill_transposed_elementwise<S: PackSrc + ?Sized>(
    b: &S,
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
            dst[p * nr + j] = b.load(base + p);
        }
    }
}

impl<E: PackElem> PackSrc for [E] {
    #[inline(always)]
    fn load(&self, idx: usize) -> f32 {
        self[idx].to_f32()
    }
}

impl PackSrc for lx_quant::Q8View<'_> {
    #[inline(always)]
    fn load(&self, idx: usize) -> f32 {
        self.get(idx)
    }
}

impl PackSrc for lx_quant::Q4View<'_> {
    #[inline(always)]
    fn load(&self, idx: usize) -> f32 {
        self.get(idx)
    }
}

/// The zero-group-skipping pack arm: instead of decoding every element, walk
/// the row's occupancy groups, skip any group whose mask byte is 0 (a fully
/// pruned K-group — the structured case external masks produce), and scatter
/// only the kept slots into the pre-zeroed panel. Pack cost thus scales with
/// nnz rather than the dense element count. Writes are bit-identical to
/// packing the decoded dense matrix: pruned positions decode to `+0.0` (the
/// pre-zeroed panel), kept values land verbatim — a kept `+0.0` overwrites
/// panel zero with the same bits, and a kept `-0.0` is stored explicitly.
///
/// The group walk needs the flat index space to decompose by the view's own
/// row length, i.e. `ldb == cols`; any other striding falls back to the
/// elementwise fill, which is always correct.
impl PackSrc for lx_quant::NmView<'_> {
    #[inline(always)]
    fn load(&self, idx: usize) -> f32 {
        self.get(idx)
    }

    /// Normal layout: panel rows are k-steps (storage rows), so each storage
    /// row contributes `width` consecutive columns — the groups overlapping
    /// `[col0, col0 + width)`.
    fn fill_panel_normal(
        &self,
        dst: &mut [f32],
        ldb: usize,
        pc: usize,
        kc: usize,
        col0: usize,
        width: usize,
        nr: usize,
    ) {
        if ldb != self.cols() || width == 0 {
            return fill_normal_elementwise(self, dst, ldb, pc, kc, col0, width, nr);
        }
        let (m, n_slots) = (self.m(), self.n());
        let (g0, g1) = (col0 / m, (col0 + width - 1) / m);
        for p in 0..kc {
            let (row_masks, row_slots) = self.row(pc + p);
            let dst_row = &mut dst[p * nr..p * nr + width];
            for (g, &gmask) in row_masks.iter().enumerate().take(g1 + 1).skip(g0) {
                let mut mask = gmask;
                if mask == 0 {
                    continue;
                }
                let sbase = g * n_slots;
                let slots = &row_slots[sbase..row_slots.len().min(sbase + n_slots)];
                let gbase = g * m;
                // Writing a kept `+0.0` over the pre-zeroed panel is a
                // bit-level no-op, so kept values store unconditionally;
                // only the straddling edge groups need the column check.
                let interior = gbase >= col0 && gbase + m <= col0 + width;
                let mut rank = 0usize;
                while mask != 0 {
                    let j = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let v = slots[rank];
                    rank += 1;
                    let c = gbase + j;
                    if interior || (c >= col0 && c < col0 + width) {
                        dst_row[c - col0] = v;
                    }
                }
            }
        }
    }

    /// Transposed layout: panel columns are storage rows and the k-steps run
    /// along each row's groups — the frozen-backbone forward shape,
    /// where every output neuron's weight row is N:M sparse along k.
    fn fill_panel_transposed(
        &self,
        dst: &mut [f32],
        ldb: usize,
        pc: usize,
        kc: usize,
        col0: usize,
        width: usize,
        nr: usize,
    ) {
        if ldb != self.cols() || kc == 0 {
            return fill_transposed_elementwise(self, dst, ldb, pc, kc, col0, width, nr);
        }
        let (m, n_slots) = (self.m(), self.n());
        let (g0, g1) = (pc / m, (pc + kc - 1) / m);
        for j in 0..width {
            let (row_masks, row_slots) = self.row(col0 + j);
            for (g, &gmask) in row_masks.iter().enumerate().take(g1 + 1).skip(g0) {
                let mut mask = gmask;
                if mask == 0 {
                    continue;
                }
                let sbase = g * n_slots;
                let slots = &row_slots[sbase..row_slots.len().min(sbase + n_slots)];
                let gbase = g * m;
                let interior = gbase >= pc && gbase + m <= pc + kc;
                let mut rank = 0usize;
                while mask != 0 {
                    let jj = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let v = slots[rank];
                    rank += 1;
                    let c = gbase + jj;
                    if interior || (c >= pc && c < pc + kc) {
                        dst[(c - pc) * nr + j] = v;
                    }
                }
            }
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
/// `nc`. Panels are disjoint slices of `out`, so when a pool is given the
/// fill is carved across it (one "row" per panel).
#[allow(clippy::too_many_arguments)]
fn pack_b<S: PackSrc + ?Sized>(
    out: &mut Vec<f32>,
    b: &S,
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
    out.clear();
    out.resize(panels * panel_len, 0.0);
    let fill = |prange: Range<usize>, dst_all: &mut [f32]| {
        for (pi, panel) in prange.enumerate() {
            let j0 = panel * nr;
            let width = nr.min(nc - j0);
            let dst = &mut dst_all[pi * panel_len..(pi + 1) * panel_len];
            // The panel buffer is freshly zeroed above, so the source's fill
            // hook (elementwise default, or a sparsity-aware override that
            // skips zero groups) only needs to store nonzero elements.
            match layout {
                Layout::Normal => b.fill_panel_normal(dst, ldb, pc, kc, jc + j0, width, nr),
                Layout::Transposed => b.fill_panel_transposed(dst, ldb, pc, kc, jc + j0, width, nr),
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

/// Scalar microkernel: `C[mr×nr] += Ã-panel · B̃-panel` over `kc` k-steps.
/// Fixed-shape accumulator array so LLVM unrolls and vectorises the j loop.
/// Only used by the 6×16 packing geometry.
fn microkernel_scalar(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..kc {
        let b_row = &bp[p * NR..(p + 1) * NR];
        let a_col = &ap[p * MR..(p + 1) * MR];
        for (accs, &av) in acc.iter_mut().zip(a_col) {
            for (s, &bv) in accs.iter_mut().zip(b_row) {
                *s += av * bv;
            }
        }
    }
    for (i, accs) in acc.iter().enumerate().take(mr) {
        let c_row = &mut c[i * ldc..i * ldc + nr];
        for (cv, &s) in c_row.iter_mut().zip(accs.iter()) {
            *cv += s;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2+FMA 6×16 microkernel. `unsafe` here is confined to intrinsics
    //! plus the raw C-tile pointer arithmetic the caller has already
    //! bounds-checked; it is only reachable when [`Isa::Avx2`] passed its
    //! runtime support probe.
    use super::{MR, NR};

    /// # Safety
    /// Requires AVX2+FMA. `c` must be valid for reads/writes of `mr` rows ×
    /// `nr` cols at stride `ldc`; `ap`/`bp` must hold `kc` packed MR/NR
    /// panels.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn microkernel(
        kc: usize,
        ap: *const f32,
        bp: *const f32,
        c: *mut f32,
        ldc: usize,
        mr: usize,
        nr: usize,
    ) {
        use std::arch::x86_64::*;
        // MR×NR accumulators: 6 rows × two 8-lane halves = 12 ymm registers,
        // leaving room for the two B loads and the A broadcast.
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        for p in 0..kc {
            let b0 = _mm256_loadu_ps(bp.add(p * NR));
            let b1 = _mm256_loadu_ps(bp.add(p * NR + 8));
            for (i, lanes) in acc.iter_mut().enumerate() {
                let av = _mm256_broadcast_ss(&*ap.add(p * MR + i));
                lanes[0] = _mm256_fmadd_ps(av, b0, lanes[0]);
                lanes[1] = _mm256_fmadd_ps(av, b1, lanes[1]);
            }
        }
        if nr == NR {
            // Full-width tile (any height): vector write-back of the valid
            // rows.
            for (i, lanes) in acc.iter().enumerate().take(mr) {
                let cp = c.add(i * ldc);
                _mm256_storeu_ps(cp, _mm256_add_ps(_mm256_loadu_ps(cp), lanes[0]));
                let cp8 = cp.add(8);
                _mm256_storeu_ps(cp8, _mm256_add_ps(_mm256_loadu_ps(cp8), lanes[1]));
            }
        } else {
            // Narrow edge tile: spill the register tile and clamp the
            // write-back.
            let mut tmp = [0.0f32; MR * NR];
            for (i, lanes) in acc.iter().enumerate() {
                _mm256_storeu_ps(tmp.as_mut_ptr().add(i * NR), lanes[0]);
                _mm256_storeu_ps(tmp.as_mut_ptr().add(i * NR + 8), lanes[1]);
            }
            for i in 0..mr {
                for j in 0..nr {
                    *c.add(i * ldc + j) += tmp[i * NR + j];
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! AVX-512F 14×32 microkernel: 14 rows × two zmm halves = 28 of the 32
    //! zmm registers hold C, leaving the two B loads and the A broadcast.
    //! Only reachable when [`Isa::Avx512`] passed its runtime support probe.

    pub const MR: usize = 14;
    pub const NR: usize = 32;

    /// # Safety
    /// Requires AVX-512F. `c` must be valid for reads/writes of `mr` rows ×
    /// `nr` cols at stride `ldc`; `ap`/`bp` must hold `kc` packed 14/32
    /// panels.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn microkernel(
        kc: usize,
        ap: *const f32,
        bp: *const f32,
        c: *mut f32,
        ldc: usize,
        mr: usize,
        nr: usize,
    ) {
        use std::arch::x86_64::*;
        let mut acc = [[_mm512_setzero_ps(); 2]; MR];
        for p in 0..kc {
            let b0 = _mm512_loadu_ps(bp.add(p * NR));
            let b1 = _mm512_loadu_ps(bp.add(p * NR + 16));
            for (i, lanes) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*ap.add(p * MR + i));
                lanes[0] = _mm512_fmadd_ps(av, b0, lanes[0]);
                lanes[1] = _mm512_fmadd_ps(av, b1, lanes[1]);
            }
        }
        if nr == NR {
            // Full-width tile (any height): vector write-back of the valid
            // rows.
            for (i, lanes) in acc.iter().enumerate().take(mr) {
                let cp = c.add(i * ldc);
                _mm512_storeu_ps(cp, _mm512_add_ps(_mm512_loadu_ps(cp), lanes[0]));
                let cp16 = cp.add(16);
                _mm512_storeu_ps(cp16, _mm512_add_ps(_mm512_loadu_ps(cp16), lanes[1]));
            }
        } else {
            // Narrow edge tile: spill the register tile and clamp the
            // write-back.
            let mut tmp = [0.0f32; MR * NR];
            for (i, lanes) in acc.iter().enumerate() {
                _mm512_storeu_ps(tmp.as_mut_ptr().add(i * NR), lanes[0]);
                _mm512_storeu_ps(tmp.as_mut_ptr().add(i * NR + 16), lanes[1]);
            }
            for i in 0..mr {
                for j in 0..nr {
                    *c.add(i * ldc + j) += tmp[i * NR + j];
                }
            }
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    //! NEON 6×16 microkernel: 6 rows × four 4-lane q-registers = 24
    //! accumulators, leaving the four B loads and the A broadcast. Only
    //! reachable when [`Isa::Neon`] passed its runtime support probe.
    use super::{MR, NR};

    /// # Safety
    /// Requires NEON. `c` must be valid for reads/writes of `mr` rows ×
    /// `nr` cols at stride `ldc`; `ap`/`bp` must hold `kc` packed MR/NR
    /// panels.
    #[target_feature(enable = "neon")]
    pub unsafe fn microkernel(
        kc: usize,
        ap: *const f32,
        bp: *const f32,
        c: *mut f32,
        ldc: usize,
        mr: usize,
        nr: usize,
    ) {
        use std::arch::aarch64::*;
        let mut acc = [[vdupq_n_f32(0.0); 4]; MR];
        for p in 0..kc {
            let bq = [
                vld1q_f32(bp.add(p * NR)),
                vld1q_f32(bp.add(p * NR + 4)),
                vld1q_f32(bp.add(p * NR + 8)),
                vld1q_f32(bp.add(p * NR + 12)),
            ];
            for (i, lanes) in acc.iter_mut().enumerate() {
                let av = vdupq_n_f32(*ap.add(p * MR + i));
                for (l, &bv) in lanes.iter_mut().zip(bq.iter()) {
                    *l = vfmaq_f32(*l, av, bv);
                }
            }
        }
        if mr == MR && nr == NR {
            for (i, lanes) in acc.iter().enumerate() {
                let cp = c.add(i * ldc);
                for (q, l) in lanes.iter().enumerate() {
                    let p = cp.add(q * 4);
                    vst1q_f32(p, vaddq_f32(vld1q_f32(p), *l));
                }
            }
        } else {
            // Edge tile: spill the register tile and clamp the write-back.
            let mut tmp = [0.0f32; MR * NR];
            for (i, lanes) in acc.iter().enumerate() {
                for (q, l) in lanes.iter().enumerate() {
                    vst1q_f32(tmp.as_mut_ptr().add(i * NR + q * 4), *l);
                }
            }
            for i in 0..mr {
                for j in 0..nr {
                    *c.add(i * ldc + j) += tmp[i * NR + j];
                }
            }
        }
    }
}

/// Dispatch one register tile to the active arm's microkernel. `isa` has
/// already passed its runtime support probe in [`active_isa`], and the
/// packing geometry matches `isa.tile()`.
#[allow(clippy::too_many_arguments)]
#[inline]
fn microkernel(
    isa: Isa,
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let (tmr, tnr) = isa.tile();
    debug_assert!(ap.len() >= kc * tmr && bp.len() >= kc * tnr);
    debug_assert!(mr <= tmr && nr <= tnr && mr > 0 && nr > 0);
    debug_assert!(c.len() >= (mr - 1) * ldc + nr);
    debug_assert!(tmr <= MR_MAX && tnr <= NR_MAX);
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: feature presence was checked at runtime by `active_isa`;
        // the debug asserts document the bounds the (checked) slice
        // arguments guarantee.
        Isa::Avx2 => unsafe {
            avx2::microkernel(kc, ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr(), ldc, mr, nr);
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, for AVX-512F.
        Isa::Avx512 => unsafe {
            avx512::microkernel(kc, ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr(), ldc, mr, nr);
        },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: as above, for NEON.
        Isa::Neon => unsafe {
            neon::microkernel(kc, ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr(), ldc, mr, nr);
        },
        _ => microkernel_scalar(kc, ap, bp, c, ldc, mr, nr),
    }
}

/// The packed/tiled backend. Tile sizes (MC/KC/NC) are read from the global
/// [`KernelPolicy`](crate::KernelPolicy) at call time, so an installed policy
/// takes effect immediately; the microkernel arm follows [`active_isa`].
pub struct Packed;

impl Packed {
    /// The macro-kernel, generic over the B source so the storage dispatch
    /// happens once per call and the pack loops stay statically typed.
    #[allow(clippy::too_many_arguments)]
    fn driver<S: PackSrc + ?Sized>(
        &self,
        pool: &ThreadPool,
        op: &GemmOp<'_>,
        b: &S,
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
        // Nested call (inside a pool worker) or explicit
        // `with_sequential`: run the whole macro-kernel on this thread.
        let seq = crate::sequential_mode();
        // One beta pass up front; every k-block then accumulates. The extra
        // sweep over C costs O(m·n) against the O(m·n·k) product and only
        // runs for shapes the dispatcher already deemed compute-bound —
        // accepted in exchange for a branch-free microkernel write-back.
        if beta != 1.0 {
            scale_only(c, m, n, ldc, beta);
        }
        if k == 0 {
            // Degenerate product: the "sum" is just the beta pre-scale, so
            // the epilogue becomes a standalone pass.
            apply_epilogue(c, m, n, ldc, ep);
            return;
        }
        let isa = active_isa();
        let (tmr, tnr) = isa.tile();
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
                // The epilogue folds into the write-back of the *final*
                // k-block only, i.e. after the complete accumulated sum.
                let ep_blk = if pc + kc == k { ep } else { Epilogue::None };
                pack_b(
                    &mut bpack,
                    b,
                    ldb,
                    b_layout,
                    pc,
                    kc,
                    jc,
                    nc,
                    tnr,
                    (!seq).then_some(pool),
                );
                let bpack_ref = &bpack;
                let grain = row_grain(kc, nc).max(tmr);
                let macro_rows = |rows: Range<usize>, chunk: &mut [f32]| {
                    PACK_A.with(|apack| {
                        let apack = &mut *apack.borrow_mut();
                        let mut ic = rows.start;
                        while ic < rows.end {
                            let mcb = mc.min(rows.end - ic);
                            pack_a(apack, a, lda, a_layout, ic, mcb, pc, kc, tmr);
                            for jr in (0..nc).step_by(tnr) {
                                let nr = tnr.min(nc - jr);
                                let bp = &bpack_ref[(jr / tnr) * kc * tnr..];
                                for ir in (0..mcb).step_by(tmr) {
                                    let mr = tmr.min(mcb - ir);
                                    let ap = &apack[(ir / tmr) * kc * tmr..];
                                    let coff = (ic - rows.start + ir) * ldc + jc + jr;
                                    microkernel(isa, kc, ap, bp, &mut chunk[coff..], ldc, mr, nr);
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
}

/// The microkernel arm a grouped launch of `m×n` tasks runs: the one that
/// issues the fewest vector instructions per k-step over the task padded to
/// its register tile. A 16×16 score block fills 3 of the 6×16 AVX2 tiles but
/// wastes two thirds of the 14×32 AVX-512 tiles it would need, so on an
/// AVX-512 host the narrower arm can win; never an arm wider than
/// [`active_isa`] allows. The FMA arms agree bit for bit (every C element is
/// one fused multiply-add chain over `k` in either), so the choice never
/// shows in the result.
fn group_isa(m: usize, n: usize) -> Isa {
    let active = active_isa();
    let instructions = |isa: Isa, lanes: usize| {
        let (mr, nr) = isa.tile();
        m.div_ceil(mr) * mr * n.div_ceil(nr) * nr / lanes
    };
    if active == Isa::Avx512
        && Isa::Avx2.supported()
        && instructions(Isa::Avx2, 8) < instructions(Isa::Avx512, 16)
    {
        Isa::Avx2
    } else {
        active
    }
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
    isa: Isa,
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
}

impl GroupPass<'_> {
    /// Pack B̃ for this block: every distinct B window once (or, widened,
    /// their columns gathered into shared panels).
    fn pack_b(&self, out: &mut Vec<f32>, pool: Option<&ThreadPool>) {
        let (g, kc, pc) = (self.g, self.kc, self.pc);
        let (_, nr) = self.isa.tile();
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
                    let b = &g.b.data[window * g.b.stride..];
                    let dst = &mut dst[v - cols.start..];
                    match g.b.layout {
                        Layout::Normal => b.fill_panel_normal(dst, g.b.ld, pc, kc, j, width, nr),
                        Layout::Transposed => {
                            b.fill_panel_transposed(dst, g.b.ld, pc, kc, j, width, nr)
                        }
                    }
                    v += width;
                }
            }
        };
        let grain = ((1 << 15) / panel_len).max(1);
        match pool {
            Some(pool) if panels > grain => pool.par_rows(out, panels, panel_len, grain, fill),
            _ => fill(0..panels, out),
        }
    }

    /// Runs `rs`, rows `rows` of every C window, off the packed `bpack` into
    /// `chunk`, which starts at element `base` of C. Packs the A windows it
    /// meets into this thread's panels, laid out `[row panel][slot][kc][mr]`
    /// like B̃.
    fn work(
        &self,
        bpack: &[f32],
        rs: Range<usize>,
        rows: Range<usize>,
        chunk: &mut [f32],
        base: usize,
    ) {
        let (g, kc, pc, isa) = (self.g, self.kc, self.pc, self.isa);
        let (mr, nr) = isa.tile();
        let a_windows = g.table.a_windows();
        let m_panels = rows.len().div_ceil(mr);
        let height = |ip: usize| mr.min(rows.len() - ip * mr);
        let a_panel = |ip: usize, slot: usize| (ip * a_windows.len() + slot) * kc * mr;
        PACK_A.with(|apack| {
            PACKED_SLOTS.with(|packed| {
                let apack = &mut *apack.borrow_mut();
                let packed = &mut *packed.borrow_mut();
                apack.resize(m_panels * a_windows.len() * kc * mr, 0.0);
                packed.clear();
                packed.resize(a_windows.len(), false);
                for run in rs {
                    let run = &self.tasks[self.runs[run] as usize..self.runs[run + 1] as usize];
                    let Some(first) = run.first() else { continue };
                    let c_off = g.c_offset(first) + rows.start * g.ldc - base;
                    if pc == 0 && g.beta != 1.0 {
                        for i in 0..rows.len() {
                            let row = c_off + i * g.ldc;
                            scale_row(&mut chunk[row..row + self.cols], g.beta);
                        }
                    }
                    let mut t = 0;
                    while t < run.len() && kc > 0 {
                        let (a0, b0) = (run[t].a as usize, run[t].b as usize);
                        // Tasks over consecutive slots: one deeper call.
                        let mut depth = 1;
                        while run.get(t + depth).is_some_and(|next| {
                            next.a as usize == a0 + depth && next.b as usize == b0 + depth
                        }) {
                            depth += 1;
                        }
                        for slot in a0..a0 + depth {
                            if std::mem::replace(&mut packed[slot], true) {
                                continue;
                            }
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
                            let bp = &bpack[(jp * self.b_slots + b0) * kc * nr..];
                            let width = nr.min(self.cols - jp * nr);
                            for ip in 0..m_panels {
                                let ap = &apack[a_panel(ip, a0)..];
                                let tile = &mut chunk[c_off + ip * mr * g.ldc + jp * nr..];
                                microkernel(
                                    isa,
                                    depth * kc,
                                    ap,
                                    bp,
                                    tile,
                                    g.ldc,
                                    height(ip),
                                    width,
                                );
                            }
                        }
                        t += depth;
                    }
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
        match &op.b {
            BOperand::F32(b) => self.driver(pool, op, *b, c, ldc, beta, ep),
            BOperand::F16(b) => self.driver(pool, op, *b, c, ldc, beta, ep),
            BOperand::Q8(b) => self.driver(pool, op, b, c, ldc, beta, ep),
            BOperand::Q4(b) => self.driver(pool, op, b, c, ldc, beta, ep),
            BOperand::Nm(b) => self.driver(pool, op, b, c, ldc, beta, ep),
        }
    }

    /// [`KernelBackend::gemm_grouped`] on an explicit pool and, when `isa` is
    /// given, an explicit microkernel arm (tests and benches; `None` picks
    /// the arm from the task shape).
    ///
    /// Every distinct B window is packed once per launch and shared
    /// read-only; every distinct A window is packed once per thread that
    /// needs it, into thread-local panels; the register-tile microkernel then
    /// runs straight off those panels for each task in table order. Tasks of
    /// a run whose A *and* B slots are consecutive read contiguous panels and
    /// collapse into one deeper microkernel call, and a launch of adjacent
    /// column windows runs as one wide product (see `is_wide`) — properties
    /// of the table, so every C element sees the same accumulation order
    /// however the launch is split: by rows when the C windows are column
    /// windows of one matrix (neuron slabs), by task count per run when they
    /// are separate regions (score blocks, block rows), inline when
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
        let (cols, runs, tasks, b_slots) = if is_wide(g, shape) {
            let tasks = table.tasks();
            (tasks.len() * g.n, &[0, 1][..], &tasks[..1], 1)
        } else {
            (g.n, table.runs(), table.tasks(), table.b_windows().len())
        };
        let isa = isa.unwrap_or_else(|| group_isa(g.m, cols));
        assert!(isa.supported(), "gemm group: {} not supported", isa.name());
        let seq = crate::sequential_mode();
        let kc_max = tiles().kc.max(1);
        // As in `driver`: taken, not borrowed, across the parallel section.
        let mut bpack = PACK_B.with(|b| std::mem::take(&mut *b.borrow_mut()));
        let mut pc = 0;
        loop {
            let kc = kc_max.min(g.k - pc);
            let pass = GroupPass {
                g,
                isa,
                pc,
                kc,
                cols,
                runs,
                tasks,
                b_slots,
            };
            pass.pack_b(&mut bpack, (!seq).then_some(pool));
            let bpack = &bpack;
            let all_runs = 0..runs.len() - 1;
            // Multiply-adds behind one row of every C window.
            let row_macs = g.k * g.n * table.tasks().len();
            match shape {
                _ if seq => pass.work(bpack, all_runs, 0..g.m, c, 0),
                CShape::Columns => {
                    let grain = (GRAIN_FLOPS / row_macs.max(1)).max(isa.tile().0);
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
            if pc >= g.k {
                break;
            }
        }
        PACK_B.with(|b| *b.borrow_mut() = bpack);
    }
}

impl KernelBackend for Packed {
    fn name(&self) -> &'static str {
        "packed"
    }

    /// Every storage kind feeds the same macro-kernel: the decode (f16 bits,
    /// int8/NF4 dequant, N:M group expansion with zero-group skipping — see
    /// the `PackSrc` impls) is fused into the B̃ pack, so a dense f32 B is
    /// never materialised and the microkernel runs unchanged on f32 panels.
    fn gemm(&self, op: &GemmOp<'_>, c: &mut [f32], ldc: usize, beta: f32, ep: Epilogue<'_>) {
        self.gemm_on(lx_parallel::pool(), op, c, ldc, beta, ep)
    }

    fn gemm_grouped(&self, group: &GemmGroup<'_>, c: &mut [f32]) {
        self.gemm_grouped_on(lx_parallel::pool(), None, group, c)
    }
}
