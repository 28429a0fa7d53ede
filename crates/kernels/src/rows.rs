//! Row kernels: the per-row passes outside any GEMM — softmax forward and
//! backward, LayerNorm forward and backward, ReLU, and the log-sum-exp
//! behind cross-entropy — built on one polynomial `exp`.
//!
//! Every kernel is *defined* by a scalar routine over [`LANES`] virtual
//! lanes: element `j` of a row segment accumulates into lane `j mod 16`, and
//! the lanes combine through a fixed tree (`l += l+8`, `+4`, `+2`, `+1`).
//! The kernels are written once, generic over a private sixteen-lane value
//! type: plain `[f32; 16]` arrays give the definition, two `ymm` / one `zmm`
//! register give the AVX2 / AVX-512 arms, and every lane operation is the
//! one instruction with the identical IEEE result — so the arms are
//! bit-identical to the definition, and a result depends on the row's values
//! alone, never on the arm, the thread count or how rows were partitioned.
//! `exp` uses fused multiply-adds, which the definition spells
//! `f32::mul_add` — exact everywhere, but a libm call per FMA on an x86
//! build without the `fma` feature, so the forced-scalar arm is the slow
//! reference (~25 ns per `exp`), not a fast path.
//!
//! **No subnormal leaves the softmax pair.** The floor gives every kept
//! probability ≥ 2⁻⁶⁴ / row length, and the backward flushes what is left
//! below the normal range. A subnormal operand or result costs an x86 FMA a
//! microcode assist of ~100+ cycles, and the attention launches reading P
//! and dS — `dsd`, `dsd_tn` — would pay it on every product: a dense causal
//! step at S = 512 used to write ~900 subnormal P and ~17 k subnormal dS per
//! layer, and its dQ / dK launches ran ~3.5x slower for it. The rule is part of
//! the definition, so every arm keeps it bit for bit; nothing sets the
//! per-thread MXCSR flush-to-zero / denormals-are-zero modes, which would make
//! a result depend on the thread that computed it.
//!
//! **The softmax pair works 16 rows at a time.** A band's rows are taken in
//! tiles of 16, each row with its own lane accumulators, and every pass
//! sweeps a segment for the whole tile before the next segment: a 16×16
//! block of block-row data is one straight run of sixteen row chunks, its
//! causal geometry worked out once per block instead of once per row, and a
//! block every row of the tile sees whole skips the causal mask. Every row
//! still folds its segments into the same lanes in the same order, so the
//! tiled kernels equal the row-at-a-time definition bit for bit. On the
//! AVX-512 arm, single-threaded over S = 512 block rows (dense and
//! d = 0.23), the forward went from ~0.95–1.8 to ~0.6 ns per element and the
//! backward from ~0.6–1.0 to ~0.35–0.4.
//!
//! The first argument of every kernel is the arm to run, normally
//! [`active_isa()`](crate::active_isa); an arm the host cannot execute, and
//! `Isa::Scalar` / `Isa::Neon`, run the definition itself.
//!
//! | kernel | definition | error |
//! |---|---|---|
//! | [`exp`] | `n = round(x·log₂e)`, `r = x − n·ln2` (two-constant Cody–Waite), `1 + r + r²·P₅(r)` Horner in FMAs, `·2ⁿ` through the exponent bits | ≤ 2 ulp on `[−87.3, 0]` (measured 1.01); `exp(0) = 1`, `x < −87.3 → 0`, NaN → NaN |
//! | [`softmax_forward`] | `v = scale·s − slope·(q−k)` up to the causal limit, lane max, `exp(v − max)` — exactly 0 where `v − max < −64·ln 2` — + lane sum, `· 1/sum`; rows in tiles of 16 | `exp` + one rounding per add; the dropped mass is < 2⁻⁶⁴ per element |
//! | [`softmax_backward`] | lane sum of `p·dp`, `ds = p·(dp − dot)·scale`, flushed to +0 where `\|ds\| < f32::MIN_POSITIVE`; rows in tiles of 16 | exact ops only |
//! | [`layernorm_forward`] / [`layernorm_backward`] | lane sums for mean, variance and the two backward moments | exact ops only |
//! | [`relu`] / [`relu_backward`] | elementwise | exact |
//! | [`log_sum_exp`] | lane max, `exp(x − max)` + lane sum (optionally written out as `softmax·coef`) | `exp` |

use crate::isa::Isa;

const NEG_INF: f32 = f32::NEG_INFINITY;

/// Virtual lanes of every reduction: one AVX-512 register, two AVX2 ones.
pub const LANES: usize = 16;

/// Elements per pool task below which a row pass stays on the calling
/// thread. On the AVX-512 arm, single-threaded over the block rows of one
/// S = 512 layer (dense causal and d = 0.23), the 16-row tiled softmax
/// forward costs ~0.6 ns per element over its three passes and the backward
/// ~0.35–0.4 ns over its two, so a task this size lasts ~45–80 µs: three to
/// eight times the 10–16 µs the pool takes to wake its first worker, which
/// a smaller task would spend a large share of waiting for.
pub const PAR_GRAIN: usize = 1 << 17;

// ---------------------------------------------------------------------------
// Sixteen lanes
// ---------------------------------------------------------------------------

type Chunk = [f32; LANES];

/// Sixteen `f32` lanes by value. [`Scalar`] — plain arrays — *defines* every
/// operation; the register types implement the same operation with the
/// instruction whose IEEE result is identical, so a kernel written once over
/// `L: Lanes` computes the same bits on every arm. Private to this module:
/// the register types execute their instructions unconditionally, and only
/// the `arms!` wrappers — entered after a CPU check — instantiate them.
trait Lanes: Copy {
    fn splat(x: f32) -> Self;
    fn load(c: &Chunk) -> Self;
    fn store(self, c: &mut Chunk);
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    /// `self·b + c` with one rounding.
    fn mul_add(self, b: Self, c: Self) -> Self;
    /// `self > o ? self : o` — the `max` of both vector ISAs: a NaN `self`
    /// is dropped, a NaN `o` kept.
    fn max_or(self, o: Self) -> Self;
    /// `self < o ? then : otherwise`, lane by lane.
    fn lt_select(self, o: Self, then: Self, otherwise: Self) -> Self;
    /// `2ⁿ` from `n + 1.5·2²³` (the integer sits in the low mantissa bits):
    /// `from_bits((bits + 127) << 23)`.
    fn pow2_of_rounded(self) -> Self;
    /// Fold through the fixed tree `l += l+8, +4, +2, +1`.
    fn tree_sum(self) -> f32;
    /// The same tree under [`max_or`](Self::max_or), lower lane first.
    fn tree_max(self) -> f32;
}

/// Lane numbers as floats: position tests and distances stay in `f32`
/// vector arithmetic (AVX-512F and AVX2 have no unsigned-to-float convert).
const LANE: Chunk = {
    let mut lane = [0.0; LANES];
    let mut l = 0;
    while l < LANES {
        lane[l] = l as f32;
        l += 1;
    }
    lane
};

#[derive(Clone, Copy)]
struct Scalar(Chunk);

macro_rules! lanewise {
    ($name:ident($s:ident $(, $arg:ident)*) = $e:expr) => {
        #[inline(always)]
        fn $name(self $(, $arg: Self)*) -> Self {
            let mut out = [0.0; LANES];
            for l in 0..LANES {
                let ($s, $($arg),*) = (self.0[l], $($arg.0[l]),*);
                out[l] = $e;
            }
            Scalar(out)
        }
    };
}

impl Lanes for Scalar {
    #[inline(always)]
    fn splat(x: f32) -> Self {
        Scalar([x; LANES])
    }
    #[inline(always)]
    fn load(c: &Chunk) -> Self {
        Scalar(*c)
    }
    #[inline(always)]
    fn store(self, c: &mut Chunk) {
        *c = self.0;
    }
    lanewise!(add(s, o) = s + o);
    lanewise!(sub(s, o) = s - o);
    lanewise!(mul(s, o) = s * o);
    lanewise!(mul_add(s, b, c) = s.mul_add(b, c));
    lanewise!(max_or(s, o) = if s > o { s } else { o });
    lanewise!(lt_select(s, o, then, otherwise) = if s < o { then } else { otherwise });
    lanewise!(pow2_of_rounded(s) = f32::from_bits(s.to_bits().wrapping_add(127) << 23));
    #[inline(always)]
    fn tree_sum(self) -> f32 {
        let mut lanes = self.0;
        let mut w = LANES / 2;
        while w > 0 {
            for l in 0..w {
                lanes[l] += lanes[l + w];
            }
            w /= 2;
        }
        lanes[0]
    }
    #[inline(always)]
    fn tree_max(self) -> f32 {
        let mut lanes = self.0;
        let mut w = LANES / 2;
        while w > 0 {
            for l in 0..w {
                let (a, b) = (lanes[l], lanes[l + w]);
                lanes[l] = if a > b { a } else { b };
            }
            w /= 2;
        }
        lanes[0]
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Chunk, Lanes};
    use std::arch::x86_64::*;

    /// Two `ymm`: lanes 0–7 and 8–15.
    #[derive(Clone, Copy)]
    pub(super) struct Avx2(__m256, __m256);

    /// One `zmm`.
    #[derive(Clone, Copy)]
    pub(super) struct Avx512(__m512);

    // SAFETY (every `unsafe` block below): these types are private to
    // `rows` and only ever instantiated inside the `arms!` wrappers, which
    // enable the features the intrinsics need and are entered only after
    // `Isa::supported()` confirmed them on this CPU. Loads and stores go
    // through `&Chunk` references, valid for 16 unaligned `f32`s.

    /// `l += l+4, +2, +1` over the eight lanes left after the first fold.
    #[inline(always)]
    fn fold8(v: __m256, op: impl Fn(__m128, __m128) -> __m128) -> f32 {
        unsafe {
            let s4 = op(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
            let s2 = op(s4, _mm_movehl_ps(s4, s4));
            _mm_cvtss_f32(op(s2, _mm_shuffle_ps::<1>(s2, s2)))
        }
    }

    #[inline(always)]
    fn add4(a: __m128, b: __m128) -> __m128 {
        unsafe { _mm_add_ps(a, b) }
    }

    #[inline(always)]
    fn max4(a: __m128, b: __m128) -> __m128 {
        unsafe { _mm_max_ps(a, b) }
    }

    macro_rules! both {
        ($name:ident($($arg:ident),*) = $op:ident) => {
            #[inline(always)]
            fn $name(self $(, $arg: Self)*) -> Self {
                unsafe { Avx2($op(self.0 $(, $arg.0)*), $op(self.1 $(, $arg.1)*)) }
            }
        };
    }

    impl Lanes for Avx2 {
        #[inline(always)]
        fn splat(x: f32) -> Self {
            unsafe { Avx2(_mm256_set1_ps(x), _mm256_set1_ps(x)) }
        }
        #[inline(always)]
        fn load(c: &Chunk) -> Self {
            unsafe {
                Avx2(
                    _mm256_loadu_ps(c.as_ptr()),
                    _mm256_loadu_ps(c.as_ptr().add(8)),
                )
            }
        }
        #[inline(always)]
        fn store(self, c: &mut Chunk) {
            unsafe {
                _mm256_storeu_ps(c.as_mut_ptr(), self.0);
                _mm256_storeu_ps(c.as_mut_ptr().add(8), self.1);
            }
        }
        both!(add(o) = _mm256_add_ps);
        both!(sub(o) = _mm256_sub_ps);
        both!(mul(o) = _mm256_mul_ps);
        both!(mul_add(b, c) = _mm256_fmadd_ps);
        both!(max_or(o) = _mm256_max_ps);
        #[inline(always)]
        fn lt_select(self, o: Self, then: Self, otherwise: Self) -> Self {
            unsafe {
                let lt = (
                    _mm256_cmp_ps::<_CMP_LT_OQ>(self.0, o.0),
                    _mm256_cmp_ps::<_CMP_LT_OQ>(self.1, o.1),
                );
                Avx2(
                    _mm256_blendv_ps(otherwise.0, then.0, lt.0),
                    _mm256_blendv_ps(otherwise.1, then.1, lt.1),
                )
            }
        }
        #[inline(always)]
        fn pow2_of_rounded(self) -> Self {
            unsafe {
                let bias = _mm256_set1_epi32(127);
                let lo = _mm256_add_epi32(_mm256_castps_si256(self.0), bias);
                let hi = _mm256_add_epi32(_mm256_castps_si256(self.1), bias);
                Avx2(
                    _mm256_castsi256_ps(_mm256_slli_epi32::<23>(lo)),
                    _mm256_castsi256_ps(_mm256_slli_epi32::<23>(hi)),
                )
            }
        }
        #[inline(always)]
        fn tree_sum(self) -> f32 {
            fold8(unsafe { _mm256_add_ps(self.0, self.1) }, add4)
        }
        #[inline(always)]
        fn tree_max(self) -> f32 {
            fold8(unsafe { _mm256_max_ps(self.0, self.1) }, max4)
        }
    }

    macro_rules! one {
        ($name:ident($($arg:ident),*) = $op:ident) => {
            #[inline(always)]
            fn $name(self $(, $arg: Self)*) -> Self {
                unsafe { Avx512($op(self.0 $(, $arg.0)*)) }
            }
        };
    }

    /// Lanes 0–7 and 8–15 of a `zmm`.
    #[inline(always)]
    fn halves(v: __m512) -> (__m256, __m256) {
        unsafe {
            let hi = _mm512_extractf64x4_pd::<1>(_mm512_castps_pd(v));
            (_mm512_castps512_ps256(v), _mm256_castpd_ps(hi))
        }
    }

    impl Lanes for Avx512 {
        #[inline(always)]
        fn splat(x: f32) -> Self {
            unsafe { Avx512(_mm512_set1_ps(x)) }
        }
        #[inline(always)]
        fn load(c: &Chunk) -> Self {
            unsafe { Avx512(_mm512_loadu_ps(c.as_ptr())) }
        }
        #[inline(always)]
        fn store(self, c: &mut Chunk) {
            unsafe { _mm512_storeu_ps(c.as_mut_ptr(), self.0) }
        }
        one!(add(o) = _mm512_add_ps);
        one!(sub(o) = _mm512_sub_ps);
        one!(mul(o) = _mm512_mul_ps);
        one!(mul_add(b, c) = _mm512_fmadd_ps);
        one!(max_or(o) = _mm512_max_ps);
        #[inline(always)]
        fn lt_select(self, o: Self, then: Self, otherwise: Self) -> Self {
            unsafe {
                let lt = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(self.0, o.0);
                Avx512(_mm512_mask_blend_ps(lt, otherwise.0, then.0))
            }
        }
        #[inline(always)]
        fn pow2_of_rounded(self) -> Self {
            unsafe {
                let biased = _mm512_add_epi32(_mm512_castps_si512(self.0), _mm512_set1_epi32(127));
                Avx512(_mm512_castsi512_ps(_mm512_slli_epi32::<23>(biased)))
            }
        }
        #[inline(always)]
        fn tree_sum(self) -> f32 {
            let (lo, hi) = halves(self.0);
            fold8(unsafe { _mm256_add_ps(lo, hi) }, add4)
        }
        #[inline(always)]
        fn tree_max(self) -> f32 {
            let (lo, hi) = halves(self.0);
            fold8(unsafe { _mm256_max_ps(lo, hi) }, max4)
        }
    }
}

/// Chunk `s[at..at + 16]`; past the end of `s`, lanes read `pad`.
#[inline(always)]
fn load_at<L: Lanes>(s: &[f32], at: usize, pad: f32) -> L {
    match s[at..].first_chunk::<LANES>() {
        Some(chunk) => L::load(chunk),
        None => {
            let mut buf = [pad; LANES];
            buf[..s.len() - at].copy_from_slice(&s[at..]);
            L::load(&buf)
        }
    }
}

/// Write `v` to `s[at..at + 16]`, dropping the lanes past the end of `s`.
#[inline(always)]
fn store_at<L: Lanes>(v: L, s: &mut [f32], at: usize) {
    match s[at..].first_chunk_mut::<LANES>() {
        Some(chunk) => v.store(chunk),
        None => {
            let mut buf = [0.0; LANES];
            v.store(&mut buf);
            let n = s.len() - at;
            s[at..].copy_from_slice(&buf[..n]);
        }
    }
}

/// The first `left` lanes of `v`, `rest` in the others.
#[inline(always)]
fn first<L: Lanes>(v: L, left: f32, rest: f32) -> L {
    L::load(&LANE).lt_select(L::splat(left), v, L::splat(rest))
}

// ---------------------------------------------------------------------------
// exp
// ---------------------------------------------------------------------------

/// Below this `exp` underflows the normal range; results are flushed to 0.
const EXP_LO: f32 = -87.336_54;
/// `1.5·2²³`: adding it rounds to the nearest integer and leaves that
/// integer in the low mantissa bits.
const ROUND: f32 = 12_582_912.0;
/// `ln 2` split so that `n·LN2_HI` is exact for `|n| ≤ 2⁹`.
const LN2_HI: f32 = 0.693_145_75;
const LN2_LO: f32 = 1.428_606_8e-6;
/// Cephes `expf` minimax coefficients of `(eʳ − 1 − r)/r²` on `|r| ≤ ln2/2`.
const EXP_POLY: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    0.5,
];

/// `eˣ` for `x ≤ 0` (the only arguments a max-subtracted softmax produces).
/// NaN stays NaN: the clamp is `lo > x ? lo : x`, which keeps `x` when the
/// comparison fails, where `max(x, lo)` would silently return `lo`.
#[inline(always)]
fn exp_lanes<L: Lanes>(x: L) -> L {
    let lo = L::splat(EXP_LO);
    let xc = lo.max_or(x);
    let round = L::splat(ROUND);
    let t = xc.mul_add(L::splat(std::f32::consts::LOG2_E), round);
    let n = t.sub(round);
    let r = n.mul_add(L::splat(-LN2_LO), n.mul_add(L::splat(-LN2_HI), xc));
    let mut p = L::splat(EXP_POLY[0]);
    for c in &EXP_POLY[1..] {
        p = p.mul_add(r, L::splat(*c));
    }
    let y = p.mul_add(r.mul(r), r).add(L::splat(1.0));
    // n ∈ [−126, 0]: 2ⁿ is a normal number built from the exponent bits.
    x.lt_select(lo, L::splat(0.0), y.mul(t.pow2_of_rounded()))
}

#[inline(always)]
fn exp_def<L: Lanes>(x: &mut [f32]) {
    let mut j0 = 0;
    while j0 < x.len() {
        store_at(exp_lanes(load_at::<L>(x, j0, 0.0)), x, j0);
        j0 += LANES;
    }
}

arms! {
    /// `x[i] = exp(x[i])` for non-positive (or NaN) `x[i]`; see the module
    /// table.
    pub fn exp(x: &mut [f32]) = exp_def;
}

// ---------------------------------------------------------------------------
// Softmax over segmented rows
// ---------------------------------------------------------------------------

/// Where a band of logical rows lives inside one buffer: row `r` starts at
/// `r·row_stride` and is `segments` runs of `width` elements, `seg_stride`
/// apart. A dense matrix is one segment per row; block-row `br` of block-CSR
/// data is `b` rows of `n_entries` segments of `b` at stride `b²`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Band {
    pub rows: usize,
    pub row_stride: usize,
    pub segments: usize,
    pub width: usize,
    pub seg_stride: usize,
}

impl Band {
    /// `rows` contiguous rows of `width`.
    pub fn dense(rows: usize, width: usize) -> Band {
        Band {
            rows,
            row_stride: width,
            segments: 1,
            width,
            seg_stride: width,
        }
    }

    /// The `b` rows of one block-row holding `entries` consecutive `b×b`
    /// blocks.
    pub fn block_row(b: usize, entries: usize) -> Band {
        Band {
            rows: b,
            row_stride: b,
            segments: entries,
            width: b,
            seg_stride: b * b,
        }
    }

    /// Segment `e` of row `r` as a range of the band's buffer.
    #[inline(always)]
    fn seg(&self, r: usize, e: usize) -> std::ops::Range<usize> {
        let start = r * self.row_stride + e * self.seg_stride;
        start..start + self.width
    }
}

/// Causal geometry of a band: which query each row is and which keys each
/// segment holds. Row `r` is query `q0 + r` and attends keys `0..=q0 + r`;
/// segment `e` starts at key `cols[e]·width`. Positions past the limit are
/// never read and come out as exact zeros.
#[derive(Clone, Copy, Debug)]
pub struct Causal<'a> {
    pub q0: usize,
    pub cols: &'a [u32],
    /// ALiBi slope: `score[q, k] −= slope·(q − k)`; 0 for none.
    pub slope: f32,
}

/// `(valid, live, d0)` of segment `e` in row `r`: the causal prefix length,
/// that prefix rounded up to whole lanes (what the chunked passes touch), and
/// the distance `q − k` of the segment's first key.
#[inline(always)]
fn prefix(causal: Option<Causal<'_>>, r: usize, e: usize, width: usize) -> (usize, usize, f32) {
    let (valid, d0) = match causal {
        None => (width, 0.0),
        Some(c) => {
            let (q, k0) = (c.q0 + r, c.cols[e] as usize * width);
            ((q + 1).saturating_sub(k0).min(width), q as f32 - k0 as f32)
        }
    };
    (valid, valid.next_multiple_of(LANES).min(width), d0)
}

/// `−64·ln 2`: a shifted score `v − max` below it gives probability exactly
/// 0, so every kept `exp` is ≥ 2⁻⁶⁴ and every kept probability ≥ 2⁻⁶⁴ / row
/// length — never subnormal. The dropped mass is < 2⁻⁶⁴ per element, far
/// under the rounding of a sum that holds `exp(0) = 1`.
const SOFTMAX_FLOOR: f32 = -64.0 * std::f32::consts::LN_2;

/// `v` with every lane of magnitude below `f32::MIN_POSITIVE` — zeros and
/// subnormals — set to `+0`; a NaN stays NaN.
#[inline(always)]
fn flush_subnormal<L: Lanes>(v: L) -> L {
    let (lo, hi) = (L::splat(-f32::MIN_POSITIVE), L::splat(f32::MIN_POSITIVE));
    lo.lt_select(v, v.lt_select(hi, L::splat(0.0), v), v)
}

/// Rows one softmax tile works together: the 16 rows of a block-row band.
/// Each keeps its own lane accumulators, so every pass sweeps a segment
/// once for all sixteen rows, and a whole 16×16 block is one straight run
/// of row chunks.
const TILE: usize = 16;

/// The row tiles of a band: `TILE` rows at a time, the last one shorter.
#[inline(always)]
fn tiles(rows: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..rows)
        .step_by(TILE)
        .map(move |r0| r0..rows.min(r0 + TILE))
}

/// Segment `e` of a full tile as one block when a row segment is one chunk:
/// the block's elements (row `i` at `i·LANES`) and the geometry of its
/// first row — row `i` sees `v0 + i` keys (clamped to `0..=LANES`) and
/// starts at distance `d0 + i`, both exact and equal to what [`prefix`]
/// gives. `None` when the segment is not one chunk wide or the tile is
/// short.
#[inline(always)]
fn block<'d>(
    data: &'d mut [f32],
    band: &Band,
    causal: Option<Causal<'_>>,
    tile: &std::ops::Range<usize>,
    e: usize,
) -> Option<(&'d mut [f32], isize, f32)> {
    if band.width != LANES || band.row_stride != LANES || tile.len() != TILE {
        return None;
    }
    let (v0, d0) = match causal {
        None => (LANES as isize, 0.0),
        Some(c) => {
            let (q, k0) = (c.q0 + tile.start, c.cols[e] as usize * LANES);
            (q as isize + 1 - k0 as isize, q as f32 - k0 as f32)
        }
    };
    let at = band.seg(tile.start, e).start;
    Some((&mut data[at..at + TILE * LANES], v0, d0))
}

/// `(valid, live, d0)` of row `i` of a [`block`].
#[inline(always)]
fn row_in_block(v0: isize, d0: f32, i: usize) -> (usize, usize, f32) {
    let valid = (v0 + i as isize).clamp(0, LANES as isize) as usize;
    (valid, if valid > 0 { LANES } else { 0 }, d0 + i as f32)
}

/// First pass on one row segment at `(valid, live, d0)`: `scale·s −
/// slope·(q−k)` in place, lanes past the causal limit at −∞ up to `live`
/// and zeros after it, folded into the row's lane max.
#[inline(always)]
fn scores_seg<L: Lanes>(
    seg: &mut [f32],
    (valid, live, d0): (usize, usize, f32),
    scale_v: L,
    slope_v: L,
    lane_max: &mut L,
) {
    if live < seg.len() {
        seg[live..].fill(0.0);
    }
    let seg = &mut seg[..live];
    let lane = L::load(&LANE);
    let mut j0 = 0;
    while j0 < live {
        // Distance of the chunk's first key, and how many of its lanes are
        // at or before the diagonal.
        let (dist0, left) = (d0 - j0 as f32, (valid - j0) as f32);
        let bias = slope_v.mul(L::splat(dist0).sub(lane));
        let s = load_at::<L>(seg, j0, 0.0).mul(scale_v).sub(bias);
        let s = first(s, left, NEG_INF);
        store_at(s, seg, j0);
        *lane_max = s.max_or(*lane_max);
        j0 += LANES;
    }
}

/// [`scores_seg`] on a one-chunk segment whose every key is visible: no
/// lane is masked, so the mask, the zero fill and the tail handling drop
/// out and the bits stay the same.
#[inline(always)]
fn scores_whole<L: Lanes>(seg: &mut Chunk, d0: f32, scale_v: L, slope_v: L, lane_max: &mut L) {
    let bias = slope_v.mul(L::splat(d0).sub(L::load(&LANE)));
    let s = L::load(seg).mul(scale_v).sub(bias);
    s.store(seg);
    *lane_max = s.max_or(*lane_max);
}

/// Second pass on one row segment: `exp(v − max)`, exactly 0 below the
/// floor, folded into the row's lane sum. A row whose max is −∞ has nothing
/// to attend to and no probability mass (only −∞ and NaN scores get there;
/// a NaN stays visible).
#[inline(always)]
fn exp_seg<L: Lanes>(seg: &mut [f32], max: f32, lane_sum: &mut L) {
    if max == NEG_INF {
        for v in seg {
            *v = if v.is_nan() { f32::NAN } else { 0.0 };
        }
        return;
    }
    let (max_v, floor, zero) = (L::splat(max), L::splat(SOFTMAX_FLOOR), L::splat(0.0));
    let mut j0 = 0;
    while j0 < seg.len() {
        let v = load_at::<L>(seg, j0, NEG_INF).sub(max_v);
        let p = v.lt_select(floor, zero, exp_lanes(v));
        store_at(p, seg, j0);
        *lane_sum = lane_sum.add(p);
        j0 += LANES;
    }
}

/// Third pass on one row segment: `· 1/sum`, unless the row had no mass.
#[inline(always)]
fn scale_seg<L: Lanes>(seg: &mut [f32], max: f32, inv: L) {
    if max == NEG_INF {
        return;
    }
    let mut j0 = 0;
    while j0 < seg.len() {
        store_at(load_at::<L>(seg, j0, 0.0).mul(inv), seg, j0);
        j0 += LANES;
    }
}

#[inline(always)]
fn softmax_forward_def<L: Lanes>(
    data: &mut [f32],
    band: Band,
    scale: f32,
    causal: Option<Causal<'_>>,
) {
    let (scale_v, slope_v) = (L::splat(scale), L::splat(causal.map_or(0.0, |c| c.slope)));
    let live = |r: usize, e: usize| prefix(causal, r, e, band.width).1;
    for tile in tiles(band.rows) {
        let mut acc = [L::splat(NEG_INF); TILE];
        for e in 0..band.segments {
            if let Some((block, v0, d0)) = block(data, &band, causal, &tile, e) {
                let whole = v0 >= LANES as isize;
                let rows = block.chunks_exact_mut(LANES).zip(&mut acc);
                for (i, (row, lane_max)) in rows.enumerate() {
                    if whole {
                        let row = row.first_chunk_mut().expect("one chunk");
                        scores_whole(row, d0 + i as f32, scale_v, slope_v, lane_max);
                    } else {
                        scores_seg(row, row_in_block(v0, d0, i), scale_v, slope_v, lane_max);
                    }
                }
            } else {
                for (r, lane_max) in tile.clone().zip(&mut acc) {
                    let at = prefix(causal, r, e, band.width);
                    scores_seg(&mut data[band.seg(r, e)], at, scale_v, slope_v, lane_max);
                }
            }
        }
        let mut max = [NEG_INF; TILE];
        for (m, a) in max.iter_mut().zip(&acc) {
            *m = a.tree_max();
        }
        acc = [L::splat(0.0); TILE];
        for e in 0..band.segments {
            if let Some((block, v0, d0)) = block(data, &band, causal, &tile, e) {
                let rows = block.chunks_exact_mut(LANES).zip(&mut acc);
                for (i, ((row, lane_sum), &max)) in rows.zip(&max).enumerate() {
                    exp_seg(&mut row[..row_in_block(v0, d0, i).1], max, lane_sum);
                }
            } else {
                for ((r, lane_sum), &max) in tile.clone().zip(&mut acc).zip(&max) {
                    exp_seg(&mut data[band.seg(r, e)][..live(r, e)], max, lane_sum);
                }
            }
        }
        for (a, &m) in acc.iter_mut().zip(&max) {
            if m != NEG_INF {
                *a = L::splat(1.0 / a.tree_sum());
            }
        }
        for e in 0..band.segments {
            if let Some((block, v0, d0)) = block(data, &band, causal, &tile, e) {
                let rows = block.chunks_exact_mut(LANES).zip(&acc).zip(&max);
                for (i, ((row, &inv), &max)) in rows.enumerate() {
                    scale_seg(&mut row[..row_in_block(v0, d0, i).1], max, inv);
                }
            } else {
                for ((r, &inv), &max) in tile.clone().zip(&acc).zip(&max) {
                    scale_seg(&mut data[band.seg(r, e)][..live(r, e)], max, inv);
                }
            }
        }
    }
}

arms! {
    /// Scores → probabilities in place, one pass family per row: `v = scale·s
    /// − slope·(q − k)` up to the causal limit, max, `exp(v − max)` + sum,
    /// normalise. `causal = None` is the plain row softmax of `scale·s`. A
    /// row with nothing but `−∞` becomes zeros; a NaN or `+∞` score makes its
    /// whole row NaN.
    pub fn softmax_forward(
        data: &mut [f32],
        band: Band,
        scale: f32,
        causal: Option<Causal<'_>>,
    ) = softmax_forward_def;
}

/// First backward pass on one row segment: `⟨P, dP⟩` up to the causal
/// limit, folded into the row's lane sum.
#[inline(always)]
fn dot_seg<L: Lanes>(
    ps: &[f32],
    gs: &[f32],
    (valid, live, _): (usize, usize, f32),
    lane_dot: &mut L,
) {
    let (ps, gs) = (&ps[..live], &gs[..live]);
    let mut j0 = 0;
    while j0 < live {
        let pg = load_at::<L>(ps, j0, 0.0).mul(load_at(gs, j0, 0.0));
        *lane_dot = lane_dot.add(first(pg, (valid - j0) as f32, 0.0));
        j0 += LANES;
    }
}

/// Second backward pass on one row segment: `dS = scale · P ⊙ (dP − dot)`
/// in place up to the causal limit, flushed below the normal range, zeros
/// after it.
#[inline(always)]
fn ds_seg<L: Lanes>(
    ps: &[f32],
    gs: &mut [f32],
    (valid, live, _): (usize, usize, f32),
    dot: L,
    scale_v: L,
) {
    if live < gs.len() {
        gs[live..].fill(0.0);
    }
    let (ps, gs) = (&ps[..live], &mut gs[..live]);
    let mut j0 = 0;
    while j0 < live {
        let dp = load_at::<L>(gs, j0, 0.0);
        let ds = load_at::<L>(ps, j0, 0.0).mul(dp.sub(dot)).mul(scale_v);
        let ds = first(ds, (valid - j0) as f32, 0.0);
        store_at(flush_subnormal(ds), gs, j0);
        j0 += LANES;
    }
}

/// [`dot_seg`] and [`ds_seg`] on a one-chunk segment whose every key is
/// visible: no lane is masked, so both drop the mask and keep the bits.
#[inline(always)]
fn dot_whole<L: Lanes>(ps: &Chunk, gs: &Chunk, lane_dot: &mut L) {
    *lane_dot = lane_dot.add(L::load(ps).mul(L::load(gs)));
}

#[inline(always)]
fn ds_whole<L: Lanes>(ps: &Chunk, gs: &mut Chunk, dot: L, scale_v: L) {
    let ds = L::load(ps).mul(L::load(gs).sub(dot)).mul(scale_v);
    flush_subnormal(ds).store(gs);
}

#[inline(always)]
fn softmax_backward_def<L: Lanes>(
    p: &[f32],
    grad: &mut [f32],
    band: Band,
    scale: f32,
    causal: Option<Causal<'_>>,
) {
    let scale_v = L::splat(scale);
    for tile in tiles(band.rows) {
        let mut acc = [L::splat(0.0); TILE];
        for e in 0..band.segments {
            if let Some((gb, v0, d0)) = block(grad, &band, causal, &tile, e) {
                let pb = &p[band.seg(tile.start, e).start..][..TILE * LANES];
                let whole = v0 >= LANES as isize;
                let rows = pb.chunks_exact(LANES).zip(gb.chunks_exact(LANES));
                for (i, ((ps, gs), lane_dot)) in rows.zip(&mut acc).enumerate() {
                    if whole {
                        let chunks = (ps.first_chunk(), gs.first_chunk());
                        let (Some(ps), Some(gs)) = chunks else {
                            unreachable!("one chunk")
                        };
                        dot_whole(ps, gs, lane_dot);
                    } else {
                        dot_seg(ps, gs, row_in_block(v0, d0, i), lane_dot);
                    }
                }
            } else {
                for (r, lane_dot) in tile.clone().zip(&mut acc) {
                    let (ps, gs) = (&p[band.seg(r, e)], &grad[band.seg(r, e)]);
                    dot_seg(ps, gs, prefix(causal, r, e, band.width), lane_dot);
                }
            }
        }
        for a in &mut acc {
            *a = L::splat(a.tree_sum());
        }
        for e in 0..band.segments {
            if let Some((gb, v0, d0)) = block(grad, &band, causal, &tile, e) {
                let pb = &p[band.seg(tile.start, e).start..][..TILE * LANES];
                let whole = v0 >= LANES as isize;
                let rows = pb.chunks_exact(LANES).zip(gb.chunks_exact_mut(LANES));
                for (i, ((ps, gs), &dot)) in rows.zip(&acc).enumerate() {
                    if whole {
                        let chunks = (ps.first_chunk(), gs.first_chunk_mut());
                        let (Some(ps), Some(gs)) = chunks else {
                            unreachable!("one chunk")
                        };
                        ds_whole(ps, gs, dot, scale_v);
                    } else {
                        ds_seg(ps, gs, row_in_block(v0, d0, i), dot, scale_v);
                    }
                }
            } else {
                for (r, &dot) in tile.clone().zip(&acc) {
                    let (ps, gs) = (&p[band.seg(r, e)], &mut grad[band.seg(r, e)]);
                    ds_seg(ps, gs, prefix(causal, r, e, band.width), dot, scale_v);
                }
            }
        }
    }
}

arms! {
    /// Softmax backward through the score scale, in place on `grad` (`dP`
    /// in, `dS` out): `dS = scale · P ⊙ (dP − ⟨P, dP⟩_row)`. Same geometry as
    /// the forward; `dP` past the causal limit is never read.
    pub fn softmax_backward(
        p: &[f32],
        grad: &mut [f32],
        band: Band,
        scale: f32,
        causal: Option<Causal<'_>>,
    ) = softmax_backward_def;
}

// ---------------------------------------------------------------------------
// LayerNorm
// ---------------------------------------------------------------------------

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn layernorm_forward_def<L: Lanes>(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    y: &mut [f32],
    mean: &mut [f32],
    rstd: &mut [f32],
) {
    let n = gamma.len();
    assert!(n > 0 && beta.len() == n, "layernorm: gamma/beta width");
    assert_eq!(x.len() % n, 0, "layernorm: ragged input");
    assert_eq!(y.len(), x.len(), "layernorm: y shaped like x");
    assert!(
        mean.len() == x.len() / n && rstd.len() == x.len() / n,
        "layernorm: one statistic per row"
    );
    let nf = n as f32;
    let rows = x.chunks_exact(n).zip(y.chunks_exact_mut(n));
    for ((xr, yr), (m, s)) in rows.zip(mean.iter_mut().zip(rstd.iter_mut())) {
        let (mut acc, mut j0) = (L::splat(0.0), 0);
        while j0 < n {
            acc = acc.add(load_at(xr, j0, 0.0));
            j0 += LANES;
        }
        let mu = acc.tree_sum() / nf;
        let (mu_v, mut acc, mut j0) = (L::splat(mu), L::splat(0.0), 0);
        while j0 < n {
            // Padding with the mean adds exact zeros.
            let d = load_at::<L>(xr, j0, mu).sub(mu_v);
            acc = acc.add(d.mul(d));
            j0 += LANES;
        }
        let rs = 1.0 / (acc.tree_sum() / nf + eps).sqrt();
        for ((o, &v), (&g, &b)) in yr.iter_mut().zip(xr).zip(gamma.iter().zip(beta)) {
            *o = (v - mu) * rs * g + b;
        }
        (*m, *s) = (mu, rs);
    }
}

arms! {
    /// LayerNorm over every `gamma.len()`-wide row of `x` into `y`,
    /// recording each row's mean and reciprocal standard deviation for the
    /// backward.
    #[allow(clippy::too_many_arguments)]
    pub fn layernorm_forward(
        x: &[f32],
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
        y: &mut [f32],
        mean: &mut [f32],
        rstd: &mut [f32],
    ) = layernorm_forward_def;
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn layernorm_backward_def<L: Lanes>(
    x: &[f32],
    dy: &[f32],
    gamma: &[f32],
    mean: &[f32],
    rstd: &[f32],
    dx: &mut [f32],
    mut param_grads: Option<(&mut [f32], &mut [f32])>,
) {
    let n = gamma.len();
    assert!(
        n > 0 && x.len().is_multiple_of(n),
        "layernorm backward: ragged input"
    );
    assert!(
        dy.len() == x.len() && dx.len() == x.len(),
        "layernorm backward: dy/dx shaped like x"
    );
    assert!(
        mean.len() == x.len() / n && rstd.len() == x.len() / n,
        "layernorm backward: one statistic per row"
    );
    if let Some((dgamma, dbeta)) = &param_grads {
        assert!(
            dgamma.len() == n && dbeta.len() == n,
            "layernorm backward: param grad width"
        );
    }
    let nf = n as f32;
    let rows = x.chunks_exact(n).zip(dy.chunks_exact(n));
    for (((xr, dyr), dxr), (&mu, &rs)) in
        rows.zip(dx.chunks_exact_mut(n)).zip(mean.iter().zip(rstd))
    {
        let (mu_v, rs_v) = (L::splat(mu), L::splat(rs));
        let (mut acc_g, mut acc_gx, mut j0) = (L::splat(0.0), L::splat(0.0), 0);
        while j0 < n {
            let dyg = load_at::<L>(dyr, j0, 0.0).mul(load_at(gamma, j0, 0.0));
            let xhat = load_at::<L>(xr, j0, mu).sub(mu_v).mul(rs_v);
            acc_g = acc_g.add(dyg);
            acc_gx = acc_gx.add(dyg.mul(xhat));
            j0 += LANES;
        }
        let (mean_g, mean_gx) = (acc_g.tree_sum() / nf, acc_gx.tree_sum() / nf);
        for ((o, &v), (&d, &g)) in dxr.iter_mut().zip(xr).zip(dyr.iter().zip(gamma)) {
            *o = rs * (d * g - mean_g - (v - mu) * rs * mean_gx);
        }
        if let Some((dgamma, dbeta)) = &mut param_grads {
            let grads = dgamma.iter_mut().zip(dbeta.iter_mut());
            for ((dg, db), (&v, &d)) in grads.zip(xr.iter().zip(dyr)) {
                *dg += d * ((v - mu) * rs);
                *db += d;
            }
        }
    }
}

arms! {
    /// LayerNorm backward over every row: writes `dx`, and — only when the
    /// caller trains them — accumulates `(dgamma, dbeta)` in row order.
    #[allow(clippy::too_many_arguments)]
    pub fn layernorm_backward(
        x: &[f32],
        dy: &[f32],
        gamma: &[f32],
        mean: &[f32],
        rstd: &[f32],
        dx: &mut [f32],
        param_grads: Option<(&mut [f32], &mut [f32])>,
    ) = layernorm_backward_def;
}

// ---------------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------------

// Elementwise, so there is no lane order to fix: the plain loops below are
// the definition, and the arm wrappers only widen how LLVM vectorises them
// (`L` is unused; it is there so `arms!` instantiates them like the rest).

#[inline(always)]
fn relu_def<L: Lanes>(z: &[f32], a: &mut [f32]) {
    assert_eq!(z.len(), a.len(), "relu: a shaped like z");
    for (o, &v) in a.iter_mut().zip(z) {
        *o = if v < 0.0 { 0.0 } else { v };
    }
}

#[inline(always)]
fn relu_backward_def<L: Lanes>(da: &[f32], z: &[f32], dz: &mut [f32]) {
    assert!(
        da.len() == z.len() && dz.len() == z.len(),
        "relu backward: da/dz shaped like z"
    );
    for (o, (&g, &v)) in dz.iter_mut().zip(da.iter().zip(z)) {
        *o = if v > 0.0 { g } else { 0.0 };
    }
}

arms! {
    /// `a = max(z, 0)` (NaN stays NaN).
    pub fn relu(z: &[f32], a: &mut [f32]) = relu_def;
}

arms! {
    /// `dz = da ⊙ [z > 0]`, reading the *pre-activation* `z`.
    pub fn relu_backward(da: &[f32], z: &[f32], dz: &mut [f32]) = relu_backward_def;
}

// ---------------------------------------------------------------------------
// Log-sum-exp
// ---------------------------------------------------------------------------

#[inline(always)]
fn log_sum_exp_def<L: Lanes>(row: &[f32], mut grad: Option<(&mut [f32], f32)>) -> (f32, f32) {
    if let Some((out, _)) = &grad {
        assert_eq!(out.len(), row.len(), "log_sum_exp: out shaped like row");
    }
    let (mut lane_max, mut j0) = (L::splat(NEG_INF), 0);
    while j0 < row.len() {
        lane_max = load_at::<L>(row, j0, NEG_INF).max_or(lane_max);
        j0 += LANES;
    }
    let max = lane_max.tree_max();
    let (max_v, mut lane_sum, mut j0) = (L::splat(max), L::splat(0.0), 0);
    while j0 < row.len() {
        let p = exp_lanes(load_at::<L>(row, j0, NEG_INF).sub(max_v));
        if let Some((out, _)) = &mut grad {
            store_at(p, out, j0);
        }
        lane_sum = lane_sum.add(p);
        j0 += LANES;
    }
    let sum = lane_sum.tree_sum();
    if let Some((out, coef)) = grad {
        let k = coef / sum;
        for v in out.iter_mut() {
            *v *= k;
        }
    }
    (max, sum)
}

arms! {
    /// `(max, Σ exp(x − max))` of one row, so `ln Σ eˣ = max + ln(sum)`
    /// without a clamp or a division. With `grad = (out, coef)` the same pass
    /// also writes `out = softmax(row)·coef` — the cross-entropy gradient
    /// before its one-hot term. A NaN or `+∞` logit makes the sum (and
    /// `out`) NaN.
    pub fn log_sum_exp(row: &[f32], grad: Option<(&mut [f32], f32)>) -> (f32, f32) = log_sum_exp_def;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_hits_its_fixed_points() {
        let mut x = [0.0, -0.0, f32::NEG_INFINITY, -100.0, EXP_LO, f32::NAN];
        exp(Isa::Scalar, &mut x);
        assert_eq!(x[0], 1.0);
        assert_eq!(x[1], 1.0);
        assert_eq!(x[2], 0.0);
        assert_eq!(x[3], 0.0);
        assert!(x[4] > 0.0 && x[4] < 1.3e-38);
        assert!(x[5].is_nan());
    }

    #[test]
    fn band_segments_address_block_rows() {
        let band = Band::block_row(4, 3);
        assert_eq!(band.seg(0, 0), 0..4);
        assert_eq!(band.seg(2, 1), 2 * 4 + 16..2 * 4 + 20);
        assert_eq!(Band::dense(5, 7).seg(3, 0), 21..28);
    }

    #[test]
    fn causal_prefix_rounds_to_lanes_inside_the_segment() {
        let cols = [0u32, 1];
        let c = Some(Causal {
            q0: 32,
            cols: &cols,
            slope: 0.0,
        });
        // Query 35 over 32-wide segments: all of segment 0, keys 32..=35 of
        // segment 1 (one live chunk).
        assert_eq!(prefix(c, 3, 0, 32), (32, 32, 35.0));
        assert_eq!(prefix(c, 3, 1, 32), (4, 16, 3.0));
        assert_eq!(prefix(None, 3, 1, 20), (20, 20, 0.0));
    }
}
