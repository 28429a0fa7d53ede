//! Run decoders: reduced storage to f32, a run of consecutive flat elements
//! at a time.
//!
//! Every read of a reduced-storage weight goes through [`run`]: the B̃ pack
//! of the [`Packed`](crate::Packed) backend (one run per k-row of a
//! Normal-layout panel, one per column of a Transposed one — for a plain
//! product and for each window of a grouped launch, so the sparse MLP's
//! active slabs decode here), [`BOperand::decode_into`] behind the
//! embedding gathers and the scalar oracle's decoded rows.
//!
//! As in [`rows`](crate::rows), the first argument is the arm, normally
//! [`active_isa()`](crate::active_isa); `Isa::Scalar`, `Isa::Neon` and an arm
//! the host cannot execute run the definition, which is the elementwise codec:
//! [`f16_bits_to_f32`] per half, [`Q4View::get`] per NF4 code. The vector
//! steps are exact conversions and the same one multiply, so every arm is
//! bit-identical to the definition:
//!
//! | codec | `avx2` (with F16C) | `avx512` |
//! |---|---|---|
//! | f16 | `vcvtph2ps`, 8 halves per step | `vcvtph2ps`, 16 halves per step |
//! | NF4 | nibbles → two `vpermps` + blend, `× scale`, 8 per step | nibbles → one `vpermps`, `× scale`, 16 per step |
//!
//! An NF4 step needs an even first index (a low nibble) and one block scale,
//! so a run is cut at its 64-element block boundaries; in each piece an odd
//! first element and a tail shorter than a step take the definition, as does
//! the f16 tail.

use crate::half::f16_bits_to_f32;
use crate::isa::Isa;
use crate::op::BOperand;
use lx_quant::{Q4View, BLOCK};

/// Decode flat elements `base .. base + out.len()` of `b` into `out` on arm
/// `isa`. An f32 operand is copied. Any window is bit-identical to the same
/// elements of a full decode, on every arm.
pub fn run(isa: Isa, b: BOperand<'_>, base: usize, out: &mut [f32]) {
    let end = base + out.len();
    match b {
        BOperand::F32(b) => out.copy_from_slice(&b[base..end]),
        BOperand::F16(b) => f16(isa, &b[base..end], out),
        BOperand::Q4(q) => {
            assert!(
                end <= q.len(),
                "decode: elements up to {end} of {}",
                q.len()
            );
            nf4(isa, q, base, out)
        }
    }
}

/// One arm's vector steps. Each decodes the longest prefix of `out` that is
/// a whole number of steps and returns its length; the definition decodes
/// the rest.
trait Steps {
    /// `out[i] = f16(bits[i])`; `bits` is as long as `out`.
    fn f16(bits: &[u16], out: &mut [f32]) -> usize;
    /// `out[i] = CODEBOOK[code(first + i)] · scale`, from an even flat index
    /// `first` (`codes` holds the whole buffer's nibbles).
    fn nf4(codes: &[u8], first: usize, scale: f32, out: &mut [f32]) -> usize;
}

/// The definition: no vector steps.
struct Scalar;

impl Steps for Scalar {
    #[inline(always)]
    fn f16(_: &[u16], _: &mut [f32]) -> usize {
        0
    }
    #[inline(always)]
    fn nf4(_: &[u8], _: usize, _: f32, _: &mut [f32]) -> usize {
        0
    }
}

#[inline(always)]
fn f16_def<S: Steps>(bits: &[u16], out: &mut [f32]) {
    assert_eq!(bits.len(), out.len(), "decode: f16 length mismatch");
    let done = S::f16(bits, out);
    for (o, &h) in out[done..].iter_mut().zip(&bits[done..]) {
        *o = f16_bits_to_f32(h);
    }
}

#[inline(always)]
fn nf4_def<S: Steps>(q: Q4View<'_>, base: usize, out: &mut [f32]) {
    let mut at = 0;
    while at < out.len() {
        // The piece of the run inside one scale block.
        let first = base + at;
        let end = (at + BLOCK - first % BLOCK).min(out.len());
        let piece = &mut out[at..end];
        let lead = first % 2;
        if lead == 1 {
            piece[0] = q.get(first);
        }
        let scale = q.scales()[first / BLOCK];
        let done = lead + S::nf4(q.codes(), first + lead, scale, &mut piece[lead..]);
        for (j, o) in piece.iter_mut().enumerate().skip(done) {
            *o = q.get(first + j);
        }
        at += piece.len();
    }
}

arms! {
    /// Decode f16 bits into `out` (same length).
    pub(crate) fn f16(bits: &[u16], out: &mut [f32]) = f16_def;
}

arms! {
    /// Decode flat elements `base .. base + out.len()` of an NF4 buffer.
    fn nf4(q: Q4View<'_>, base: usize, out: &mut [f32]) = nf4_def;
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Steps;
    use lx_quant::nf4::CODEBOOK;
    use std::arch::x86_64::*;

    /// 8 elements per step.
    pub(super) struct Avx2;

    /// 16 elements per step.
    pub(super) struct Avx512;

    // These types are private to `decode` and only ever instantiated inside
    // the `arms!` wrappers, which enable the features the intrinsics need and
    // are entered only after `Isa::supported()` confirmed them on this CPU.

    impl Steps for Avx2 {
        #[inline(always)]
        fn f16(bits: &[u16], out: &mut [f32]) -> usize {
            let n = out.len().min(bits.len()) / 8 * 8;
            for i in (0..n).step_by(8) {
                // SAFETY: `i + 8 ≤ n` and `n` is within both slices, so the
                // eight halves read and the eight floats written are in
                // bounds.
                unsafe {
                    let h = _mm_loadu_si128(bits.as_ptr().add(i).cast());
                    _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_cvtph_ps(h));
                }
            }
            n
        }

        #[inline(always)]
        fn nf4(codes: &[u8], first: usize, scale: f32, out: &mut [f32]) -> usize {
            let n = out.len() / 8 * 8;
            // The bytes of the `n` codes from `first`; slicing checks them.
            let bytes = &codes[first / 2..][..n / 2];
            // SAFETY: the codebook holds 16 floats, two loads of 8. Step `i`
            // reads bytes `i/2 .. i/2 + 4` of `bytes` and writes floats
            // `i .. i + 8` of `out`; `i + 8 ≤ n`, so both are in bounds.
            unsafe {
                let book_lo = _mm256_loadu_ps(CODEBOOK.as_ptr());
                let book_hi = _mm256_loadu_ps(CODEBOOK.as_ptr().add(8));
                let shift = _mm256_setr_epi32(0, 4, 0, 4, 0, 4, 0, 4);
                let scale = _mm256_set1_ps(scale);
                for i in (0..n).step_by(8) {
                    let word = bytes.as_ptr().add(i / 2).cast::<i32>().read_unaligned();
                    let pairs = _mm_cvtsi32_si128(word);
                    // Byte `b` of lane `l` is byte `l / 2`; odd lanes shift
                    // their high nibble down. `vpermps` reads index bits
                    // 0–2, the blend bit 3 (moved to the sign bit).
                    let code = _mm256_srlv_epi32(
                        _mm256_cvtepu8_epi32(_mm_unpacklo_epi8(pairs, pairs)),
                        shift,
                    );
                    let lo = _mm256_permutevar8x32_ps(book_lo, code);
                    let hi = _mm256_permutevar8x32_ps(book_hi, code);
                    let upper = _mm256_castsi256_ps(_mm256_slli_epi32::<28>(code));
                    let v = _mm256_blendv_ps(lo, hi, upper);
                    _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_mul_ps(v, scale));
                }
            }
            n
        }
    }

    impl Steps for Avx512 {
        #[inline(always)]
        fn f16(bits: &[u16], out: &mut [f32]) -> usize {
            let n = out.len().min(bits.len()) / 16 * 16;
            for i in (0..n).step_by(16) {
                // SAFETY: `i + 16 ≤ n` and `n` is within both slices, so the
                // sixteen halves read and the sixteen floats written are in
                // bounds.
                unsafe {
                    let h = _mm256_loadu_si256(bits.as_ptr().add(i).cast());
                    _mm512_storeu_ps(out.as_mut_ptr().add(i), _mm512_cvtph_ps(h));
                }
            }
            n
        }

        #[inline(always)]
        fn nf4(codes: &[u8], first: usize, scale: f32, out: &mut [f32]) -> usize {
            let n = out.len() / 16 * 16;
            // The bytes of the `n` codes from `first`; slicing checks them.
            let bytes = &codes[first / 2..][..n / 2];
            // SAFETY: the codebook holds 16 floats, one load. Step `i` reads
            // bytes `i/2 .. i/2 + 8` of `bytes` and writes floats `i .. i + 16`
            // of `out`; `i + 16 ≤ n`, so both are in bounds.
            unsafe {
                let book = _mm512_loadu_ps(CODEBOOK.as_ptr());
                let shift = _mm512_setr_epi32(0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4);
                let scale = _mm512_set1_ps(scale);
                for i in (0..n).step_by(16) {
                    let pairs = _mm_loadl_epi64(bytes.as_ptr().add(i / 2).cast());
                    // As in the AVX2 step; `vpermps` reads index bits 0–3.
                    let code = _mm512_srlv_epi32(
                        _mm512_cvtepu8_epi32(_mm_unpacklo_epi8(pairs, pairs)),
                        shift,
                    );
                    let v = _mm512_permutexvar_ps(code, book);
                    _mm512_storeu_ps(out.as_mut_ptr().add(i), _mm512_mul_ps(v, scale));
                }
            }
            n
        }
    }
}
