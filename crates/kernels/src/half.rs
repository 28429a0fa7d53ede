//! IEEE binary16 ("half") conversion primitives.
//!
//! These are the canonical software f16 routines for the whole workspace:
//! the storage layer (`lx_tensor::Reduced`) encodes with them, and
//! [`f16_bits_to_f32`] is the definition every f16 decode must equal bit for
//! bit. The decodes themselves — [`decode_slice`] and the
//! [`BOperand::F16`](crate::BOperand::F16) arm of every backend (on-load
//! decode in `Reference`, pack-time decode in `Packed`) — run a run at a time
//! through [`crate::decode`], whose vector arms are `vcvtph2ps`.
//!
//! Conversion policy: f32→f16 rounds to nearest, ties to even; overflow
//! saturates to ±inf; NaN stays NaN with the quiet bit forced so a payload
//! that truncates to zero cannot turn into an infinity. f16→f32 is exact,
//! except that a signalling NaN comes back quiet (the f32 quiet bit set,
//! payload kept), as `vcvtph2ps` returns it. The encoder never writes a
//! signalling NaN, so no stored weight decodes differently for it.

/// Convert an `f32` to IEEE binary16 bits (round-to-nearest-even).
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let frac = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN. Preserve a NaN payload bit so NaN stays NaN.
        let nan_bit = if frac != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | nan_bit | ((frac >> 13) as u16 & 0x03ff);
    }

    // Re-bias exponent from 127 to 15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow -> inf
    }
    if unbiased >= -14 {
        // Normal half. Round-to-nearest-even on the 13 truncated bits.
        let mut mant = frac >> 13;
        let rem = frac & 0x1fff;
        if rem > 0x1000 || (rem == 0x1000 && (mant & 1) == 1) {
            mant += 1;
        }
        let mut e = (unbiased + 15) as u32;
        if mant == 0x400 {
            // Mantissa rounded up past 10 bits: bump exponent.
            mant = 0;
            e += 1;
            if e >= 31 {
                return sign | 0x7c00;
            }
        }
        return sign | ((e as u16) << 10) | (mant as u16);
    }
    if unbiased >= -24 {
        // Subnormal half.
        let full = frac | 0x0080_0000; // implicit leading 1
        let shift = (-14 - unbiased) as u32 + 13;
        let mut mant = full >> shift;
        let rem_mask = (1u32 << shift) - 1;
        let rem = full & rem_mask;
        let half = 1u32 << (shift - 1);
        if rem > half || (rem == half && (mant & 1) == 1) {
            mant += 1;
        }
        return sign | (mant as u16);
    }
    sign // underflow -> signed zero
}

/// Convert IEEE binary16 bits back to `f32`: exact, with a NaN returned
/// quiet.
#[inline]
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1f) as u32;
    let frac = (bits & 0x03ff) as u32;
    let out = if exp == 0 {
        if frac == 0 {
            sign
        } else {
            // Subnormal: normalise.
            let mut e = 127 - 15 + 1;
            let mut f = frac;
            while f & 0x0400 == 0 {
                f <<= 1;
                e -= 1;
            }
            sign | ((e as u32) << 23) | ((f & 0x03ff) << 13)
        }
    } else if exp == 0x1f && frac != 0 {
        // NaN: keep the payload, set the quiet bit.
        sign | 0x7fc0_0000 | (frac << 13)
    } else if exp == 0x1f {
        sign | 0x7f80_0000
    } else {
        sign | ((exp + 127 - 15) << 23) | (frac << 13)
    };
    f32::from_bits(out)
}

/// Round an `f32` through f16 precision (the storage round-trip).
#[inline]
pub fn round_f16(value: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(value))
}

/// Decode a slice of f16 bits into an f32 buffer of the same length, on the
/// [`active_isa`](crate::active_isa) arm.
pub fn decode_slice(bits: &[u16], out: &mut [f32]) {
    assert_eq!(bits.len(), out.len(), "decode_slice length mismatch");
    crate::decode::f16(crate::active_isa(), bits, out);
}

/// Encode a slice of f32 values into f16 bits (round-to-nearest-even).
pub fn encode_slice(values: &[f32]) -> Vec<u16> {
    values.iter().map(|&v| f32_to_f16_bits(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::pseudo;

    #[test]
    fn exact_values_roundtrip() {
        for &v in &[0.0f32, 1.0, -1.0, 0.5, 2.0, -0.25, 65504.0] {
            assert_eq!(round_f16(v), v, "{v} should be exactly representable");
        }
    }

    #[test]
    fn slice_codecs_roundtrip() {
        let vals = vec![1.0f32, -2.5, 0.125, 3.0];
        let bits = encode_slice(&vals);
        let mut back = vec![0.0f32; vals.len()];
        decode_slice(&bits, &mut back);
        assert_eq!(back, vals);
    }

    #[test]
    fn signed_zero_preserved() {
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
    }

    #[test]
    fn overflow_saturates_to_inf() {
        assert!(round_f16(1e6).is_infinite());
        assert!(round_f16(-1e6).is_infinite() && round_f16(-1e6) < 0.0);
    }

    #[test]
    fn nan_stays_nan() {
        assert!(round_f16(f32::NAN).is_nan());
    }

    #[test]
    fn nan_payload_bits_survive_where_representable() {
        // A signalling-ish NaN whose payload fits the 10-bit f16 mantissa
        // after the 13-bit truncation: the kept payload bits must survive,
        // and the quiet bit is forced so the result cannot become an inf.
        let payload = 0x0015u32 << 13; // bits 13.. of the f32 mantissa
        let nan = f32::from_bits(0x7f80_0000 | payload);
        let bits = f32_to_f16_bits(nan);
        assert_eq!(bits & 0x7c00, 0x7c00, "exponent must stay all-ones");
        assert_ne!(bits & 0x03ff, 0, "payload must not vanish");
        assert_eq!(bits & 0x0015, 0x0015, "kept payload bits preserved");
        assert!(f16_bits_to_f32(bits).is_nan());
    }

    #[test]
    fn subnormals_roundtrip_with_tolerance() {
        let v = 3.0e-6f32; // subnormal range of f16 (min normal ≈ 6.1e-5)
        let r = round_f16(v);
        assert!(r > 0.0 && (r - v).abs() / v < 0.05, "{v} -> {r}");
    }

    #[test]
    fn subnormal_sweep_stays_monotone_and_bounded() {
        // Seeded sweep across the entire f16 subnormal band
        // [2^-24, 2^-14): the round-trip must stay within half a subnormal
        // step (2^-25) and be monotone non-decreasing in the input.
        let step = 2.0_f32.powi(-24);
        let (lo, hi) = (step, 2.0_f32.powi(-14));
        let vals = pseudo(2_000, 0xF16)
            .into_iter()
            .map(|u| lo + (u + 1.0) / 2.0 * (hi - lo));
        let mut pairs: Vec<(f32, f32)> = vals.map(|v| (v, round_f16(v))).collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut prev = 0.0f32;
        for (v, r) in pairs {
            assert!((r - v).abs() <= step / 2.0 + f32::EPSILON, "{v} -> {r}");
            assert!(
                r >= prev,
                "round-trip must be monotone: {v} -> {r} < {prev}"
            );
            prev = r;
        }
    }

    #[test]
    fn tiny_underflows_to_zero() {
        assert_eq!(round_f16(1e-9), 0.0);
    }

    #[test]
    fn roundtrip_error_is_bounded() {
        for v in pseudo(10_000, 99).into_iter().map(|u| u * 4.0) {
            let r = round_f16(v);
            // Half has ~3.3 decimal digits: relative error < 2^-10.
            assert!((r - v).abs() <= v.abs() * 1e-3 + 1e-7, "{v} -> {r}");
        }
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between two f16 values; ties-to-even
        // keeps the even mantissa (1.0).
        let v = 1.0 + 2.0_f32.powi(-11);
        assert_eq!(round_f16(v), 1.0);
        // 1 + 3*2^-11 is halfway between mantissas 1 and 2; even mantissa (2)
        // wins, giving 1 + 2^-9.
        let v2 = 1.0 + 3.0 * 2.0_f32.powi(-11);
        assert_eq!(round_f16(v2), 1.0 + 2.0_f32.powi(-9));
    }

    #[test]
    fn tie_sweep_lands_on_even_mantissas() {
        // Construct exact ties at many scales: the f16 mantissa step is
        // 2^-10, so `(1 + (mant + ½)·2^-10)·2^e` sits exactly halfway
        // between mantissas `mant` and `mant+1` (representable exactly in
        // f32). RNE must pick whichever neighbour has an even mantissa.
        for e in [-3i32, -1, 0, 1, 4, 9] {
            for mant in [0u32, 1, 2, 5, 100, 511, 1022] {
                let lo = (1.0 + mant as f32 * 2.0_f32.powi(-10)) * 2.0_f32.powi(e);
                let hi = (1.0 + (mant + 1) as f32 * 2.0_f32.powi(-10)) * 2.0_f32.powi(e);
                let tie = (1.0 + (2 * mant + 1) as f32 * 2.0_f32.powi(-11)) * 2.0_f32.powi(e);
                let r = round_f16(tie);
                let expect = if mant % 2 == 0 { lo } else { hi };
                assert_eq!(r, expect, "tie at e={e} mant={mant}: {tie} -> {r}");
            }
        }
    }
}
