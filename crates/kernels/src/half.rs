//! IEEE binary16 ("half") conversion primitives.
//!
//! These are the canonical software f16 routines for the whole workspace:
//! `lx-tensor::f16` delegates here so the storage layer and the fused
//! f16-input GEMM paths (the [`BOperand::F16`](crate::BOperand::F16) arm of
//! every backend: on-load decode in `Reference`, pack-time decode in `Packed`) can never disagree on rounding semantics.
//!
//! Conversion policy: f32→f16 rounds to nearest, ties to even; overflow
//! saturates to ±inf; NaN stays NaN with the quiet bit forced so a payload
//! that truncates to zero cannot turn into an infinity. f16→f32 is exact.

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

/// Convert IEEE binary16 bits back to `f32` (exact).
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
    } else if exp == 0x1f {
        sign | 0x7f80_0000 | (frac << 13)
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

/// Decode a slice of f16 bits into an f32 buffer of the same length.
pub fn decode_slice(bits: &[u16], out: &mut [f32]) {
    assert_eq!(bits.len(), out.len(), "decode_slice length mismatch");
    for (o, &b) in out.iter_mut().zip(bits) {
        *o = f16_bits_to_f32(b);
    }
}

/// Encode a slice of f32 values into f16 bits (round-to-nearest-even).
pub fn encode_slice(values: &[f32]) -> Vec<u16> {
    values.iter().map(|&v| f32_to_f16_bits(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
