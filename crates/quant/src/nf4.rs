//! NF4-style 4-bit codec (QLoRA lineage): each value maps to the nearest of
//! 16 fixed codebook entries on `[-1, 1]`, scaled by the block's absmax.
//!
//! The codebook is the information-theoretically-motivated "normal float"
//! grid — quantiles of a standard normal — because trained weight blocks are
//! approximately zero-mean normal once divided by their absmax. Entry 7 is
//! exactly `0.0`, so zero survives the round trip bit-exactly and padding
//! nibbles are harmless.
//!
//! Packing: element `2i` occupies the **low** nibble of byte `i`, element
//! `2i+1` the **high** nibble. An odd-length buffer leaves its final high
//! nibble set to code 7 (decodes to 0.0), keeping encode deterministic and
//! the packed bytes comparable with `==`.

use crate::{finite_absmax, n_blocks, nibble_bytes, sanitize, Q4View, BLOCK};

/// The 16-entry NF4 codebook (ascending; index 7 is exactly 0.0).
pub const CODEBOOK: [f32; 16] = [
    -1.0,
    -0.696_192_8,
    -0.525_073_05,
    -0.394_917_5,
    -0.284_441_38,
    -0.184_773_43,
    -0.091_050_036,
    0.0,
    0.079_580_3,
    0.160_930_2,
    0.246_112_3,
    0.337_915_24,
    0.440_709_83,
    0.562_617,
    0.722_956_84,
    1.0,
];

/// Nearest codebook index of every value of `block` once divided by its
/// `absmax` (non-finite values [`sanitize`]d first), appended to `out`. The
/// f32 distance `|v/absmax − c|` of every entry is compared with the best so
/// far under a strict `<`, so ties resolve to the lower index (first wins)
/// and encode is deterministic. The comparisons select instead of branching:
/// each codebook entry is one pass over the whole block, which vectorises,
/// where a search per value mispredicts on every data-dependent compare.
fn encode_block(block: &[f32], absmax: f32, out: &mut Vec<u8>) {
    let mut x = [0.0f32; BLOCK];
    for (x, &v) in x.iter_mut().zip(block) {
        *x = sanitize(v, absmax) / absmax;
    }
    // Distance bits and index, each replaced under an all-ones mask where
    // the entry is strictly closer: a select, never a branch.
    let mut best = [0u32; BLOCK];
    let mut best_d = [f32::INFINITY.to_bits(); BLOCK];
    for (i, &c) in (0u32..).zip(&CODEBOOK) {
        for ((&x, b), bd) in x.iter().zip(&mut best).zip(&mut best_d) {
            let d = (x - c).abs().to_bits();
            let closer = u32::from(f32::from_bits(d) < f32::from_bits(*bd)).wrapping_neg();
            *bd ^= (*bd ^ d) & closer;
            *b ^= (*b ^ i) & closer;
        }
    }
    out.extend(best[..block.len()].iter().map(|&b| b as u8));
}

/// Quantize to `(packed nibble codes, per-block scales)`.
/// `codes.len() == nibble_bytes(values.len())`, `scales.len() ==
/// n_blocks(values.len())`. The scale is the block absmax itself (dequant is
/// `CODEBOOK[code] * scale`).
pub fn quantize(values: &[f32]) -> (Vec<u8>, Vec<f32>) {
    let mut nibbles = Vec::with_capacity(values.len() + values.len() % 2);
    let mut scales = Vec::with_capacity(n_blocks(values.len()));
    for block in values.chunks(BLOCK) {
        let absmax = finite_absmax(block);
        scales.push(absmax);
        if absmax == 0.0 {
            nibbles.extend(std::iter::repeat_n(7u8, block.len()));
            continue;
        }
        encode_block(block, absmax, &mut nibbles);
    }
    if nibbles.len() % 2 == 1 {
        nibbles.push(7); // pad nibble decodes to 0.0 and never leaks
    }
    let mut codes = Vec::with_capacity(nibble_bytes(values.len()));
    for pair in nibbles.chunks_exact(2) {
        codes.push(pair[0] | (pair[1] << 4));
    }
    (codes, scales)
}

/// Dequantize `len` elements into `out` (`out.len() == len`).
pub fn dequantize(codes: &[u8], scales: &[f32], out: &mut [f32]) {
    let view = Q4View::new(codes, scales, out.len());
    for (i, o) in out.iter_mut().enumerate() {
        *o = view.get(i);
    }
}

/// Round every value through the codec in place (`dequantize(quantize(v))`)
/// — what a differential test applies to an f32 model so it computes the
/// exact function its nf4-stored twin does.
pub fn round_slice(values: &mut [f32]) {
    let (codes, scales) = quantize(values);
    let len = values.len();
    let view = Q4View::new(&codes, &scales, len);
    for (i, v) in values.iter_mut().enumerate() {
        *v = view.get(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::pseudo;

    #[test]
    fn codebook_is_sorted_and_symmetric_at_the_ends() {
        for w in CODEBOOK.windows(2) {
            assert!(w[0] < w[1], "codebook must be strictly ascending");
        }
        assert_eq!(CODEBOOK[0], -1.0);
        assert_eq!(CODEBOOK[7], 0.0);
        assert_eq!(CODEBOOK[15], 1.0);
    }

    #[test]
    fn encode_picks_nearest_entry_with_first_wins_ties() {
        for (i, &c) in CODEBOOK.iter().enumerate() {
            assert_eq!(encode_one(c) as usize, i, "exact entry {i}");
        }
        // An exact midpoint ties; the lower index must win.
        let mid = (CODEBOOK[7] + CODEBOOK[8]) / 2.0;
        let d7 = (mid - CODEBOOK[7]).abs();
        let d8 = (mid - CODEBOOK[8]).abs();
        if d7 == d8 {
            assert_eq!(encode_one(mid), 7);
        }
    }

    /// Nearest codebook index for a normalized value in `[-1, 1]` by a search
    /// that branches per entry — the definition [`encode_block`] is checked
    /// against.
    fn encode_one(normalized: f32) -> u8 {
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for (i, &c) in CODEBOOK.iter().enumerate() {
            let d = (normalized - c).abs();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best as u8
    }

    /// Today's search loop, block by block: the oracle of `quantize`.
    fn quantize_by_search(values: &[f32]) -> (Vec<u8>, Vec<f32>) {
        let mut nibbles = Vec::new();
        let mut scales = Vec::new();
        for block in values.chunks(BLOCK) {
            let absmax = finite_absmax(block);
            scales.push(absmax);
            for &v in block {
                nibbles.push(if absmax == 0.0 {
                    7
                } else {
                    encode_one(sanitize(v, absmax) / absmax)
                });
            }
        }
        if nibbles.len() % 2 == 1 {
            nibbles.push(7);
        }
        let codes = nibbles
            .chunks_exact(2)
            .map(|p| p[0] | (p[1] << 4))
            .collect();
        (codes, scales)
    }

    #[test]
    fn branch_free_encode_equals_the_search_loop() {
        let absmax = 2.5f32;
        // Every codebook value and every midpoint ± 1 ulp, at the block
        // scale, with ±absmax and zeros, and the same values negated.
        let mut edge = vec![absmax, -absmax, 0.0, -0.0];
        for (i, &c) in CODEBOOK.iter().enumerate() {
            edge.push(c * absmax);
            if let Some(&next) = CODEBOOK.get(i + 1) {
                let mid = (c + next) / 2.0;
                for m in [
                    mid,
                    f32::from_bits(mid.to_bits() + 1),
                    f32::from_bits(mid.to_bits() - 1),
                ] {
                    edge.push(m * absmax);
                }
            }
        }
        let negated: Vec<f32> = edge.iter().map(|v| -v).collect();
        let mut cases = vec![edge, negated];
        // Normalized midpoints ± 1 ulp exactly (absmax 1).
        let mut unit = vec![1.0f32];
        for w in CODEBOOK.windows(2) {
            let mid = (w[0] + w[1]) / 2.0;
            unit.extend([
                mid,
                f32::from_bits(mid.to_bits() + 1),
                f32::from_bits(mid.to_bits() - 1),
            ]);
        }
        cases.push(unit);
        // Random blocks of odd and even lengths, zeros and non-finite inputs.
        for (len, seed) in [
            (64usize, 1u32),
            (1, 2),
            (63, 3),
            (65, 4),
            (1000, 5),
            (129, 6),
        ] {
            cases.push(pseudo(len, 3.0, seed));
        }
        let mut hostile = pseudo(130, 1.0, 7);
        hostile[3] = f32::NAN;
        hostile[40] = f32::INFINITY;
        hostile[64] = f32::NEG_INFINITY;
        hostile[65..80].fill(0.0);
        cases.push(hostile);
        cases.push(vec![0.0; 77]);
        cases.push(vec![f32::NAN; 9]);
        for (i, vals) in cases.iter().enumerate() {
            assert_eq!(quantize(vals), quantize_by_search(vals), "case {i}");
        }
    }

    #[test]
    fn roundtrip_error_is_bounded_by_widest_gap() {
        // Worst case is half the widest codebook gap times absmax.
        let half_gap = CODEBOOK
            .windows(2)
            .map(|w| (w[1] - w[0]) / 2.0)
            .fold(0.0f32, f32::max);
        for (len, seed) in [(64usize, 11u32), (1000, 12), (63, 13), (129, 14)] {
            let vals = pseudo(len, 2.0, seed);
            let (codes, scales) = quantize(&vals);
            assert_eq!(codes.len(), nibble_bytes(len));
            assert_eq!(scales.len(), n_blocks(len));
            let mut out = vec![0.0f32; len];
            dequantize(&codes, &scales, &mut out);
            for (i, (&v, &dq)) in vals.iter().zip(&out).enumerate() {
                let bound = half_gap * scales[i / BLOCK] + 1e-6;
                assert!((v - dq).abs() <= bound, "idx {i}: {v} -> {dq}");
            }
        }
    }

    #[test]
    fn block_absmax_endpoints_are_exact() {
        let mut vals = pseudo(130, 1.0, 15);
        vals[5] = 4.0; // block 0 absmax -> code 15 -> 1.0 * 4.0
        vals[70] = -8.0; // block 1 absmax -> code 0 -> -1.0 * 8.0
        let (codes, scales) = quantize(&vals);
        let v = Q4View::new(&codes, &scales, vals.len());
        assert_eq!(v.get(5), 4.0);
        assert_eq!(v.get(70), -8.0);
    }

    #[test]
    fn all_zero_blocks_store_zero_scale_without_nan() {
        let vals = vec![0.0f32; 100];
        let (codes, scales) = quantize(&vals);
        assert!(scales.iter().all(|&s| s == 0.0));
        // Every nibble is code 7 -> byte 0x77.
        assert!(codes.iter().all(|&b| b == 0x77));
        let mut out = vec![1.0f32; 100];
        dequantize(&codes, &scales, &mut out);
        assert!(out.iter().all(|&v| v == 0.0 && !v.is_nan()));
    }

    #[test]
    fn tail_blocks_and_odd_lengths_cover_every_length() {
        for len in [1usize, 2, 63, 64, 65, 127, 128, 129, 191] {
            let vals = pseudo(len, 1.0, 200 + len as u32);
            let (codes, scales) = quantize(&vals);
            assert_eq!(codes.len(), nibble_bytes(len), "len {len}");
            assert_eq!(scales.len(), n_blocks(len), "len {len}");
            if len % 2 == 1 {
                assert_eq!(codes[len / 2] >> 4, 7, "odd tail pads with code 7");
            }
            let mut out = vec![0.0f32; len];
            dequantize(&codes, &scales, &mut out);
            for (i, &dq) in out.iter().enumerate() {
                assert!(dq.abs() <= scales[i / BLOCK], "decode within absmax");
            }
        }
    }

    #[test]
    fn non_finite_inputs_clamp_deterministically() {
        let mut vals = pseudo(64, 0.5, 16);
        vals[0] = f32::NAN;
        vals[1] = f32::INFINITY;
        vals[2] = f32::NEG_INFINITY;
        let absmax = finite_absmax(&vals);
        let (codes, scales) = quantize(&vals);
        let v = Q4View::new(&codes, &scales, vals.len());
        assert_eq!(v.get(0), 0.0, "NaN encodes to the zero entry");
        assert_eq!(v.get(1), absmax, "+inf clamps to +absmax (code 15)");
        assert_eq!(v.get(2), -absmax, "-inf clamps to -absmax (code 0)");
        let (codes2, scales2) = quantize(&vals);
        assert_eq!(codes, codes2);
        assert_eq!(scales, scales2);
    }

    #[test]
    fn nibble_pack_unpack_order_seeded_sweep() {
        // Proptest-style sweep: for many seeded random buffers, re-encoding
        // the decoded values reproduces the exact packed bytes, and per-index
        // unpack (view) matches a manual low/high-nibble walk.
        for seed in 0..32u32 {
            let len = 1 + (seed as usize * 37) % 200;
            let vals = pseudo(len, 1.0 + seed as f32 * 0.1, 300 + seed);
            let (codes, scales) = quantize(&vals);
            let mut decoded = vec![0.0f32; len];
            dequantize(&codes, &scales, &mut decoded);

            // Manual nibble walk must agree with Q4View::get.
            let view = Q4View::new(&codes, &scales, len);
            for i in 0..len {
                let nib = if i % 2 == 0 {
                    codes[i / 2] & 0x0F
                } else {
                    codes[i / 2] >> 4
                };
                let manual = CODEBOOK[nib as usize] * scales[i / BLOCK];
                assert_eq!(view.get(i).to_bits(), manual.to_bits(), "idx {i}");
            }

            // Codec fixed point: quantizing the decoded buffer reproduces
            // the identical packed bytes and scales.
            let (codes2, scales2) = quantize(&decoded);
            assert_eq!(scales, scales2, "seed {seed}");
            assert_eq!(codes, codes2, "seed {seed}");
        }
    }

    #[test]
    fn windowed_decode_is_bit_identical_to_full_decode() {
        let vals = pseudo(321, 1.5, 17);
        let (codes, scales) = quantize(&vals);
        let mut full = vec![0.0f32; vals.len()];
        dequantize(&codes, &scales, &mut full);
        let view = Q4View::new(&codes, &scales, vals.len());
        for (start, n) in [(0usize, 64usize), (50, 30), (63, 2), (100, 221)] {
            for (i, f) in full.iter().enumerate().skip(start).take(n) {
                assert_eq!(view.get(i).to_bits(), f.to_bits(), "idx {i}");
            }
        }
    }

    #[test]
    fn round_slice_is_idempotent() {
        let mut vals = pseudo(201, 3.0, 18);
        round_slice(&mut vals);
        let once = vals.clone();
        round_slice(&mut vals);
        assert_eq!(vals, once);
    }
}
