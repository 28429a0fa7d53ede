//! N:M structured-sparse codec (SLoPe/SPP lineage): per row, every group of
//! `M` consecutive elements keeps at most `N` values, stored as compacted
//! f32s plus one index-bitmask byte per group (bit `j` set ⇔ position `j`
//! of the group survives). `Nm24` (2:4) is the hardware-friendly default;
//! any `N ≤ M ≤ 8` is representable by the same layout.
//!
//! Unlike the quantizing codecs, kept values are stored **bit-exactly**
//! (including `-0.0` and non-finite values) — the codec is lossless on
//! survivors and exact-zero on pruned positions, which is what makes the
//! packed-vs-reference differential oracle bit-identical. Only the *ranking*
//! used by magnitude pruning needs a deterministic key: `NaN` ranks as
//! magnitude 0, `±inf` as `+inf`, and ties keep the lower index.
//!
//! Storage layout (row-major, group-major):
//!
//! * `vals` — per full group exactly `N` slots (kept values in ascending
//!   position order, zero-padded when an external mask keeps fewer); the
//!   tail group of a row with `cols % M != 0` gets `min(N, cols % M)` slots.
//!   Uniform slot counts are what keep flat random access O(1).
//! * `masks` — one byte per group; a popcount-0 byte is an *absent* group
//!   decoding to exact zeros.
//!
//! Decoding is strictly elementwise (element `(r, c)` needs only its own
//! group's mask byte and slots), so any window of rows decodes bit-identical
//! to a full decode — the same slab-decode contract the NF4 codec honours.

/// Groups covering one row of `cols` elements (tail group included).
pub const fn groups_per_row(cols: usize, m: usize) -> usize {
    cols.div_ceil(m)
}

/// Compacted value slots covering one row: `n` per full group, `min(n, t)`
/// for a tail of `t = cols % m` elements.
pub const fn slots_per_row(cols: usize, n: usize, m: usize) -> usize {
    let tail = cols % m;
    let tail_slots = if tail < n { tail } else { n };
    (cols / m) * n + tail_slots
}

/// Total compacted value slots for a `rows x cols` matrix.
pub const fn total_slots(rows: usize, cols: usize, n: usize, m: usize) -> usize {
    rows * slots_per_row(cols, n, m)
}

/// Total mask bytes for a `rows x cols` matrix.
pub const fn total_masks(rows: usize, cols: usize, m: usize) -> usize {
    rows * groups_per_row(cols, m)
}

fn check_ratio(n: usize, m: usize) {
    assert!(
        (1..=8).contains(&m),
        "n:m codec needs 1 <= m <= 8, got m={m}"
    );
    assert!(
        n >= 1 && n <= m,
        "n:m codec needs 1 <= n <= m, got n={n} m={m}"
    );
}

/// Deterministic magnitude key for pruning: `NaN` ranks lowest among equals
/// (magnitude 0), `±inf` ranks highest; finite values rank by `|v|`.
#[inline]
fn rank_mag(v: f32) -> f32 {
    if v.is_nan() {
        0.0
    } else {
        v.abs()
    }
}

/// Magnitude-prune one `rows x cols` row-major matrix to an N:M mask: per
/// group keep the `min(n, group_len)` largest-magnitude positions, ties to
/// the lower index. Returns one bitmask byte per group.
pub fn prune_mask(values: &[f32], rows: usize, cols: usize, n: usize, m: usize) -> Vec<u8> {
    check_ratio(n, m);
    assert_eq!(values.len(), rows * cols, "n:m prune: value count");
    let mut masks = Vec::with_capacity(total_masks(rows, cols, m));
    for row in values.chunks_exact(cols.max(1)).take(rows) {
        for group in row.chunks(m) {
            let keep = n.min(group.len());
            let mut mask = 0u8;
            for _ in 0..keep {
                // Select the best not-yet-kept position; O(n·m) with m ≤ 8.
                let mut best: Option<usize> = None;
                for (j, &v) in group.iter().enumerate() {
                    if mask & (1 << j) != 0 {
                        continue;
                    }
                    match best {
                        Some(b) if rank_mag(group[b]) >= rank_mag(v) => {}
                        _ => best = Some(j),
                    }
                }
                mask |= 1 << best.expect("group has a position to keep");
            }
            masks.push(mask);
        }
    }
    masks
}

/// Compact `values` under an explicit per-group mask. Each full group's
/// popcount must be `<= n` (tail groups `<= min(n, tail)`); slots beyond the
/// popcount are zero-padded so addressing stays uniform.
pub fn encode_with_mask(
    values: &[f32],
    rows: usize,
    cols: usize,
    n: usize,
    m: usize,
    masks: &[u8],
) -> Vec<f32> {
    check_ratio(n, m);
    assert_eq!(values.len(), rows * cols, "n:m encode: value count");
    assert_eq!(
        masks.len(),
        total_masks(rows, cols, m),
        "n:m encode: mask count"
    );
    let mut vals = Vec::with_capacity(total_slots(rows, cols, n, m));
    let gpr = groups_per_row(cols, m);
    for r in 0..rows {
        let row = &values[r * cols..(r + 1) * cols];
        for (g, group) in row.chunks(m).enumerate() {
            let mask = masks[r * gpr + g];
            let slots = n.min(group.len());
            assert!(
                ((mask as u16) >> group.len()) == 0,
                "n:m encode: mask {mask:#04x} sets bits beyond group of {}",
                group.len()
            );
            let kept = mask.count_ones() as usize;
            assert!(
                kept <= slots,
                "n:m encode: mask keeps {kept} of {} but only {slots} slots",
                group.len()
            );
            for (j, &v) in group.iter().enumerate() {
                if mask & (1 << j) != 0 {
                    vals.push(v);
                }
            }
            vals.extend(std::iter::repeat_n(0.0f32, slots - kept));
        }
    }
    vals
}

/// Magnitude-prune and compact in one step: `(vals, masks)`.
pub fn encode(values: &[f32], rows: usize, cols: usize, n: usize, m: usize) -> (Vec<f32>, Vec<u8>) {
    let masks = prune_mask(values, rows, cols, n, m);
    let vals = encode_with_mask(values, rows, cols, n, m, &masks);
    (vals, masks)
}

/// Decode the whole matrix into `out` (`out.len() == rows * cols`). Pruned
/// positions become exact `0.0`; kept positions are bit-identical to the
/// encoded values.
pub fn decode(
    vals: &[f32],
    masks: &[u8],
    rows: usize,
    cols: usize,
    n: usize,
    m: usize,
    out: &mut [f32],
) {
    let view = NmView::new(vals, masks, rows, cols, n, m);
    assert_eq!(out.len(), rows * cols, "n:m decode: output length");
    for r in 0..rows {
        view.decode_row_into(r, &mut out[r * cols..(r + 1) * cols]);
    }
}

/// Apply an existing mask to a dense buffer in place, zeroing every pruned
/// position. Returns the number of **violations** — pruned positions that
/// held a nonzero value (what an adapter merge must count to prove the
/// merged model is still N:M sparse).
pub fn apply_mask(values: &mut [f32], masks: &[u8], rows: usize, cols: usize, m: usize) -> usize {
    assert!((1..=8).contains(&m), "n:m apply_mask: 1 <= m <= 8");
    assert_eq!(values.len(), rows * cols, "n:m apply_mask: value count");
    assert_eq!(
        masks.len(),
        total_masks(rows, cols, m),
        "n:m apply_mask: mask count"
    );
    let gpr = groups_per_row(cols, m);
    let mut violations = 0usize;
    for r in 0..rows {
        let row = &mut values[r * cols..(r + 1) * cols];
        for (g, group) in row.chunks_mut(m).enumerate() {
            let mask = masks[r * gpr + g];
            for (j, v) in group.iter_mut().enumerate() {
                if mask & (1 << j) == 0 {
                    if *v != 0.0 {
                        violations += 1;
                    }
                    *v = 0.0;
                }
            }
        }
    }
    violations
}

/// Round every value through the codec in place (magnitude-prune, keep
/// survivors bit-exactly, zero the rest) — what a differential test applies
/// to an f32 model so it computes the exact function its N:M-stored twin
/// does. Idempotent in values: re-pruning an already-pruned buffer zeroes
/// nothing new.
pub fn round_slice(values: &mut [f32], rows: usize, cols: usize, n: usize, m: usize) {
    let masks = prune_mask(values, rows, cols, n, m);
    apply_mask(values, &masks, rows, cols, m);
}

/// Borrowed view over N:M compacted storage. The flat index space is the
/// row-major element index of the original `rows x cols` matrix, so strided
/// consumers (GEMM pack routines) need no layout translation; group-level
/// accessors expose the occupancy structure the zero-group-skipping pack
/// arm exploits.
#[derive(Clone, Copy, Debug)]
pub struct NmView<'a> {
    vals: &'a [f32],
    masks: &'a [u8],
    rows: usize,
    cols: usize,
    n: usize,
    m: usize,
}

impl<'a> NmView<'a> {
    pub fn new(
        vals: &'a [f32],
        masks: &'a [u8],
        rows: usize,
        cols: usize,
        n: usize,
        m: usize,
    ) -> Self {
        check_ratio(n, m);
        assert_eq!(
            vals.len(),
            total_slots(rows, cols, n, m),
            "n:m view: {rows}x{cols} at {n}:{m} needs {} value slots, got {}",
            total_slots(rows, cols, n, m),
            vals.len()
        );
        assert_eq!(
            masks.len(),
            total_masks(rows, cols, m),
            "n:m view: {rows}x{cols} at groups of {m} needs {} mask bytes, got {}",
            total_masks(rows, cols, m),
            masks.len()
        );
        NmView {
            vals,
            masks,
            rows,
            cols,
            n,
            m,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Logical element count of the dense matrix this view decodes to.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn n(&self) -> usize {
        self.n
    }

    pub fn m(&self) -> usize {
        self.m
    }

    pub fn groups_per_row(&self) -> usize {
        groups_per_row(self.cols, self.m)
    }

    /// Decode the element at flat row-major index `idx`.
    #[inline(always)]
    pub fn get(&self, idx: usize) -> f32 {
        let (r, c) = (idx / self.cols, idx % self.cols);
        let (g, j) = (c / self.m, c % self.m);
        let mask = self.masks[r * groups_per_row(self.cols, self.m) + g];
        if mask & (1 << j) == 0 {
            return 0.0;
        }
        let rank = (mask & ((1u8 << j) - 1)).count_ones() as usize;
        // Every group before `g` in this row is a full group holding exactly
        // `n` slots (only the last group can be a tail), so the slot base is
        // a multiply, not a prefix sum.
        self.vals[r * slots_per_row(self.cols, self.n, self.m) + g * self.n + rank]
    }

    /// The mask byte of group `g` in row `r`.
    #[inline(always)]
    pub fn group_mask(&self, r: usize, g: usize) -> u8 {
        self.masks[r * groups_per_row(self.cols, self.m) + g]
    }

    /// The compacted slots of group `g` in row `r` (kept values in ascending
    /// position order; trailing zero padding when the mask keeps fewer).
    #[inline(always)]
    pub fn group_slots(&self, r: usize, g: usize) -> &'a [f32] {
        let spr = slots_per_row(self.cols, self.n, self.m);
        let base = r * spr + g * self.n;
        let end = (base + self.n).min((r + 1) * spr);
        &self.vals[base..end]
    }

    /// Whether group `g` of row `r` decodes to anything with nonzero *bits* —
    /// the predicate the zero-group-skipping pack arm tests before touching a
    /// group's slots. The comparison is bitwise (not `!= 0.0`) so a kept
    /// `-0.0` keeps its sign through the skip path: skipping writes into a
    /// pre-zeroed (`+0.0`) panel must be bit-identical to packing the decoded
    /// dense matrix.
    #[inline(always)]
    pub fn group_nonzero(&self, r: usize, g: usize) -> bool {
        let mask = self.group_mask(r, g);
        mask != 0
            && self
                .group_slots(r, g)
                .iter()
                .take(mask.count_ones() as usize)
                .any(|&v| v.to_bits() != 0)
    }

    /// Row `r`'s mask bytes and value slots as raw slices (group `g` is
    /// `masks[g]` / `slots[g·n ..]`). Group-walking consumers (the pack
    /// fills) hoist this per row instead of paying the per-group index
    /// arithmetic of [`group_mask`](Self::group_mask)/
    /// [`group_slots`](Self::group_slots) — that arithmetic divides by `m`
    /// on every call, which dominates a tight walk.
    #[inline(always)]
    pub fn row(&self, r: usize) -> (&'a [u8], &'a [f32]) {
        let gpr = groups_per_row(self.cols, self.m);
        let spr = slots_per_row(self.cols, self.n, self.m);
        (
            &self.masks[r * gpr..(r + 1) * gpr],
            &self.vals[r * spr..(r + 1) * spr],
        )
    }

    /// Decode row `r` into `out` (`out.len() == cols`), bit-identical to the
    /// elementwise [`get`](Self::get) path.
    pub fn decode_row_into(&self, r: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "n:m decode_row: output length");
        let gpr = groups_per_row(self.cols, self.m);
        let spr = slots_per_row(self.cols, self.n, self.m);
        for (g, chunk) in out.chunks_mut(self.m).enumerate() {
            let mask = self.masks[r * gpr + g];
            let mut slot = r * spr + g * self.n;
            for (j, o) in chunk.iter_mut().enumerate() {
                *o = if mask & (1 << j) != 0 {
                    let v = self.vals[slot];
                    slot += 1;
                    v
                } else {
                    0.0
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::pseudo;

    fn decode_vec(
        vals: &[f32],
        masks: &[u8],
        rows: usize,
        cols: usize,
        n: usize,
        m: usize,
    ) -> Vec<f32> {
        let mut out = vec![f32::NAN; rows * cols];
        decode(vals, masks, rows, cols, n, m, &mut out);
        out
    }

    #[test]
    fn layout_arithmetic_covers_tails() {
        assert_eq!(groups_per_row(8, 4), 2);
        assert_eq!(groups_per_row(9, 4), 3);
        assert_eq!(groups_per_row(0, 4), 0);
        assert_eq!(slots_per_row(8, 2, 4), 4);
        assert_eq!(slots_per_row(9, 2, 4), 5); // tail of 1 keeps min(2,1)=1
        assert_eq!(slots_per_row(10, 2, 4), 6); // tail of 2 keeps 2
        assert_eq!(slots_per_row(11, 2, 4), 6); // tail of 3 keeps 2
        assert_eq!(total_slots(3, 10, 2, 4), 18);
        assert_eq!(total_masks(3, 10, 4), 9);
    }

    #[test]
    fn kept_values_round_trip_bit_exactly() {
        for (rows, cols, seed) in [(4usize, 16usize, 1u32), (3, 10, 2), (5, 7, 3), (1, 4, 4)] {
            let dense = pseudo(rows * cols, 2.0, seed);
            let (vals, masks) = encode(&dense, rows, cols, 2, 4);
            let out = decode_vec(&vals, &masks, rows, cols, 2, 4);
            let view = NmView::new(&vals, &masks, rows, cols, 2, 4);
            for (i, (&orig, &dec)) in dense.iter().zip(&out).enumerate() {
                // Either the original bits survive or the position is exact 0.
                assert!(
                    dec.to_bits() == orig.to_bits() || dec == 0.0,
                    "idx {i}: {orig} -> {dec}"
                );
                assert_eq!(view.get(i).to_bits(), dec.to_bits(), "get vs decode at {i}");
            }
            // Exactly n survivors per full group.
            for r in 0..rows {
                for g in 0..groups_per_row(cols, 4) {
                    let glen = 4.min(cols - g * 4);
                    assert_eq!(
                        view.group_mask(r, g).count_ones() as usize,
                        2.min(glen),
                        "row {r} group {g}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_tail_length_round_trips() {
        for cols in [1usize, 2, 3, 4, 5, 6, 7, 9, 11, 13] {
            let dense = pseudo(3 * cols, 1.0, 50 + cols as u32);
            let (vals, masks) = encode(&dense, 3, cols, 2, 4);
            assert_eq!(vals.len(), total_slots(3, cols, 2, 4));
            assert_eq!(masks.len(), total_masks(3, cols, 4));
            let out = decode_vec(&vals, &masks, 3, cols, 2, 4);
            for (i, (&orig, &dec)) in dense.iter().zip(&out).enumerate() {
                assert!(
                    dec.to_bits() == orig.to_bits() || dec == 0.0,
                    "cols {cols} idx {i}"
                );
            }
        }
    }

    #[test]
    fn magnitude_pruning_keeps_the_two_largest_with_stable_ties() {
        let dense = [1.0f32, -3.0, 2.0, 0.5, /* row 2 */ 7.0, 7.0, 7.0, 7.0];
        let masks = prune_mask(&dense, 2, 4, 2, 4);
        assert_eq!(masks[0], 0b0110, "keeps |-3| and |2|");
        assert_eq!(masks[1], 0b0011, "ties keep the lower indices");
    }

    #[test]
    fn all_zero_group_encodes_and_decodes_to_exact_zeros() {
        let mut dense = pseudo(8, 1.0, 9);
        for v in dense[4..8].iter_mut() {
            *v = 0.0;
        }
        let (vals, masks) = encode(&dense, 1, 8, 2, 4);
        // The all-zero group still keeps n positions (of value 0).
        assert_eq!(masks[1].count_ones(), 2);
        let out = decode_vec(&vals, &masks, 1, 8, 2, 4);
        assert_eq!(&out[4..8], &[0.0; 4]);
        let view = NmView::new(&vals, &masks, 1, 8, 2, 4);
        assert!(
            !view.group_nonzero(0, 1),
            "kept zeros are still a zero group"
        );
        assert!(view.group_nonzero(0, 0));
    }

    #[test]
    fn absent_group_via_external_mask_decodes_to_zeros() {
        let dense = pseudo(8, 1.0, 10);
        let masks = vec![0b0101u8, 0b0000]; // second group absent entirely
        let vals = encode_with_mask(&dense, 1, 8, 2, 4, &masks);
        assert_eq!(vals.len(), 4, "absent group still owns zero-padded slots");
        assert_eq!(&vals[2..4], &[0.0, 0.0]);
        let out = decode_vec(&vals, &masks, 1, 8, 2, 4);
        assert_eq!(&out[4..8], &[0.0; 4]);
        assert_eq!(out[0].to_bits(), dense[0].to_bits());
        assert_eq!(out[2].to_bits(), dense[2].to_bits());
        assert_eq!(out[1], 0.0);
        let view = NmView::new(&vals, &masks, 1, 8, 2, 4);
        assert!(!view.group_nonzero(0, 1));
        for i in 4..8 {
            assert_eq!(view.get(i), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "only 2 slots")]
    fn external_mask_with_too_many_survivors_panics() {
        let dense = pseudo(4, 1.0, 11);
        let _ = encode_with_mask(&dense, 1, 4, 2, 4, &[0b0111]);
    }

    #[test]
    #[should_panic(expected = "beyond group")]
    fn external_mask_with_bits_past_the_tail_panics() {
        let dense = pseudo(6, 1.0, 12);
        // Tail group has 2 elements; bit 2 is out of range.
        let _ = encode_with_mask(&dense, 1, 6, 2, 4, &[0b0011, 0b0100]);
    }

    #[test]
    fn round_slice_is_idempotent_in_values() {
        let mut vals = pseudo(6 * 12, 3.0, 13);
        round_slice(&mut vals, 6, 12, 2, 4);
        let once = vals.clone();
        round_slice(&mut vals, 6, 12, 2, 4);
        assert_eq!(vals, once);
        // Exactly half the positions survive (full groups, 2:4).
        let nonzero_capacity = total_slots(6, 12, 2, 4);
        assert!(vals.iter().filter(|v| **v != 0.0).count() <= nonzero_capacity);
    }

    #[test]
    fn apply_mask_counts_violations() {
        let mut dense = pseudo(8, 1.0, 14)
            .iter()
            .map(|v| v + 2.0)
            .collect::<Vec<_>>();
        let masks = prune_mask(&dense, 1, 8, 2, 4);
        // All 8 values are nonzero, 4 survive → 4 violations on first apply.
        assert_eq!(apply_mask(&mut dense, &masks, 1, 8, 4), 4);
        // Second apply: already clean.
        assert_eq!(apply_mask(&mut dense, &masks, 1, 8, 4), 0);
    }

    #[test]
    fn windowed_row_decode_is_bit_identical_to_full_decode() {
        let dense = pseudo(7 * 13, 1.5, 15);
        let (vals, masks) = encode(&dense, 7, 13, 2, 4);
        let full = decode_vec(&vals, &masks, 7, 13, 2, 4);
        let view = NmView::new(&vals, &masks, 7, 13, 2, 4);
        let mut row = vec![0.0f32; 13];
        for r in [0usize, 3, 6] {
            view.decode_row_into(r, &mut row);
            for (c, &v) in row.iter().enumerate() {
                assert_eq!(v.to_bits(), full[r * 13 + c].to_bits(), "row {r} col {c}");
            }
        }
    }

    #[test]
    fn non_finite_survivors_are_stored_verbatim_and_ranked_deterministically() {
        let dense = [f32::NAN, 1.0, f32::INFINITY, -2.0];
        let masks = prune_mask(&dense, 1, 4, 2, 4);
        assert_eq!(masks[0], 0b1100, "inf and |-2| outrank 1.0; NaN ranks as 0");
        let vals = encode_with_mask(&dense, 1, 4, 2, 4, &masks);
        assert_eq!(vals[0], f32::INFINITY);
        assert_eq!(vals[1], -2.0);
        let masks2 = prune_mask(&dense, 1, 4, 2, 4);
        assert_eq!(masks, masks2, "pruning is deterministic");
    }

    #[test]
    fn other_ratios_are_representable() {
        for (n, m) in [(1usize, 4usize), (4, 8), (1, 2), (3, 4)] {
            let dense = pseudo(5 * 16, 1.0, 20 + (n * 8 + m) as u32);
            let (vals, masks) = encode(&dense, 5, 16, n, m);
            let out = decode_vec(&vals, &masks, 5, 16, n, m);
            let kept = out.iter().filter(|v| **v != 0.0).count();
            assert!(kept <= 5 * 16 * n / m, "{n}:{m} keeps at most n/m");
            for (i, (&orig, &dec)) in dense.iter().zip(&out).enumerate() {
                assert!(
                    dec.to_bits() == orig.to_bits() || dec == 0.0,
                    "{n}:{m} idx {i}"
                );
            }
        }
    }
}
