//! Binary block masks over the attention score grid.
//!
//! A `BlockMask` element corresponds to one `block×block` tile of attention
//! scores (paper §IV-B): `1` means the tile is computed, `0` means skipped.

/// Dense bitset over an `rows × cols` block grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMask {
    rows: usize,
    cols: usize,
    bits: Vec<u64>,
}

impl BlockMask {
    /// All-zero mask.
    pub fn new(rows: usize, cols: usize) -> Self {
        BlockMask {
            rows,
            cols,
            bits: vec![0; (rows * cols).div_ceil(64)],
        }
    }

    /// Square all-zero mask (the common attention case).
    pub fn square(n: usize) -> Self {
        Self::new(n, n)
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn index(&self, r: usize, c: usize) -> (usize, u64) {
        debug_assert!(
            r < self.rows && c < self.cols,
            "block ({r},{c}) out of grid"
        );
        let bit = r * self.cols + c;
        (bit / 64, 1u64 << (bit % 64))
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        let (w, m) = self.index(r, c);
        self.bits[w] & m != 0
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        let (w, m) = self.index(r, c);
        if value {
            self.bits[w] |= m;
        } else {
            self.bits[w] &= !m;
        }
    }

    /// Number of active blocks.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Active blocks / total blocks.
    pub fn density(&self) -> f32 {
        if self.rows * self.cols == 0 {
            return 0.0;
        }
        self.count() as f32 / (self.rows * self.cols) as f32
    }

    /// Sparsity ratio = 1 − density (the paper's Fig. 9 metric).
    pub fn sparsity(&self) -> f32 {
        1.0 - self.density()
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &BlockMask) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "mask grids differ"
        );
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Number of blocks active in `self` that are also active in `other`.
    pub fn covered_by(&self, other: &BlockMask) -> usize {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "mask grids differ"
        );
        self.bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterate active `(row, col)` block coordinates in row-major order.
    pub fn iter_active(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.rows)
            .flat_map(move |r| (0..self.cols).filter_map(move |c| self.get(r, c).then_some((r, c))))
    }

    /// Restrict to the causal lower triangle (block granularity): keep
    /// `(r, c)` only when `c <= r`.
    pub fn intersect_causal(&mut self) {
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                self.set(r, c, false);
            }
        }
    }

    /// Render to an ASCII grid (`#` active, `.` inactive) for experiment
    /// visualisations (paper Fig. 11b).
    pub fn to_ascii(&self) -> String {
        let mut out = String::with_capacity(self.rows * (self.cols + 1));
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.push(if self.get(r, c) { '#' } else { '.' });
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut m = BlockMask::square(8);
        assert_eq!(m.count(), 0);
        m.set(0, 0, true);
        m.set(7, 7, true);
        m.set(3, 5, true);
        assert!(m.get(3, 5));
        assert_eq!(m.count(), 3);
        m.set(3, 5, false);
        assert_eq!(m.count(), 2);
        assert!(!m.get(3, 5));
    }

    #[test]
    fn density_and_sparsity_sum_to_one() {
        let mut m = BlockMask::square(4);
        for i in 0..4 {
            m.set(i, i, true);
        }
        assert!((m.density() - 0.25).abs() < 1e-6);
        assert!((m.sparsity() - 0.75).abs() < 1e-6);
    }

    #[test]
    fn union_and_intersection() {
        let mut a = BlockMask::square(4);
        let mut b = BlockMask::square(4);
        a.set(0, 0, true);
        a.set(1, 1, true);
        b.set(1, 1, true);
        b.set(2, 2, true);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), 3);
        assert_eq!(a.covered_by(&b), 1);
    }

    #[test]
    fn covered_by_counts_overlap() {
        let mut a = BlockMask::square(3);
        let mut b = BlockMask::square(3);
        a.set(0, 0, true);
        a.set(1, 0, true);
        b.set(0, 0, true);
        assert_eq!(a.covered_by(&b), 1);
        assert_eq!(b.covered_by(&a), 1);
    }

    #[test]
    fn iter_active_row_major() {
        let mut m = BlockMask::new(2, 3);
        m.set(1, 0, true);
        m.set(0, 2, true);
        let v: Vec<_> = m.iter_active().collect();
        assert_eq!(v, vec![(0, 2), (1, 0)]);
    }

    #[test]
    fn causal_restriction() {
        let mut m = BlockMask::square(3);
        for r in 0..3 {
            for c in 0..3 {
                m.set(r, c, true);
            }
        }
        m.intersect_causal();
        assert_eq!(m.count(), 6); // lower triangle of 3×3
        assert!(!m.get(0, 1));
        assert!(m.get(2, 0));
    }

    #[test]
    fn ascii_rendering() {
        let mut m = BlockMask::square(2);
        m.set(0, 0, true);
        assert_eq!(m.to_ascii(), "#.\n..\n");
    }
}
