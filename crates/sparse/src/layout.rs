//! Block-CSR layout lookup tables (the paper's Fig. 6 "lookup tables").
//!
//! A [`BlockCsr`] is the precomputed indexing structure for one sparse
//! pattern: row pointers + block-column indices (CSR order, which is also the
//! storage order of score-block data), plus a CSC view for the transposed
//! kernels in the backward pass, plus the three grouped-GEMM offset tables
//! the SDD / DSD / transposed-DSD operators launch over (see
//! [`crate::attention`]). Building one costs a scan of the mask; the whole
//! point of the pattern pool is to do that *offline* and reuse it.

use crate::mask::BlockMask;
use lx_kernels::GemmTable;
use std::sync::{Arc, Mutex, OnceLock};

/// Layout lookup table for a block-sparse matrix over an
/// `n_brows × n_bcols` grid of `block_size × block_size` tiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockCsr {
    pub block_size: usize,
    pub n_brows: usize,
    pub n_bcols: usize,
    /// CSR row pointers, length `n_brows + 1`.
    pub row_ptr: Vec<u32>,
    /// Block-column index per entry, sorted within each row.
    pub col_idx: Vec<u32>,
    /// CSC column pointers, length `n_bcols + 1`.
    pub col_ptr: Vec<u32>,
    /// Block-row index per CSC entry.
    pub row_idx: Vec<u32>,
    /// For each CSC entry, the CSR entry index owning the block data.
    pub csc_to_csr: Vec<u32>,
    /// SDD tasks, one per block in CSR order: `(block-row, block-col, entry)`.
    pub(crate) sdd: GemmTable,
    /// DSD tasks in CSR order, one run per block-row:
    /// `(entry, block-col, block-row)`.
    pub(crate) dsd: GemmTable,
    /// Transposed-DSD tasks in CSC order, one run per block-column:
    /// `(entry, block-row, block-col)`.
    pub(crate) dsd_tn: GemmTable,
}

/// `(entry, major, minor)` of every entry of a compressed index (CSR: row
/// pointers + column indices; CSC the other way round), in entry order.
fn entries<'a>(ptr: &'a [u32], idx: &'a [u32]) -> impl Iterator<Item = (u32, u32, u32)> + 'a {
    ptr.windows(2)
        .enumerate()
        .flat_map(move |(major, w)| (w[0]..w[1]).map(move |e| (e, major as u32, idx[e as usize])))
}

impl BlockCsr {
    /// Build the lookup table from a mask.
    pub fn from_mask(mask: &BlockMask, block_size: usize) -> Self {
        let n_brows = mask.rows();
        let n_bcols = mask.cols();
        let mut row_ptr = Vec::with_capacity(n_brows + 1);
        let mut col_idx = Vec::new();
        row_ptr.push(0u32);
        for r in 0..n_brows {
            for c in 0..n_bcols {
                if mask.get(r, c) {
                    col_idx.push(c as u32);
                }
            }
            row_ptr.push(col_idx.len() as u32);
        }
        Self::from_csr(block_size, n_bcols, row_ptr, col_idx)
    }

    /// The layouts of `heads` as one block-diagonal layout: head `h` owns
    /// block-rows and block-columns `h·n .. (h+1)·n`, and — CSR order being
    /// head-major — the block data of the stack is the heads' block data back
    /// to back, exactly where [`MultiHeadLayout::data_offsets`] puts it. One
    /// operator launch over the stack therefore covers every head of a
    /// layer. `None` unless the heads share one block size and grid.
    pub fn stack(heads: &[Arc<BlockCsr>]) -> Option<BlockCsr> {
        let first = heads.first()?;
        let (b, rows, cols) = (first.block_size, first.n_brows, first.n_bcols);
        if heads
            .iter()
            .any(|h| (h.block_size, h.n_brows, h.n_bcols) != (b, rows, cols))
        {
            return None;
        }
        let mut row_ptr = vec![0u32];
        let mut col_idx = Vec::new();
        for (h, head) in heads.iter().enumerate() {
            let entries = col_idx.len() as u32;
            row_ptr.extend(head.row_ptr[1..].iter().map(|&p| entries + p));
            col_idx.extend(head.col_idx.iter().map(|&c| (h * cols) as u32 + c));
        }
        Some(Self::from_csr(b, heads.len() * cols, row_ptr, col_idx))
    }

    /// Derive the CSC view and the operator offset tables from the CSR index.
    fn from_csr(block_size: usize, n_bcols: usize, row_ptr: Vec<u32>, col_idx: Vec<u32>) -> Self {
        let n_brows = row_ptr.len() - 1;
        // CSC view with back-pointers into CSR entry order.
        let nnzb = col_idx.len();
        let mut col_counts = vec![0u32; n_bcols + 1];
        for &c in &col_idx {
            col_counts[c as usize + 1] += 1;
        }
        for c in 0..n_bcols {
            col_counts[c + 1] += col_counts[c];
        }
        let col_ptr = col_counts.clone();
        let mut cursor = col_counts;
        let mut row_idx = vec![0u32; nnzb];
        let mut csc_to_csr = vec![0u32; nnzb];
        for (e, br, bc) in entries(&row_ptr, &col_idx) {
            let pos = cursor[bc as usize] as usize;
            row_idx[pos] = br;
            csc_to_csr[pos] = e;
            cursor[bc as usize] += 1;
        }
        let csr = || entries(&row_ptr, &col_idx);
        let sdd = GemmTable::each(csr().map(|(e, br, bc)| (br, bc, e)));
        let dsd = GemmTable::new(csr().map(|(e, br, bc)| (e, bc, br)), row_ptr.clone());
        let csc = entries(&col_ptr, &row_idx);
        let dsd_tn = GemmTable::new(
            csc.map(|(e2, bc, br)| (csc_to_csr[e2 as usize], br, bc)),
            col_ptr.clone(),
        );
        BlockCsr {
            block_size,
            n_brows,
            n_bcols,
            row_ptr,
            col_idx,
            col_ptr,
            row_idx,
            csc_to_csr,
            sdd,
            dsd,
            dsd_tn,
        }
    }

    /// Number of active blocks.
    pub fn nnz_blocks(&self) -> usize {
        self.col_idx.len()
    }

    /// Length of the block-data buffer this layout addresses.
    pub fn data_len(&self) -> usize {
        self.nnz_blocks() * self.block_size * self.block_size
    }

    /// Active blocks / total grid blocks.
    pub fn density(&self) -> f32 {
        if self.n_brows * self.n_bcols == 0 {
            return 0.0;
        }
        self.nnz_blocks() as f32 / (self.n_brows * self.n_bcols) as f32
    }

    /// Entries (CSR order) of one block-row.
    pub fn row_entries(&self, br: usize) -> std::ops::Range<usize> {
        self.row_ptr[br] as usize..self.row_ptr[br + 1] as usize
    }

    /// Entries (CSC order) of one block-column.
    pub fn col_entries(&self, bc: usize) -> std::ops::Range<usize> {
        self.col_ptr[bc] as usize..self.col_ptr[bc + 1] as usize
    }

    /// Jaccard overlap of the active block sets of two layouts on the same
    /// grid: `|A ∩ B| / |A ∪ B|` over `(block-row, block-col)` coordinates
    /// (1.0 when both are empty). The shadowy-sparsity drift signal: plans
    /// whose layouts overlap highly can be reused across steps.
    pub fn overlap(&self, other: &BlockCsr) -> f32 {
        assert_eq!(
            (self.n_brows, self.n_bcols),
            (other.n_brows, other.n_bcols),
            "overlap needs matching grids"
        );
        let mut inter = 0usize;
        for br in 0..self.n_brows {
            let a = &self.col_idx[self.row_entries(br)];
            let b = &other.col_idx[other.row_entries(br)];
            // col_idx is sorted within a row: merge walk.
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        inter += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        let union = self.nnz_blocks() + other.nnz_blocks() - inter;
        if union == 0 {
            1.0
        } else {
            inter as f32 / union as f32
        }
    }

    /// Reconstruct the mask (for tests / visualisation).
    pub fn to_mask(&self) -> BlockMask {
        let mut m = BlockMask::new(self.n_brows, self.n_bcols);
        for r in 0..self.n_brows {
            for e in self.row_entries(r) {
                m.set(r, self.col_idx[e] as usize, true);
            }
        }
        m
    }
}

/// The operator tables of a stacked multi-head layout over head-major
/// activations: head `h` of a batch is one contiguous `[batch·s, dh]` panel,
/// and a batch item's rows of it start `pitch` block-rows after the item's
/// rows of head `h − 1`. Window `h·pitch + x` — with stride `b·dh` and
/// leading dimension `dh`, counted from the item's rows of head 0 — is
/// block-row (or block-column) `x` of head `h`, so Q, K, V and dO are read,
/// and ctx, dQ, dK and dV written, as contiguous rows where the projections
/// keep them. Task order, C windows of the block data and the numbering of
/// shared windows are those of the stacked layout's own tables (which these
/// are, at `pitch = s / b`), so every product keeps its accumulation order.
#[derive(Debug)]
pub(crate) struct HeadTables {
    /// Block-rows from one head's panel to the next.
    pitch: usize,
    /// `(query window, key window, entry)`, every block its own run.
    pub(crate) sdd: GemmTable,
    /// `(entry, key window, query window)`, one run per stacked block-row.
    pub(crate) dsd: GemmTable,
    /// `(entry, query window, key window)`, one run per stacked block-column.
    pub(crate) dsd_tn: GemmTable,
    /// Blocks per query block-row over all heads, as a prefix table.
    pub(crate) row_blocks: Vec<u32>,
    /// Blocks per key block-column over all heads, as a prefix table.
    pub(crate) col_blocks: Vec<u32>,
}

impl HeadTables {
    /// The tables of `stacked`, the block-diagonal stack of `heads` equal
    /// grids, over head panels `pitch` block-rows apart.
    fn new(stacked: &BlockCsr, heads: usize, pitch: usize) -> Self {
        let n = (stacked.n_brows / heads) as u32;
        let window = |x: u32| (x / n) * pitch as u32 + x % n;
        let csr = || entries(&stacked.row_ptr, &stacked.col_idx);
        let csc = entries(&stacked.col_ptr, &stacked.row_idx);
        let csc_to_csr = &stacked.csc_to_csr;
        // Blocks of block-row (block-column) `x` summed over the heads.
        let blocks = |ptr: &[u32]| {
            let mut prefix = vec![0u32];
            for x in 0..n as usize {
                let sum = (0..heads).map(|h| ptr[h * n as usize + x + 1] - ptr[h * n as usize + x]);
                prefix.push(prefix[x] + sum.sum::<u32>());
            }
            prefix
        };
        HeadTables {
            pitch,
            sdd: GemmTable::each(csr().map(|(e, br, bc)| (window(br), window(bc), e))),
            dsd: GemmTable::new(
                csr().map(|(e, br, bc)| (e, window(bc), window(br))),
                stacked.row_ptr.clone(),
            ),
            dsd_tn: GemmTable::new(
                csc.map(|(e2, bc, br)| (csc_to_csr[e2 as usize], window(br), window(bc))),
                stacked.col_ptr.clone(),
            ),
            row_blocks: blocks(&stacked.row_ptr),
            col_blocks: blocks(&stacked.col_ptr),
        }
    }
}

/// The online-combined multi-head layout (paper Fig. 6, right).
///
/// Each head references a pooled (shared) `BlockCsr`; `data_offsets` place
/// every head's block data in one contiguous buffer. Combination is pure
/// offset arithmetic — the per-head lookup tables are reused as-is; the
/// [stacked](Self::stacked) layout a per-layer operator launch runs over is
/// derived from them the first time a launch asks for it.
#[derive(Debug, Clone)]
pub struct MultiHeadLayout {
    pub heads: Vec<Arc<BlockCsr>>,
    /// Element offset of each head's block data in the shared buffer.
    pub data_offsets: Vec<usize>,
    /// Total elements across heads (`data_offsets.last() + last head len`).
    pub total_data_len: usize,
    stacked: OnceLock<Option<BlockCsr>>,
    head_tables: TableCache,
}

/// The [`HeadTables`] a layout has built, one per pitch asked for; a clone
/// starts with the same tables.
#[derive(Debug, Default)]
struct TableCache(Mutex<Vec<Arc<HeadTables>>>);

impl Clone for TableCache {
    fn clone(&self) -> Self {
        TableCache(Mutex::new(self.0.lock().expect("table cache").clone()))
    }
}

impl MultiHeadLayout {
    /// Combine per-head layouts by computing data offsets (prefix sum).
    pub fn combine(heads: Vec<Arc<BlockCsr>>) -> Self {
        let mut data_offsets = Vec::with_capacity(heads.len());
        let mut acc = 0usize;
        for h in &heads {
            data_offsets.push(acc);
            acc += h.data_len();
        }
        MultiHeadLayout {
            stacked: OnceLock::new(),
            head_tables: TableCache::default(),
            heads,
            data_offsets,
            total_data_len: acc,
        }
    }

    /// All heads as one block-diagonal layout over the shared block-data
    /// buffer (see [`BlockCsr::stack`]); `None` when the heads differ in
    /// block size or grid. Built on first use — index concatenation, no mask
    /// scan — and kept for every later launch over this layout (forward and
    /// backward, every batch item, every step that reuses the plan).
    pub fn stacked(&self) -> Option<&BlockCsr> {
        self.stacked
            .get_or_init(|| BlockCsr::stack(&self.heads))
            .as_ref()
    }

    /// The tables of the [stacked](Self::stacked) layout over head panels
    /// `pitch` block-rows apart ([`HeadTables`]): built the first time a
    /// launch asks for that pitch (one per batch size) and kept.
    pub(crate) fn head_tables(&self, pitch: usize) -> Option<Arc<HeadTables>> {
        let stacked = self.stacked()?;
        let mut cache = self.head_tables.0.lock().expect("table cache");
        if let Some(t) = cache.iter().find(|t| t.pitch == pitch) {
            return Some(t.clone());
        }
        let t = Arc::new(HeadTables::new(stacked, self.n_heads(), pitch));
        cache.push(t.clone());
        Some(t)
    }

    pub fn n_heads(&self) -> usize {
        self.heads.len()
    }

    /// Total active blocks across heads.
    pub fn total_blocks(&self) -> usize {
        self.heads.iter().map(|h| h.nnz_blocks()).sum()
    }

    /// Mean density across heads.
    pub fn mean_density(&self) -> f32 {
        if self.heads.is_empty() {
            return 0.0;
        }
        self.heads.iter().map(|h| h.density()).sum::<f32>() / self.heads.len() as f32
    }

    /// The slice bounds of head `h` inside the shared block-data buffer.
    pub fn head_data_range(&self, h: usize) -> std::ops::Range<usize> {
        let start = self.data_offsets[h];
        start..start + self.heads[h].data_len()
    }

    /// Block-weighted mean [`BlockCsr::overlap`] across heads (heads sharing
    /// the same pooled layout `Arc` short-circuit to a perfect match). 1.0
    /// when both layouts are empty.
    pub fn overlap(&self, other: &MultiHeadLayout) -> f32 {
        assert_eq!(self.n_heads(), other.n_heads(), "overlap needs equal heads");
        let mut weighted = 0.0f64;
        let mut weight = 0.0f64;
        for (a, b) in self.heads.iter().zip(&other.heads) {
            let w = (a.nnz_blocks() + b.nnz_blocks()).max(1) as f64;
            let o = if Arc::ptr_eq(a, b) {
                1.0
            } else {
                a.overlap(b) as f64
            };
            weighted += o * w;
            weight += w;
        }
        if weight == 0.0 {
            1.0
        } else {
            (weighted / weight) as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag_mask(n: usize) -> BlockMask {
        let mut m = BlockMask::square(n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    #[test]
    fn csr_overlap_is_jaccard_over_blocks() {
        let mut a = diag_mask(4);
        a.set(1, 0, true); // diag + one extra: 5 blocks
        let mut b = diag_mask(4);
        b.set(3, 0, true); // diag + a different extra: 5 blocks
        let ca = BlockCsr::from_mask(&a, 8);
        let cb = BlockCsr::from_mask(&b, 8);
        // Intersection = 4 (the diagonal), union = 6.
        assert!((ca.overlap(&cb) - 4.0 / 6.0).abs() < 1e-6);
        assert_eq!(ca.overlap(&ca), 1.0);
        let empty = BlockCsr::from_mask(&BlockMask::square(4), 8);
        assert_eq!(empty.overlap(&empty), 1.0);
        assert_eq!(ca.overlap(&empty), 0.0);
    }

    #[test]
    fn multi_head_overlap_weights_by_blocks() {
        let full = Arc::new(BlockCsr::from_mask(
            &{
                let mut m = BlockMask::square(4);
                for r in 0..4 {
                    for c in 0..=r {
                        m.set(r, c, true);
                    }
                }
                m
            },
            8,
        ));
        let diag = Arc::new(BlockCsr::from_mask(&diag_mask(4), 8));
        let a = MultiHeadLayout::combine(vec![full.clone(), diag.clone()]);
        let b = MultiHeadLayout::combine(vec![full.clone(), full.clone()]);
        // Head 0 shares an Arc (overlap 1); head 1 is diag-vs-full (4/10).
        let o = a.overlap(&b);
        assert!(o > 0.4 && o < 1.0, "overlap {o}");
        assert_eq!(a.overlap(&a), 1.0);
    }

    #[test]
    fn csr_roundtrips_mask() {
        let mut m = BlockMask::square(5);
        m.set(0, 0, true);
        m.set(2, 1, true);
        m.set(2, 2, true);
        m.set(4, 0, true);
        let csr = BlockCsr::from_mask(&m, 16);
        assert_eq!(csr.nnz_blocks(), 4);
        assert_eq!(csr.to_mask(), m);
    }

    #[test]
    fn csc_view_is_consistent() {
        let mut m = BlockMask::square(4);
        m.set(0, 0, true);
        m.set(1, 0, true);
        m.set(2, 1, true);
        m.set(3, 0, true);
        m.set(3, 3, true);
        let csr = BlockCsr::from_mask(&m, 8);
        // Every CSC entry must point back at a CSR entry with matching coords.
        for bc in 0..4 {
            for e in csr.col_entries(bc) {
                let br = csr.row_idx[e] as usize;
                let csr_e = csr.csc_to_csr[e] as usize;
                assert_eq!(csr.col_idx[csr_e] as usize, bc);
                assert!(csr.row_entries(br).contains(&csr_e));
            }
        }
        // Counts agree.
        let by_cols: usize = (0..4).map(|c| csr.col_entries(c).len()).sum();
        assert_eq!(by_cols, csr.nnz_blocks());
    }

    #[test]
    fn data_len_scales_with_block_size() {
        let csr = BlockCsr::from_mask(&diag_mask(3), 4);
        assert_eq!(csr.data_len(), 3 * 16);
        assert!((csr.density() - 3.0 / 9.0).abs() < 1e-6);
    }

    #[test]
    fn combine_offsets_are_prefix_sums() {
        let a = Arc::new(BlockCsr::from_mask(&diag_mask(2), 4)); // 2 blocks * 16
        let b = Arc::new(BlockCsr::from_mask(&diag_mask(3), 4)); // 3 blocks * 16
        let ml = MultiHeadLayout::combine(vec![a.clone(), b, a]);
        assert_eq!(ml.data_offsets, vec![0, 32, 80]);
        assert_eq!(ml.total_data_len, 112);
        assert_eq!(ml.total_blocks(), 7);
        assert_eq!(ml.head_data_range(1), 32..80);
    }

    #[test]
    fn stacked_heads_are_the_block_diagonal_layout() {
        let mut m0 = diag_mask(3);
        m0.set(2, 0, true);
        let mut m1 = BlockMask::square(3); // block-row 1 empty
        m1.set(0, 0, true);
        m1.set(2, 1, true);
        let masks = [m0, m1, diag_mask(3)];
        let heads: Vec<_> = masks
            .iter()
            .map(|m| Arc::new(BlockCsr::from_mask(m, 4)))
            .collect();
        let mut diagonal = BlockMask::square(9);
        for (h, m) in masks.iter().enumerate() {
            for r in 0..3 {
                for c in 0..3 {
                    diagonal.set(h * 3 + r, h * 3 + c, m.get(r, c));
                }
            }
        }
        // Same index, same CSC view, same operator tables.
        let ml = MultiHeadLayout::combine(heads.clone());
        assert_eq!(ml.stacked(), Some(&BlockCsr::from_mask(&diagonal, 4)));
        assert_eq!(ml.stacked().unwrap().data_len(), ml.total_data_len);
        // Heads on different grids do not stack.
        let other = Arc::new(BlockCsr::from_mask(&diag_mask(2), 4));
        assert!(MultiHeadLayout::combine(vec![heads[0].clone(), other])
            .stacked()
            .is_none());
        assert!(BlockCsr::stack(&[]).is_none());
    }

    #[test]
    fn empty_mask_layout() {
        let m = BlockMask::square(4);
        let csr = BlockCsr::from_mask(&m, 8);
        assert_eq!(csr.nnz_blocks(), 0);
        assert_eq!(csr.data_len(), 0);
        for r in 0..4 {
            assert!(csr.row_entries(r).is_empty());
        }
    }
}
