//! N:M structured-sparse storage: [`NmTensor`].
//!
//! The pruned sibling of [`QuantTensor`](crate::quant::QuantTensor): frozen
//! parameters stored 2:4 structured-sparse (per row-group of 4 elements keep
//! 2) as compacted f32 values plus one index-bitmask byte per group,
//! registered with [`memtrack`] at their true footprint (9 bytes per group
//! of 4 vs 16 for f32 — 0.5625x). Kept values are stored **bit-exactly**,
//! so decoding is lossless on survivors and exact-zero on pruned positions;
//! row decodes are strictly elementwise and bit-identical to a full-buffer
//! decode, the same slab-gather contract the NF4 dtype honours.
//!
//! The mask is first-class: [`NmTensor::masks`] hands it to the
//! sparsity-preserving adapter merge (SPP lineage), which re-applies it
//! after folding LoRA deltas so merged models provably stay 2:4.

use crate::memtrack;
use crate::{Dtype, Tensor};
use lx_kernels::BOperand;
use lx_quant::nm;
use lx_quant::NmView;

// Codec entry points re-exported so model- and adapter-layer callers (mask
// capture, merge-time re-application, differential-test oracles) need no
// direct lx-quant dependency.
pub use lx_quant::nm::{apply_mask, prune_mask, round_slice};

/// Kept values per group — the `N` of the stored `N:M` pattern.
pub const NM_N: usize = 2;
/// Group size — the `M` of the stored `N:M` pattern.
pub const NM_M: usize = 4;

/// A tensor stored N:M structured-sparse (2:4): compacted kept values, one
/// index-bitmask byte per group, and a shape whose last dimension is the
/// pruning axis (groups never straddle rows).
#[derive(Debug)]
pub struct NmTensor {
    vals: Vec<f32>,
    masks: Vec<u8>,
    shape: Vec<usize>,
}

impl NmTensor {
    /// Magnitude-prune an f32 slice to 2:4 per row-group. `dtype` must be
    /// [`Dtype::Nm24`]; panics otherwise, or if the length does not match
    /// the shape.
    pub fn from_f32(values: &[f32], shape: &[usize], dtype: Dtype) -> Self {
        assert_eq!(dtype, Dtype::Nm24, "NmTensor: {dtype} is not an N:M dtype");
        let (rows, cols) = rows_cols(shape);
        assert_eq!(
            values.len(),
            rows * cols,
            "data length {} does not match shape {:?}",
            values.len(),
            shape
        );
        let (vals, masks) = nm::encode(values, rows, cols, NM_N, NM_M);
        Self::from_parts(vals, masks, shape)
    }

    /// Compact an f32 slice under an externally-supplied 2:4 mask (one
    /// bitmask byte per row-group, popcount ≤ 2). This is the entry point
    /// for models pruned offline with their own saliency criterion.
    pub fn from_f32_with_mask(values: &[f32], shape: &[usize], masks: &[u8]) -> Self {
        let (rows, cols) = rows_cols(shape);
        assert_eq!(
            values.len(),
            rows * cols,
            "data length {} does not match shape {:?}",
            values.len(),
            shape
        );
        let vals = nm::encode_with_mask(values, rows, cols, NM_N, NM_M, masks);
        Self::from_parts(vals, masks.to_vec(), shape)
    }

    /// Prune a dense tensor.
    pub fn from_tensor(t: &Tensor, dtype: Dtype) -> Self {
        Self::from_f32(t.as_slice(), t.shape(), dtype)
    }

    fn from_parts(vals: Vec<f32>, masks: Vec<u8>, shape: &[usize]) -> Self {
        let t = NmTensor {
            vals,
            masks,
            shape: shape.to_vec(),
        };
        memtrack::register(t.storage_capacity_bytes());
        t
    }

    /// Borrowed decoding view as a kernel operand — what the fused N:M
    /// GEMMs consume.
    pub fn operand(&self) -> BOperand<'_> {
        let (rows, cols) = rows_cols(&self.shape);
        BOperand::Nm(NmView::new(&self.vals, &self.masks, rows, cols, NM_N, NM_M))
    }

    /// The per-group index bitmasks (one byte per row-group of 4) — the
    /// sparsity pattern an SPP-style merge re-applies after folding adapter
    /// deltas.
    pub fn masks(&self) -> &[u8] {
        &self.masks
    }

    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Exact storage bytes (compacted values plus mask bytes). Equals
    /// [`Dtype::bytes_for`] whenever `cols % 4 == 0`; per-row tail groups
    /// make the true figure shape-dependent, and this is the true figure.
    pub fn bytes(&self) -> usize {
        self.vals.len() * 4 + self.masks.len()
    }

    /// What we actually told the memory tracker: capacity-based, so the
    /// register/unregister pair always balances. The encode paths build
    /// exact-capacity vectors, so in practice this equals [`bytes`](Self::bytes).
    fn storage_capacity_bytes(&self) -> usize {
        self.vals.capacity() * 4 + self.masks.capacity()
    }
}

/// 2-D factorization of a shape: (product of leading dims, last dim).
fn rows_cols(shape: &[usize]) -> (usize, usize) {
    let cols = *shape.last().unwrap_or(&0);
    let len: usize = shape.iter().product();
    (len.checked_div(cols).unwrap_or(0), cols)
}

impl Clone for NmTensor {
    fn clone(&self) -> Self {
        let t = NmTensor {
            vals: self.vals.clone(),
            masks: self.masks.clone(),
            shape: self.shape.clone(),
        };
        memtrack::register(t.storage_capacity_bytes());
        t
    }
}

impl Drop for NmTensor {
    fn drop(&mut self) {
        memtrack::unregister(self.storage_capacity_bytes());
    }
}

impl PartialEq for NmTensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.masks == other.masks && self.vals == other.vals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtrack::thread_live_bytes;
    use crate::BRef;

    #[test]
    fn accounting_matches_bytes_for_when_rows_are_group_aligned() {
        let t = Tensor::randn(&[16, 20], 1.0, 41);
        let before = thread_live_bytes();
        let q = NmTensor::from_tensor(&t, Dtype::Nm24);
        let delta = thread_live_bytes() - before;
        assert_eq!(delta as usize, Dtype::Nm24.bytes_for(t.len()), "measured");
        assert_eq!(q.bytes(), Dtype::Nm24.bytes_for(t.len()), "reported");
        drop(q);
        assert_eq!(thread_live_bytes(), before);
    }

    #[test]
    fn tail_rows_account_their_true_bytes() {
        // cols = 7: per row 1 full group (2 slots) + tail of 3 (2 slots) =
        // 4 slots + 2 mask bytes = 18 bytes/row.
        let t = Tensor::randn(&[5, 7], 1.0, 42);
        let before = thread_live_bytes();
        let q = NmTensor::from_tensor(&t, Dtype::Nm24);
        assert_eq!(q.bytes(), 5 * 18);
        assert_eq!(thread_live_bytes() - before, 5 * 18);
        drop(q);
        assert_eq!(thread_live_bytes(), before);
    }

    #[test]
    fn roundtrip_keeps_survivors_bit_exactly() {
        let t = Tensor::randn(&[9, 12], 1.0, 43);
        let q = NmTensor::from_tensor(&t, Dtype::Nm24);
        let back = BRef::from(&q).to_tensor();
        let mut kept = 0usize;
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            if b.to_bits() == a.to_bits() && *b != 0.0 {
                kept += 1;
            } else {
                assert_eq!(*b, 0.0, "{a} -> {b}");
            }
        }
        assert_eq!(kept, 9 * 12 / 2, "exactly half survive at 2:4");
    }

    #[test]
    fn external_mask_is_respected_and_exposed() {
        let t = Tensor::randn(&[2, 8], 1.0, 44);
        // Keep positions {0,1} in every group regardless of magnitude.
        let masks = vec![0b0011u8; 4];
        let q = NmTensor::from_f32_with_mask(t.as_slice(), &[2, 8], &masks);
        assert_eq!(q.masks(), &masks[..]);
        let back = BRef::from(&q).to_tensor();
        for r in 0..2 {
            for c in 0..8 {
                let v = back.as_slice()[r * 8 + c];
                if c % 4 < 2 {
                    assert_eq!(v.to_bits(), t.as_slice()[r * 8 + c].to_bits());
                } else {
                    assert_eq!(v, 0.0);
                }
            }
        }
    }

    #[test]
    fn clone_registers_its_own_buffer() {
        let t = Tensor::randn(&[8, 8], 1.0, 46);
        let before = thread_live_bytes();
        let a = NmTensor::from_tensor(&t, Dtype::Nm24);
        let b = a.clone();
        assert_eq!(
            (thread_live_bytes() - before) as usize,
            2 * Dtype::Nm24.bytes_for(64)
        );
        assert_eq!(a, b);
        drop(a);
        drop(b);
        assert_eq!(thread_live_bytes(), before);
    }

    #[test]
    #[should_panic(expected = "not an N:M dtype")]
    fn rejects_non_nm_dtypes() {
        let _ = NmTensor::from_f32(&[1.0], &[1], Dtype::F16);
    }
}
