//! Block-quantized storage: [`QuantTensor`].
//!
//! The quantized sibling of [`HalfTensor`](crate::f16::HalfTensor): frozen
//! parameters stored as `lx-quant` NF4 nibbles plus one f32 absmax scale per
//! 64-element block, registered with [`memtrack`] at their true footprint.
//! All *arithmetic* stays f32 — the fused quantized-B GEMMs in `lx-kernels`
//! dequantize inside their pack/load stage, and row decodes (embedding
//! lookups, active-neuron-slab gathers) are strictly elementwise, so any
//! decode window is bit-identical to a full-buffer decode.

use crate::memtrack;
use crate::{Dtype, Tensor};
use lx_kernels::BOperand;
use lx_quant::Q4View;

/// A tensor stored NF4-quantized: two codebook indices per byte plus
/// per-block scales and a shape.
///
/// Reads dequantize to f32; the buffers report their true footprint (code
/// bytes + 4 bytes per block scale) to the memory tracker, which is what
/// makes the Fig. 8 measured-memory experiments honest about quantized
/// storage.
#[derive(Debug)]
pub struct QuantTensor {
    codes: Vec<u8>,
    scales: Vec<f32>,
    shape: Vec<usize>,
    len: usize,
}

impl QuantTensor {
    /// Quantize an f32 slice to NF4. Panics if the length does not match the
    /// shape.
    pub fn from_f32(values: &[f32], shape: &[usize]) -> Self {
        let len: usize = shape.iter().product();
        assert_eq!(
            values.len(),
            len,
            "data length {} does not match shape {:?}",
            values.len(),
            shape
        );
        let (codes, scales) = lx_quant::nf4::quantize(values);
        let t = QuantTensor {
            codes,
            scales,
            shape: shape.to_vec(),
            len,
        };
        memtrack::register(t.storage_capacity_bytes());
        t
    }

    /// Quantize a dense tensor.
    pub fn from_tensor(t: &Tensor) -> Self {
        Self::from_f32(t.as_slice(), t.shape())
    }

    /// The storage dtype ([`Dtype::Nf4Block`]).
    pub fn dtype(&self) -> Dtype {
        Dtype::Nf4Block
    }

    /// Borrowed dequantizing view as a kernel operand — what the fused
    /// quantized-B GEMMs consume.
    pub fn operand(&self) -> BOperand<'_> {
        BOperand::Q4(Q4View::new(&self.codes, &self.scales, self.len))
    }

    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Bytes occupied by the quantized storage (code bytes plus per-block
    /// scales) — always equals [`Dtype::bytes_for`] of the dtype and length.
    pub fn bytes(&self) -> usize {
        self.dtype().bytes_for(self.len)
    }

    /// What we actually told the memory tracker: capacity-based, so the
    /// register/unregister pair always balances. The quantize path builds
    /// exact-capacity vectors, so in practice this equals [`bytes`](Self::bytes).
    fn storage_capacity_bytes(&self) -> usize {
        self.codes.capacity() + self.scales.capacity() * 4
    }
}

impl Clone for QuantTensor {
    fn clone(&self) -> Self {
        let t = QuantTensor {
            codes: self.codes.clone(),
            scales: self.scales.clone(),
            shape: self.shape.clone(),
            len: self.len,
        };
        memtrack::register(t.storage_capacity_bytes());
        t
    }
}

impl Drop for QuantTensor {
    fn drop(&mut self) {
        memtrack::unregister(self.storage_capacity_bytes());
    }
}

impl PartialEq for QuantTensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.codes == other.codes && self.scales == other.scales
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtrack::thread_live_bytes;

    #[test]
    fn accounting_matches_bytes_for_exactly() {
        let dtype = Dtype::Nf4Block;
        for shape in [
            vec![16usize, 20], // 320 elems: tail block
            vec![3, 21],       // 63 elems: single short block
        ] {
            let t = Tensor::randn(&shape, 1.0, 31);
            let numel = t.len();
            let before = thread_live_bytes();
            let q = QuantTensor::from_tensor(&t);
            let delta = thread_live_bytes() - before;
            assert_eq!(delta as usize, dtype.bytes_for(numel), "{dtype} measured");
            assert_eq!(q.bytes(), dtype.bytes_for(numel), "{dtype} reported");
            drop(q);
            assert_eq!(thread_live_bytes(), before);
        }
    }

    #[test]
    fn roundtrip_bounds_error() {
        let t = Tensor::randn(&[9, 33], 1.0, 32);
        let q = QuantTensor::from_tensor(&t);
        assert_eq!(q.dtype(), Dtype::Nf4Block);
        let back = crate::BRef::from(&q).to_tensor();
        // Loose sanity bound (exact bounds are tested in lx-quant): the
        // worst NF4 gap is ~0.18·absmax, absmax ≲ 5σ here.
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() < 1.0, "{a} vs {b}");
        }
    }

    #[test]
    fn clone_registers_its_own_buffer() {
        let t = Tensor::randn(&[8, 8], 1.0, 34);
        let before = thread_live_bytes();
        let a = QuantTensor::from_tensor(&t);
        let b = a.clone();
        assert_eq!(
            (thread_live_bytes() - before) as usize,
            2 * Dtype::Nf4Block.bytes_for(64)
        );
        assert_eq!(a, b);
        drop(a);
        drop(b);
        assert_eq!(thread_live_bytes(), before);
    }
}
