//! Block-quantized storage: [`QuantTensor`].
//!
//! The quantized sibling of [`HalfTensor`](crate::f16::HalfTensor): frozen
//! parameters stored as `lx-quant` codes (symmetric int8 or NF4 nibbles)
//! plus one f32 absmax scale per 64-element block, registered with
//! [`memtrack`] at their true footprint. All *arithmetic* stays f32 — the
//! fused quantized-B GEMMs in `lx-kernels` dequantize inside their pack/load
//! stage, and row decodes (embedding lookups, active-neuron-slab gathers)
//! are strictly elementwise, so any decode window is bit-identical to a
//! full-buffer decode.

use crate::memtrack;
use crate::{Dtype, Tensor};
use lx_kernels::BOperand;
use lx_quant::{Q4View, Q8View};

/// The code buffer of a [`QuantTensor`] — which codec the bytes belong to.
#[derive(Debug, Clone, PartialEq)]
enum QuantCodes {
    /// One int8 code per element.
    I8(Vec<i8>),
    /// Two NF4 codebook indices per byte.
    Nf4(Vec<u8>),
}

/// A tensor stored block-quantized: codes plus per-block scales and a shape.
///
/// Reads dequantize to f32; the buffers report their true footprint (code
/// bytes + 4 bytes per block scale) to the memory tracker, which is what
/// makes the Fig. 8 measured-memory experiments honest about quantized
/// storage.
#[derive(Debug)]
pub struct QuantTensor {
    codes: QuantCodes,
    scales: Vec<f32>,
    shape: Vec<usize>,
    len: usize,
}

impl QuantTensor {
    /// Quantize an f32 slice. `dtype` must be [`Dtype::I8Block`] or
    /// [`Dtype::Nf4Block`]; panics otherwise, or if the length does not
    /// match the shape.
    pub fn from_f32(values: &[f32], shape: &[usize], dtype: Dtype) -> Self {
        let len: usize = shape.iter().product();
        assert_eq!(
            values.len(),
            len,
            "data length {} does not match shape {:?}",
            values.len(),
            shape
        );
        let (codes, scales) = match dtype {
            Dtype::I8Block => {
                let (codes, scales) = lx_quant::q8::quantize(values);
                (QuantCodes::I8(codes), scales)
            }
            Dtype::Nf4Block => {
                let (codes, scales) = lx_quant::nf4::quantize(values);
                (QuantCodes::Nf4(codes), scales)
            }
            other => panic!("QuantTensor: {other} is not a block-quantized dtype"),
        };
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
    pub fn from_tensor(t: &Tensor, dtype: Dtype) -> Self {
        Self::from_f32(t.as_slice(), t.shape(), dtype)
    }

    /// The storage dtype ([`Dtype::I8Block`] or [`Dtype::Nf4Block`]).
    pub fn dtype(&self) -> Dtype {
        match self.codes {
            QuantCodes::I8(_) => Dtype::I8Block,
            QuantCodes::Nf4(_) => Dtype::Nf4Block,
        }
    }

    /// Borrowed dequantizing view as a kernel operand — what the fused
    /// quantized-B GEMMs consume.
    pub fn operand(&self) -> BOperand<'_> {
        match &self.codes {
            QuantCodes::I8(codes) => BOperand::Q8(Q8View::new(codes, &self.scales)),
            QuantCodes::Nf4(codes) => BOperand::Q4(Q4View::new(codes, &self.scales, self.len)),
        }
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
    /// register/unregister pair always balances. The quantize paths build
    /// exact-capacity vectors, so in practice this equals [`bytes`](Self::bytes).
    fn storage_capacity_bytes(&self) -> usize {
        let code_bytes = match &self.codes {
            QuantCodes::I8(codes) => codes.capacity(),
            QuantCodes::Nf4(codes) => codes.capacity(),
        };
        code_bytes + self.scales.capacity() * 4
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
        for (dtype, shape) in [
            (Dtype::I8Block, vec![16usize, 20]), // 320 elems: tail block
            (Dtype::Nf4Block, vec![16, 20]),
            (Dtype::I8Block, vec![3, 21]), // 63 elems: single short block
            (Dtype::Nf4Block, vec![3, 21]),
        ] {
            let t = Tensor::randn(&shape, 1.0, 31);
            let numel = t.len();
            let before = thread_live_bytes();
            let q = QuantTensor::from_tensor(&t, dtype);
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
        for dtype in [Dtype::I8Block, Dtype::Nf4Block] {
            let q = QuantTensor::from_tensor(&t, dtype);
            assert_eq!(q.dtype(), dtype);
            let back = crate::BRef::from(&q).to_tensor();
            // Loose sanity bound (exact bounds are tested in lx-quant): the
            // worst NF4 gap is ~0.18·absmax, absmax ≲ 5σ here.
            for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
                assert!((a - b).abs() < 1.0, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn clone_registers_its_own_buffer() {
        let t = Tensor::randn(&[8, 8], 1.0, 34);
        let before = thread_live_bytes();
        let a = QuantTensor::from_tensor(&t, Dtype::I8Block);
        let b = a.clone();
        assert_eq!(
            (thread_live_bytes() - before) as usize,
            2 * Dtype::I8Block.bytes_for(64)
        );
        assert_eq!(a, b);
        drop(a);
        drop(b);
        assert_eq!(thread_live_bytes(), before);
    }

    #[test]
    #[should_panic(expected = "not a block-quantized dtype")]
    fn rejects_non_quant_dtypes() {
        let _ = QuantTensor::from_f32(&[1.0], &[1], Dtype::F16);
    }
}
