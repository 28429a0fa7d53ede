//! Storage-agnostic matrix views: [`BRef`] and the owning [`Reduced`] enum.
//!
//! A frozen weight lives in exactly one storage — f32 ([`Tensor`]) or one of
//! the reduced ones ([`HalfTensor`], [`QuantTensor`]). Every
//! consumer (the tensor-level [`matmul`](crate::gemm::matmul), embedding row
//! lookups, active-neuron-slab gathers, promotion back to f32) only needs a
//! shape plus the kernel-level [`BOperand`], so everything derived from
//! those two — row/column counts, windowed row decodes, full decodes — is
//! written once here, on [`BRef`], instead of once per storage type.

use crate::{Dtype, HalfTensor, QuantTensor, Tensor};
use lx_kernels::BOperand;

/// A borrowed, shaped, storage-typed matrix: what a GEMM takes as its `B`.
/// Built with `.into()` from a reference to any storage type.
#[derive(Clone, Copy, Debug)]
pub struct BRef<'a> {
    shape: &'a [usize],
    operand: BOperand<'a>,
}

impl<'a> BRef<'a> {
    /// Logical shape, whichever storage holds the values.
    pub fn shape(&self) -> &'a [usize] {
        self.shape
    }

    /// The kernel-level operand (flat row-major element space).
    pub fn operand(&self) -> BOperand<'a> {
        self.operand
    }

    /// Number of rows when viewed as 2-D (product of all but the last dim).
    pub fn rows(&self) -> usize {
        self.operand.len().checked_div(self.cols()).unwrap_or(0)
    }

    /// Size of the last dimension.
    pub fn cols(&self) -> usize {
        *self.shape.last().unwrap_or(&0)
    }

    /// Storage precision of the underlying buffer.
    pub fn dtype(&self) -> Dtype {
        match self.operand {
            BOperand::F32(_) => Dtype::F32,
            BOperand::F16(_) => Dtype::F16,
            BOperand::Q4(_) => Dtype::Nf4Block,
        }
    }

    /// Decode rows `[r0, r0 + n_rows)` of the 2-D view into `out`
    /// (`n_rows × cols`, contiguous). This is the load path for embedding
    /// lookups and active-neuron-slab gathers; every codec decodes
    /// elementwise over flat indices, so a window is bit-identical to the
    /// same rows of a full decode even when it straddles quantization-block
    /// boundaries.
    pub fn decode_rows(&self, r0: usize, n_rows: usize, out: &mut [f32]) {
        let c = self.cols();
        assert_eq!(out.len(), n_rows * c, "decode_rows: output length");
        self.operand.decode_into(r0 * c, out);
    }

    /// Decode the whole buffer into a fresh f32 tensor (exact).
    pub fn to_tensor(&self) -> Tensor {
        let mut out = Tensor::zeros(self.shape);
        self.operand.decode_into(0, out.as_mut_slice());
        out
    }
}

impl<'a> From<&'a Tensor> for BRef<'a> {
    fn from(t: &'a Tensor) -> Self {
        BRef {
            shape: t.shape(),
            operand: BOperand::F32(t.as_slice()),
        }
    }
}

impl<'a> From<&'a HalfTensor> for BRef<'a> {
    fn from(t: &'a HalfTensor) -> Self {
        BRef {
            shape: t.shape(),
            operand: t.operand(),
        }
    }
}

impl<'a> From<&'a QuantTensor> for BRef<'a> {
    fn from(t: &'a QuantTensor) -> Self {
        BRef {
            shape: t.shape(),
            operand: t.operand(),
        }
    }
}

impl<'a> From<&'a Reduced> for BRef<'a> {
    fn from(r: &'a Reduced) -> Self {
        match r {
            Reduced::F16(t) => t.into(),
            Reduced::Quant(t) => t.into(),
        }
    }
}

/// The reduced (non-f32) storage of a frozen parameter — exactly one of the
/// two families, so a double-stored parameter is unrepresentable.
#[derive(Debug, Clone, PartialEq)]
pub enum Reduced {
    /// IEEE binary16 bits.
    F16(HalfTensor),
    /// Block-quantized NF4.
    Quant(QuantTensor),
}

impl Reduced {
    /// Encode a dense tensor at `dtype` (any [`Dtype`] but `F32`).
    pub fn from_tensor(t: &Tensor, dtype: Dtype) -> Self {
        match dtype {
            Dtype::F32 => panic!("Reduced: f32 is not a reduced storage dtype"),
            Dtype::F16 => Reduced::F16(HalfTensor::from_tensor(t)),
            Dtype::Nf4Block => Reduced::Quant(QuantTensor::from_tensor(t)),
        }
    }

    /// Bytes occupied by the storage, as registered with
    /// [`memtrack`](crate::memtrack) — code bytes plus per-block scales for
    /// NF4.
    pub fn bytes(&self) -> usize {
        match self {
            Reduced::F16(t) => t.bytes(),
            Reduced::Quant(t) => t.bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One tensor in every reduced storage, with row lengths that put row
    /// boundaries mid-quantization-block.
    fn all_storages(t: &Tensor) -> Vec<Reduced> {
        [Dtype::F16, Dtype::Nf4Block]
            .map(|dtype| Reduced::from_tensor(t, dtype))
            .into()
    }

    #[test]
    fn view_reports_shape_and_dtype_of_every_storage() {
        let t = Tensor::randn(&[9, 33], 1.0, 32);
        for (r, dtype) in all_storages(&t).iter().zip([Dtype::F16, Dtype::Nf4Block]) {
            let v = BRef::from(r);
            assert_eq!(v.dtype(), dtype);
            assert_eq!(v.shape(), &[9, 33]);
            assert_eq!((v.rows(), v.cols()), (9, 33));
            assert_eq!(v.to_tensor().shape(), t.shape());
        }
        let v = BRef::from(&t);
        assert_eq!(v.dtype(), Dtype::F32);
        assert_eq!(v.to_tensor(), t);
    }

    #[test]
    fn decode_rows_is_bit_identical_to_full_decode() {
        // 33 cols: every row boundary lands mid-block — the case the sparse
        // slab gathers depend on.
        let t = Tensor::randn(&[12, 33], 1.0, 33);
        for r in all_storages(&t) {
            let v = BRef::from(&r);
            // Oracle: the elementwise accessor, independent of the windowed
            // decode under test.
            let full: Vec<f32> = (0..t.len()).map(|i| v.operand().get(i)).collect();
            assert_eq!(v.to_tensor().as_slice(), &full[..]);
            for (r0, n_rows) in [(0usize, 1usize), (3, 2), (7, 5), (11, 1)] {
                let mut window = vec![0.0f32; n_rows * 33];
                v.decode_rows(r0, n_rows, &mut window);
                for (i, w) in window.iter().enumerate() {
                    let f = full[r0 * 33 + i];
                    assert_eq!(w.to_bits(), f.to_bits(), "{} row {r0}+{i}", v.dtype());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a reduced storage dtype")]
    fn f32_is_not_a_reduced_storage() {
        let _ = Reduced::from_tensor(&Tensor::zeros(&[2, 2]), Dtype::F32);
    }
}
