//! Reduced storage and storage-agnostic matrix views: the owning
//! [`Reduced`] and the borrowed [`BRef`].
//!
//! The paper fine-tunes with mixed precision: FP16 parameters, FP32 compute
//! (§VII-A); this reproduction also stores the frozen backbone as NF4. All
//! *arithmetic* stays f32: a frozen weight lives in exactly one storage — f32
//! ([`Tensor`]) or [`Reduced`] (f16 bits, or NF4 codes plus per-block
//! scales) — and the fused reduced-B GEMMs in `lx-kernels` decode inside
//! their pack/load stage rather than via a materialised f32 copy. Every
//! consumer (the tensor-level [`matmul`](crate::gemm::matmul), the sparse
//! MLP's grouped launches, embedding row lookups, promotion back to f32)
//! only needs a shape plus the kernel-level [`BOperand`], so everything
//! derived from those two — row/column counts, windowed row decodes, full
//! decodes — is written once here, on [`BRef`], instead of once per storage
//! type.

use crate::{memtrack, Dtype, Tensor};
use lx_kernels::BOperand;
use lx_quant::Q4View;

/// A borrowed, shaped, storage-typed matrix: what a GEMM takes as its `B`.
/// Built with `.into()` from a `&Tensor` or a `&Reduced`.
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
        self.operand.dtype()
    }

    /// Decode rows `[r0, r0 + n_rows)` of the 2-D view into `out`
    /// (`n_rows × cols`, contiguous). This is the load path for embedding
    /// lookups; every codec decodes
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

impl<'a> From<&'a Reduced> for BRef<'a> {
    fn from(r: &'a Reduced) -> Self {
        BRef {
            shape: &r.shape,
            operand: r.operand(),
        }
    }
}

/// The reduced (non-f32) storage of a frozen parameter: a shape plus one
/// codec's payload, so a double-stored parameter is unrepresentable.
///
/// The payload reports its true footprint to the memory tracker — 2 bytes
/// per f16 element, code bytes plus 4 bytes per block scale for NF4 — which
/// is what makes the Fig. 8 measured-memory experiments honest about
/// reduced storage. One register/unregister pair covers construction,
/// clone and drop.
#[derive(Debug, PartialEq)]
pub struct Reduced {
    shape: Vec<usize>,
    payload: Payload,
}

#[derive(Debug, Clone, PartialEq)]
enum Payload {
    /// IEEE binary16 bits (row-major).
    F16(Vec<u16>),
    /// NF4 codebook nibbles, two per byte, plus one f32 absmax scale per
    /// 64-element block.
    Nf4 { codes: Vec<u8>, scales: Vec<f32> },
}

impl Payload {
    /// What the memory tracker is told: capacity-based, so the
    /// register/unregister pair always balances. The codecs build
    /// exact-capacity vectors, so in practice this equals
    /// [`Reduced::bytes`].
    fn capacity_bytes(&self) -> usize {
        match self {
            Payload::F16(bits) => bits.capacity() * 2,
            Payload::Nf4 { codes, scales } => codes.capacity() + scales.capacity() * 4,
        }
    }
}

impl Reduced {
    fn tracked(shape: Vec<usize>, payload: Payload) -> Self {
        memtrack::register(payload.capacity_bytes());
        Reduced { shape, payload }
    }

    /// Encode a dense tensor at `dtype` (any [`Dtype`] but `F32`): f16
    /// rounds to nearest even, NF4 quantizes per 64-element block.
    pub fn from_tensor(t: &Tensor, dtype: Dtype) -> Self {
        let values = t.as_slice();
        let payload = match dtype {
            Dtype::F32 => panic!("Reduced: f32 is not a reduced storage dtype"),
            Dtype::F16 => Payload::F16(lx_kernels::half::encode_slice(values)),
            Dtype::Nf4Block => {
                let (codes, scales) = lx_quant::nf4::quantize(values);
                Payload::Nf4 { codes, scales }
            }
        };
        Self::tracked(t.shape().to_vec(), payload)
    }

    /// The payload as a kernel operand — what the fused reduced-B GEMMs
    /// consume, decoding inside their pack/load stage.
    pub fn operand(&self) -> BOperand<'_> {
        match &self.payload {
            Payload::F16(bits) => BOperand::F16(bits),
            Payload::Nf4 { codes, scales } => {
                BOperand::Q4(Q4View::new(codes, scales, self.shape.iter().product()))
            }
        }
    }

    /// Bytes occupied by the storage, as registered with
    /// [`memtrack`] — always [`Dtype::bytes_for`] of the dtype and length
    /// (code bytes plus per-block scales for NF4).
    pub fn bytes(&self) -> usize {
        let b = self.operand();
        b.dtype().bytes_for(b.len())
    }
}

impl Clone for Reduced {
    fn clone(&self) -> Self {
        Self::tracked(self.shape.clone(), self.payload.clone())
    }
}

impl Drop for Reduced {
    fn drop(&mut self) {
        memtrack::unregister(self.payload.capacity_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtrack::thread_live_bytes;

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

    /// Encode `t` at `dtype` and check the tracker sees exactly
    /// [`Dtype::bytes_for`] — the same figure [`Reduced::bytes`] reports —
    /// and balances again once the storage is dropped.
    fn assert_accounting(t: &Tensor, dtype: Dtype) {
        let expect = dtype.bytes_for(t.len());
        let before = thread_live_bytes();
        let r = Reduced::from_tensor(t, dtype);
        assert_eq!(r.bytes(), expect, "{dtype} reported");
        assert_eq!(
            (thread_live_bytes() - before) as usize,
            expect,
            "{dtype} measured"
        );
        drop(r);
        assert_eq!(thread_live_bytes(), before, "{dtype} balanced");
    }

    /// A clone registers its own payload, and both drops unregister.
    fn assert_clone_accounting(t: &Tensor, dtype: Dtype) {
        let before = thread_live_bytes();
        let a = Reduced::from_tensor(t, dtype);
        let b = a.clone();
        assert_eq!(
            (thread_live_bytes() - before) as usize,
            2 * dtype.bytes_for(t.len()),
            "{dtype}"
        );
        assert_eq!(a, b);
        drop(a);
        drop(b);
        assert_eq!(thread_live_bytes(), before, "{dtype} balanced");
    }

    #[test]
    fn f16_accounting_and_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.5, -3.25, 0.0], &[2, 2]);
        assert_eq!(Dtype::F16.bytes_for(t.len()), 8);
        assert_accounting(&t, Dtype::F16);
        let r = Reduced::from_tensor(&t, Dtype::F16);
        assert_eq!(BRef::from(&r).to_tensor(), t);
    }

    #[test]
    fn f16_storage_keeps_exact_values() {
        // Exactly representable in binary16, up to its largest finite value.
        let vals = vec![0.0f32, 1.0, -1.0, 0.5, 2.0, -0.25, 65504.0];
        let t = Tensor::from_vec(vals, &[7]);
        let r = Reduced::from_tensor(&t, Dtype::F16);
        assert_eq!(BRef::from(&r).to_tensor(), t);
    }

    #[test]
    fn f16_clone_registers_its_own_buffer() {
        assert_clone_accounting(&Tensor::full(&[10], 1.0), Dtype::F16);
    }

    #[test]
    fn nf4_accounting_matches_bytes_for_exactly() {
        // 16×20 = 320 elements: a tail block, and row boundaries mid-block;
        // 3×21 = 63 elements: a single short block.
        for shape in [[16usize, 20], [3, 21]] {
            assert_accounting(&Tensor::randn(&shape, 1.0, 31), Dtype::Nf4Block);
        }
    }

    #[test]
    fn nf4_roundtrip_bounds_error() {
        let t = Tensor::randn(&[9, 33], 1.0, 32);
        let back = BRef::from(&Reduced::from_tensor(&t, Dtype::Nf4Block)).to_tensor();
        // Loose sanity bound (exact bounds are tested in lx-quant): the
        // worst NF4 gap is ~0.18·absmax, absmax ≲ 5σ here.
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() < 1.0, "{a} vs {b}");
        }
    }

    #[test]
    fn nf4_clone_registers_its_own_buffer() {
        assert_clone_accounting(&Tensor::randn(&[8, 8], 1.0, 34), Dtype::Nf4Block);
    }

    #[test]
    #[should_panic(expected = "not a reduced storage dtype")]
    fn f32_is_not_a_reduced_storage() {
        let _ = Reduced::from_tensor(&Tensor::zeros(&[2, 2]), Dtype::F32);
    }
}
