//! Trainable parameter: a tensor, its (lazily allocated) gradient, and a
//! trainability flag. PEFT methods work by flipping these flags and adding
//! small extra parameters — exactly the paper's Table I setting.
//!
//! Storage precision: a parameter normally holds its values in [`value`]
//! (f32). Under a reduced [`Precision`](crate::Precision) plan frozen
//! backbone matrices are *demoted* ([`Param::demote`]): the values move into
//! [`reduced`] — f16 bits or block-quantized NF4 codes, exactly one of
//! them — [`value`] becomes an empty placeholder, and the compute paths
//! consume the storage through the fused reduced-B GEMMs (decode inside the
//! pack stage) or decode rows on load.
//! Trainable parameters are never reduced-stored — gradients and optimizer
//! state stay f32, as the paper's mixed-precision recipe requires.
//!
//! [`value`]: Param::value
//! [`reduced`]: Param::reduced

use lx_tensor::gemm::{matmul, Epilogue, Layout};
use lx_tensor::{BRef, Dtype, Reduced, Tensor};

/// A named model parameter.
#[derive(Debug)]
pub struct Param {
    pub name: String,
    /// f32 storage. Empty (`len() == 0`) while the parameter is
    /// reduced-stored.
    pub value: Tensor,
    /// Reduced storage; `Some` only for frozen parameters demoted by
    /// [`Param::demote`]. Holds the authoritative shape while present.
    pub reduced: Option<Reduced>,
    /// Allocated on first accumulation; `None` for frozen params that never
    /// received a gradient (saving the optimizer-state memory PEFT avoids).
    pub grad: Option<Tensor>,
    pub trainable: bool,
}

impl Param {
    pub fn new(name: impl Into<String>, value: Tensor, trainable: bool) -> Self {
        Param {
            name: name.into(),
            value,
            reduced: None,
            grad: None,
            trainable,
        }
    }

    /// Frozen parameter (the pre-trained backbone default under PEFT).
    pub fn frozen(name: impl Into<String>, value: Tensor) -> Self {
        Self::new(name, value, false)
    }

    /// The values as a shaped GEMM operand, whichever storage holds them.
    pub fn b_ref(&self) -> BRef<'_> {
        match &self.reduced {
            Some(r) => r.into(),
            None => (&self.value).into(),
        }
    }

    pub fn numel(&self) -> usize {
        self.b_ref().operand().len()
    }

    /// Logical shape, whichever storage holds the values.
    pub fn shape(&self) -> &[usize] {
        self.b_ref().shape()
    }

    /// Storage precision of this parameter right now.
    pub fn dtype(&self) -> Dtype {
        self.b_ref().dtype()
    }

    /// Whether the values live in any reduced storage (f16 or
    /// block-quantized) rather than f32.
    pub fn is_reduced(&self) -> bool {
        self.reduced.is_some()
    }

    /// Bytes occupied by the value storage (excludes any gradient). Reports
    /// the actual storage's footprint — for NF4 that includes the per-block
    /// scales, matching [`Dtype::bytes_for`].
    pub fn storage_bytes(&self) -> usize {
        match &self.reduced {
            Some(r) => r.bytes(),
            None => Dtype::F32.bytes_for(self.value.len()),
        }
    }

    /// Move the values into `dtype` storage: f16 rounds to nearest even, NF4
    /// quantizes, and [`Dtype::F32`] promotes back. No-op when already
    /// stored at that dtype; any other reduced storage is
    /// decoded first. Panics when asked to reduce a trainable parameter: the
    /// optimizer updates `value` in place, so trainable state must stay f32.
    pub fn demote(&mut self, dtype: Dtype) {
        if self.dtype() == dtype {
            return;
        }
        self.to_f32();
        if dtype != Dtype::F32 {
            self.store_reduced(|value| Reduced::from_tensor(value, dtype));
        }
    }

    /// Replace the (f32-stored) value with `encode(value)`.
    fn store_reduced(&mut self, encode: impl FnOnce(&Tensor) -> Reduced) {
        assert!(
            !self.trainable,
            "{}: trainable parameters must stay f32 (demote only frozen backbone weights)",
            self.name
        );
        self.reduced = Some(encode(&self.value));
        self.value = Tensor::zeros(&[0]);
    }

    /// Promote back to f32 storage (exact decode of whatever reduced storage
    /// is present). No-op when already f32.
    pub fn to_f32(&mut self) {
        if let Some(r) = self.reduced.take() {
            self.value = BRef::from(&r).to_tensor();
        }
    }

    /// `x · W` ([`Layout::Normal`]) or `x · Wᵀ` ([`Layout::Transposed`]) on
    /// the trailing-2-D view of the value, fused-decoding when
    /// reduced-stored, with `ep` applied at kernel write-back (bit-identical
    /// to the plain product followed by the equivalent bias/activation
    /// passes). This is the forward (and `dx` backward) hot path for frozen
    /// weights.
    pub fn matmul(&self, x: &Tensor, layout: Layout, ep: Epilogue<'_>) -> Tensor {
        matmul(x, self.b_ref(), layout, ep)
    }

    /// Decode rows `[r0, r0 + n_rows)` of the 2-D view into `out`
    /// (`n_rows × cols`, contiguous), whatever the storage. This is the
    /// active-neuron-slab gather and the embedding-table lookup: every
    /// decode is elementwise, so a window is bit-identical to the same rows
    /// of a full decode.
    pub fn decode_rows(&self, r0: usize, n_rows: usize, out: &mut [f32]) {
        self.b_ref().decode_rows(r0, n_rows, out);
    }

    /// Add row `r` of the 2-D view into `out`, decoding if reduced-stored
    /// (positional-embedding accumulation).
    pub fn add_row_into(&self, r: usize, out: &mut [f32]) {
        let base = r * out.len();
        debug_assert_eq!(out.len(), self.b_ref().cols(), "{}: row width", self.name);
        match &self.reduced {
            // The f32 table is the every-step path: keep it a plain
            // vectorisable slice add.
            None => {
                for (o, v) in out.iter_mut().zip(&self.value.as_slice()[base..]) {
                    *o += v;
                }
            }
            Some(r) => {
                let operand = BRef::from(r).operand();
                for (j, o) in out.iter_mut().enumerate() {
                    *o += operand.get(base + j);
                }
            }
        }
    }

    /// Accumulate a gradient tensor (allocates on first use).
    pub fn accumulate_grad(&mut self, grad: &Tensor) {
        match &mut self.grad {
            Some(g) => g.add_assign(grad),
            None => self.grad = Some(grad.clone()),
        }
    }

    /// Mutable access to the gradient buffer, allocating zeros if absent.
    pub fn grad_mut(&mut self) -> &mut Tensor {
        if self.grad.is_none() {
            self.grad = Some(Tensor::zeros(self.shape()));
        }
        self.grad.as_mut().unwrap()
    }

    /// Zero the gradient in place (keeps the allocation).
    pub fn zero_grad(&mut self) {
        if let Some(g) = &mut self.grad {
            g.zero_();
        }
    }

    /// Drop the gradient allocation entirely.
    pub fn clear_grad(&mut self) {
        self.grad = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REDUCED: [Dtype; 2] = [Dtype::F16, Dtype::Nf4Block];
    const NN: Layout = Layout::Normal;
    const NT: Layout = Layout::Transposed;

    /// The exact f32 decode of whatever `p` currently stores.
    fn decoded(p: &Param) -> Param {
        Param::frozen("decoded", p.b_ref().to_tensor())
    }

    #[test]
    fn accumulate_allocates_then_adds() {
        let mut p = Param::new("w", Tensor::zeros(&[2, 2]), true);
        assert!(p.grad.is_none());
        let g = Tensor::full(&[2, 2], 1.0);
        p.accumulate_grad(&g);
        p.accumulate_grad(&g);
        assert_eq!(p.grad.as_ref().unwrap().as_slice(), &[2.0; 4]);
    }

    #[test]
    fn zero_keeps_allocation_clear_drops_it() {
        let mut p = Param::new("w", Tensor::zeros(&[3]), true);
        p.grad_mut().as_mut_slice()[0] = 5.0;
        p.zero_grad();
        assert_eq!(p.grad.as_ref().unwrap().as_slice(), &[0.0; 3]);
        p.clear_grad();
        assert!(p.grad.is_none());
    }

    #[test]
    fn frozen_constructor() {
        let p = Param::frozen("emb", Tensor::zeros(&[4]));
        assert!(!p.trainable);
        assert_eq!(p.numel(), 4);
        assert_eq!(p.dtype(), Dtype::F32);
        assert_eq!(p.storage_bytes(), 4 * 4);
    }

    #[test]
    fn demotion_roundtrip_preserves_shape_and_counts() {
        for dtype in REDUCED {
            let mut p = Param::frozen("w", Tensor::randn(&[8, 8], 1.0, 4));
            let before = p.value.clone();
            assert_eq!(p.storage_bytes(), 8 * 8 * 4);
            p.demote(dtype);
            assert!(p.is_reduced());
            assert_eq!(p.dtype(), dtype);
            assert_eq!(p.numel(), 64);
            assert_eq!(p.shape(), &[8, 8]);
            assert_eq!(p.storage_bytes(), dtype.bytes_for(64));
            assert_eq!(p.value.len(), 0, "f32 buffer must be released");
            // Idempotent at the same dtype.
            p.demote(dtype);
            assert_eq!(p.dtype(), dtype);
            p.to_f32();
            assert!(!p.is_reduced());
            assert_eq!(p.dtype(), Dtype::F32);
            // Values round-tripped through the codec (coarse bound; exact
            // bounds live in lx-quant and lx_kernels::half).
            for (a, b) in p.value.as_slice().iter().zip(before.as_slice()) {
                let tol = match dtype {
                    Dtype::F16 => b.abs() * 1e-3 + 1e-7,
                    _ => 1.0 + b.abs(),
                };
                assert!((a - b).abs() <= tol, "{dtype}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn redemotion_crosses_storage_families() {
        let mut p = Param::frozen("w", Tensor::randn(&[4, 8], 1.0, 7));
        for dtype in [Dtype::Nf4Block, Dtype::F16, Dtype::Nf4Block, Dtype::F32] {
            p.demote(dtype);
            assert_eq!(p.dtype(), dtype);
            assert_eq!(p.is_reduced(), dtype != Dtype::F32);
            assert_eq!(p.shape(), &[4, 8]);
        }
    }

    #[test]
    fn trainable_params_cannot_be_demoted() {
        for dtype in REDUCED {
            let result = std::panic::catch_unwind(|| {
                let mut p = Param::new("w", Tensor::zeros(&[2, 4]), true);
                p.demote(dtype);
            });
            let msg = *result.unwrap_err().downcast::<String>().unwrap();
            assert!(msg.contains("stay f32"), "{dtype}: {msg}");
        }
        // Promotion is always allowed.
        Param::new("w", Tensor::zeros(&[2, 4]), true).demote(Dtype::F32);
    }

    #[test]
    fn matmuls_agree_with_the_decoded_oracle_across_storage() {
        let x = Tensor::randn(&[5, 8], 1.0, 11);
        let g = Tensor::randn(&[5, 7], 1.0, 13);
        for dtype in REDUCED {
            let mut p = Param::frozen("w", Tensor::randn(&[8, 7], 1.0, 12));
            let y32 = p.matmul(&x, NN, Epilogue::None);
            p.demote(dtype);
            // Oracle: decode the stored weights and run the f32 kernel.
            let oracle = decoded(&p);
            for (input, layout) in [(&x, NN), (&g, NT)] {
                let y = p.matmul(input, layout, Epilogue::None);
                let expect = oracle.matmul(input, layout, Epilogue::None);
                for (a, b) in y.as_slice().iter().zip(expect.as_slice()) {
                    assert!(
                        (a - b).abs() <= 1e-4 * (1.0 + b.abs()),
                        "{dtype}: {a} vs {b}"
                    );
                }
            }
            // And the f16-rounded result stays near the full-precision one.
            if dtype == Dtype::F16 {
                let y16 = p.matmul(&x, NN, Epilogue::None);
                for (a, b) in y16.as_slice().iter().zip(y32.as_slice()) {
                    assert!((a - b).abs() <= 3e-2 * (1.0 + b.abs()), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn row_helpers_decode_bit_identically() {
        // 6-wide rows: every row boundary is mid-block (exercising the
        // flat-index scale resolution).
        let t = Tensor::randn(&[4, 6], 1.0, 9);
        let mut p = Param::frozen("emb", t.clone());
        let mut row32 = vec![0.0f32; 6];
        p.decode_rows(2, 1, &mut row32);
        assert_eq!(row32, t.row(2));
        for dtype in REDUCED {
            p.demote(dtype);
            let full = decoded(&p).value;
            let mut row = vec![0.0f32; 6];
            p.decode_rows(2, 1, &mut row);
            for (j, v) in row.iter().enumerate() {
                assert_eq!(v.to_bits(), full.as_slice()[2 * 6 + j].to_bits(), "{dtype}");
            }
            let mut acc = row.clone();
            p.add_row_into(2, &mut acc);
            for (a, b) in acc.iter().zip(&row) {
                assert!((a - 2.0 * b).abs() < 1e-6);
            }
            let mut slab = vec![0.0f32; 2 * 6];
            p.decode_rows(1, 2, &mut slab);
            for (j, v) in slab.iter().enumerate() {
                assert_eq!(v.to_bits(), full.as_slice()[6 + j].to_bits(), "{dtype}");
            }
            p.to_f32();
            // Start each arm from the original values, not the last codec's.
            p.value = t.clone();
        }
    }
}
