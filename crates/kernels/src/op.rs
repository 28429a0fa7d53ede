//! The operand-typed GEMM descriptor every backend consumes.
//!
//! One [`GemmOp`] names the whole product `C[m,n] = op(A) · op(B)`: shapes,
//! the f32 `A` view, the [`BOperand`] (whatever storage the weights live in)
//! and a [`Layout`] per side. Storage format and transposition are *data*,
//! not method names, so a new storage format is one `BOperand` variant and a
//! new layout combination is no new API at all.
//!
//! Both operands carry *leading dimensions* (`lda`/`ldb`, in elements), so a
//! caller can point a kernel at a strided window of a larger buffer — a block
//! column of a compact activation matrix, a neuron slab of a weight matrix —
//! without copying. A leading dimension equal to the stored width is the
//! contiguous case.
//!
//! Slice length contract (checked by [`GemmOp::check`]): a matrix view of `r`
//! rows × `c` cols with leading dimension `ld ≥ c` needs at least
//! `(r−1)·ld + c` elements (so views carved out of a larger buffer, whose
//! final row stops at the logical width, are accepted).

use crate::{NmView, Q4View, Q8View};

/// How an operand is stored relative to how it is multiplied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layout {
    /// Stored as it is multiplied (`rows × cols` row-major).
    Normal,
    /// Stored transposed (`cols × rows` row-major).
    Transposed,
}

/// The B operand of a GEMM, in whatever storage it lives in. `A`, `C` and
/// all accumulation are always f32; every non-f32 variant decodes to f32
/// inside the backend's load/pack stage (an exact conversion), so the result
/// matches decoding B up front and running the f32 product.
#[derive(Clone, Copy, Debug)]
pub enum BOperand<'a> {
    F32(&'a [f32]),
    /// IEEE binary16 bits.
    F16(&'a [u16]),
    /// Block-quantized int8 codes plus per-block scales.
    Q8(Q8View<'a>),
    /// NF4 codebook nibbles plus per-block scales.
    Q4(Q4View<'a>),
    /// N:M structured-sparse compacted values plus group bitmasks. Lossless:
    /// kept values decode bit-exactly and pruned positions to exact `0.0`.
    Nm(NmView<'a>),
}

impl BOperand<'_> {
    /// Elements in the row-major element space.
    pub fn len(&self) -> usize {
        match self {
            BOperand::F32(b) => b.len(),
            BOperand::F16(b) => b.len(),
            BOperand::Q8(b) => b.len(),
            BOperand::Q4(b) => b.len(),
            BOperand::Nm(b) => b.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decoded f32 value of flat element `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> f32 {
        match self {
            BOperand::F32(b) => b[idx],
            BOperand::F16(b) => crate::half::f16_bits_to_f32(b[idx]),
            BOperand::Q8(b) => b.get(idx),
            BOperand::Q4(b) => b.get(idx),
            BOperand::Nm(b) => b.get(idx),
        }
    }

    /// Decode flat elements `base .. base + out.len()` into `out`. Every
    /// codec decodes elementwise over flat indices, so any window is
    /// bit-identical to the same elements of a full decode. The storage kind
    /// is resolved once per call, not per element.
    pub fn decode_into(&self, base: usize, out: &mut [f32]) {
        match self {
            BOperand::F32(b) => out.copy_from_slice(&b[base..base + out.len()]),
            BOperand::F16(b) => crate::half::decode_slice(&b[base..base + out.len()], out),
            BOperand::Q8(b) => decode_elementwise(base, out, |idx| b.get(idx)),
            BOperand::Q4(b) => decode_elementwise(base, out, |idx| b.get(idx)),
            BOperand::Nm(b) => {
                let cols = b.cols();
                // Whole storage rows take the group-walking row decode.
                if cols > 0 && base.is_multiple_of(cols) && out.len().is_multiple_of(cols) {
                    for (r, row) in out.chunks_mut(cols).enumerate() {
                        b.decode_row_into(base / cols + r, row);
                    }
                } else {
                    decode_elementwise(base, out, |idx| b.get(idx));
                }
            }
        }
    }
}

#[inline(always)]
fn decode_elementwise(base: usize, out: &mut [f32], get: impl Fn(usize) -> f32) {
    for (j, o) in out.iter_mut().enumerate() {
        *o = get(base + j);
    }
}

impl<'a> From<&'a [f32]> for BOperand<'a> {
    fn from(b: &'a [f32]) -> Self {
        BOperand::F32(b)
    }
}

impl<'a> From<&'a [u16]> for BOperand<'a> {
    fn from(b: &'a [u16]) -> Self {
        BOperand::F16(b)
    }
}

impl<'a> From<Q8View<'a>> for BOperand<'a> {
    fn from(b: Q8View<'a>) -> Self {
        BOperand::Q8(b)
    }
}

impl<'a> From<Q4View<'a>> for BOperand<'a> {
    fn from(b: Q4View<'a>) -> Self {
        BOperand::Q4(b)
    }
}

impl<'a> From<NmView<'a>> for BOperand<'a> {
    fn from(b: NmView<'a>) -> Self {
        BOperand::Nm(b)
    }
}

/// One GEMM: `C[m,n] = op(A)[m,k] · op(B)[k,n] + beta·C`, where `op` is the
/// identity for [`Layout::Normal`] and a transpose for
/// [`Layout::Transposed`] (`A` then stored `k×m`, `B` stored `n×k`).
#[derive(Clone, Copy, Debug)]
pub struct GemmOp<'a> {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub a: &'a [f32],
    pub lda: usize,
    pub a_layout: Layout,
    pub b: BOperand<'a>,
    pub ldb: usize,
    pub b_layout: Layout,
}

impl<'a> GemmOp<'a> {
    /// `A[m,k] · B[k,n]`.
    #[allow(clippy::too_many_arguments)]
    pub fn nn(
        m: usize,
        k: usize,
        n: usize,
        a: &'a [f32],
        lda: usize,
        b: impl Into<BOperand<'a>>,
        ldb: usize,
    ) -> Self {
        GemmOp {
            m,
            k,
            n,
            a,
            lda,
            a_layout: Layout::Normal,
            b: b.into(),
            ldb,
            b_layout: Layout::Normal,
        }
    }

    /// `A[m,k] · B[n,k]ᵀ` — B stored row-major as `n×k`.
    #[allow(clippy::too_many_arguments)]
    pub fn nt(
        m: usize,
        k: usize,
        n: usize,
        a: &'a [f32],
        lda: usize,
        b: impl Into<BOperand<'a>>,
        ldb: usize,
    ) -> Self {
        GemmOp {
            b_layout: Layout::Transposed,
            ..Self::nn(m, k, n, a, lda, b, ldb)
        }
    }

    /// `A[k,m]ᵀ · B[k,n]` — A stored row-major as `k×m`. This is the
    /// gradient-of-weights shape (`dW = Xᵀ·dY`).
    #[allow(clippy::too_many_arguments)]
    pub fn tn(
        m: usize,
        k: usize,
        n: usize,
        a: &'a [f32],
        lda: usize,
        b: impl Into<BOperand<'a>>,
        ldb: usize,
    ) -> Self {
        GemmOp {
            a_layout: Layout::Transposed,
            ..Self::nn(m, k, n, a, lda, b, ldb)
        }
    }

    /// Both operands contiguous: each leading dimension is the stored width.
    pub fn contiguous(
        m: usize,
        k: usize,
        n: usize,
        a: &'a [f32],
        a_layout: Layout,
        b: impl Into<BOperand<'a>>,
        b_layout: Layout,
    ) -> Self {
        let stored_width = |layout, normal: usize, transposed: usize| match layout {
            Layout::Normal => normal.max(1),
            Layout::Transposed => transposed.max(1),
        };
        GemmOp {
            m,
            k,
            n,
            a,
            lda: stored_width(a_layout, k, m),
            a_layout,
            b: b.into(),
            ldb: stored_width(b_layout, n, k),
            b_layout,
        }
    }

    /// Validate the three views against the slice-length contract, and
    /// reject the one unsupported combination: a transposed `A` is the
    /// gradient-of-weights shape, which only ever meets a plain f32 `B`.
    #[track_caller]
    pub(crate) fn check(&self, c_len: usize, ldc: usize) {
        assert!(
            self.a_layout == Layout::Normal
                || (matches!(self.b, BOperand::F32(_)) && self.b_layout == Layout::Normal),
            "gemm: a transposed A requires an f32, non-transposed B"
        );
        let (a_rows, a_cols) = match self.a_layout {
            Layout::Normal => (self.m, self.k),
            Layout::Transposed => (self.k, self.m),
        };
        let (b_rows, b_cols) = match self.b_layout {
            Layout::Normal => (self.k, self.n),
            Layout::Transposed => (self.n, self.k),
        };
        check_view(self.a.len(), a_rows, a_cols, self.lda, "gemm: A");
        check_view(self.b.len(), b_rows, b_cols, self.ldb, "gemm: B");
        check_view(c_len, self.m, self.n, ldc, "gemm: C");
    }
}

/// Check a `rows × cols` view with leading dimension `ld`.
#[track_caller]
fn check_view(len: usize, rows: usize, cols: usize, ld: usize, what: &str) {
    assert!(ld >= cols, "{what}: leading dim {ld} < width {cols}");
    if rows == 0 || cols == 0 {
        return;
    }
    let need = (rows - 1) * ld + cols;
    assert!(
        len >= need,
        "{what}: {len} elements < {need} needed for {rows}x{cols} (ld {ld})"
    );
}
