//! Element dtypes and their storage sizes.
//!
//! The single source of truth for "how many bytes does one element occupy":
//! the tensor types register these sizes with [`memtrack`](crate::memtrack),
//! and parameter storage accounting reads them from here instead of
//! hard-coding byte counts — so the two cannot drift apart.

/// Storage precision of a tensor buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// IEEE binary32 — all compute, activations, gradients, optimizer state.
    F32,
    /// IEEE binary16 — frozen-parameter storage ([`HalfTensor`]).
    ///
    /// [`HalfTensor`]: crate::f16::HalfTensor
    F16,
    /// NF4 4-bit normal-float codes, two per byte, one f32 absmax scale per
    /// 64-element block ([`QuantTensor`] storage; codec in `lx-quant`).
    ///
    /// [`QuantTensor`]: crate::quant::QuantTensor
    Nf4Block,
}

impl Dtype {
    /// Exact storage bytes for a buffer of `numel` elements, including the
    /// per-block f32 scales of NF4.
    pub const fn bytes_for(self, numel: usize) -> usize {
        match self {
            Dtype::F32 => 4 * numel,
            Dtype::F16 => 2 * numel,
            Dtype::Nf4Block => lx_quant::nibble_bytes(numel) + lx_quant::n_blocks(numel) * 4,
        }
    }

    pub const fn name(self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::F16 => "f16",
            Dtype::Nf4Block => "nf4-block",
        }
    }
}

impl std::fmt::Display for Dtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_storage_types() {
        assert_eq!(Dtype::F16.to_string(), "f16");
        assert_eq!(Dtype::Nf4Block.to_string(), "nf4-block");
    }

    #[test]
    fn bytes_for_counts_codes_and_scales_exactly() {
        assert_eq!(Dtype::F32.bytes_for(10), 40);
        assert_eq!(Dtype::F16.bytes_for(10), 20);
        assert_eq!(Dtype::F32.bytes_for(1), std::mem::size_of::<f32>());
        assert_eq!(Dtype::F16.bytes_for(1), std::mem::size_of::<u16>());
        // 32 packed bytes + 1 scale; odd length rounds the nibbles up.
        assert_eq!(Dtype::Nf4Block.bytes_for(64), 32 + 4);
        assert_eq!(Dtype::Nf4Block.bytes_for(65), 33 + 8);
        assert_eq!(Dtype::Nf4Block.bytes_for(0), 0);
    }

    #[test]
    fn quant_compression_ratios_beat_the_fig8_gates() {
        // The fig8 gate: nf4 ≤ 0.17x of f32 for matrix-sized buffers.
        let n = 256 * 1024;
        let f32b = Dtype::F32.bytes_for(n) as f64;
        assert!(Dtype::Nf4Block.bytes_for(n) as f64 / f32b < 0.15);
    }
}
