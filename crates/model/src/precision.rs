//! Parameter-storage precision plans.
//!
//! The paper fine-tunes with FP16 parameters and FP32 compute (§VII-A);
//! [`Precision::F16Frozen`] reproduces the storage side of that recipe:
//! frozen backbone *matrices* (attention projections, MLP weights, embedding
//! tables) are demoted to half storage, while everything numerically
//! sensitive — biases, LayerNorm affine parameters, trainable PEFT adapters,
//! gradients and optimizer state — stays f32. Compute is f32 throughout;
//! the f16 bits are decoded inside the GEMM pack routines (the
//! `lx_kernels::BOperand::F16` arm of `KernelBackend::gemm`), so storage is
//! halved without a half-arithmetic path.
//!
//! [`Precision::Nf4Frozen`] pushes the same recipe past f16 with the
//! `lx-quant` NF4 block codec (QLoRA lineage): frozen matrices store NF4
//! codes plus one f32 absmax scale per 64-element block, ~0.14x of the f32
//! bytes. The demotion rule, the fused dequant-in-pack GEMMs, and the
//! sparse-path slab decode all mirror the f16 plan — a plan is just the
//! [`Dtype`] its frozen matrices are stored at ([`Precision::dtype`]).
//!
//! Pair with [`LossScaler`](crate::optim::LossScaler) when training: the
//! rounded backbone shifts activation magnitudes slightly, and scaling keeps
//! small adapter gradients out of the f32 underflow range the same way the
//! paper's FP16 runs do. The NF4 plan perturbs the backbone more than
//! f16 does (see the precision-differential loss envelopes in
//! `tests/tests/precision_differential.rs`), but the adapters still train
//! because they — and all gradients — stay f32.

use lx_tensor::Dtype;

/// Storage plan for a model's parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Everything stored f32 (the seed behaviour).
    #[default]
    F32,
    /// Frozen backbone matrices stored f16; trainable parameters, biases,
    /// LayerNorm, gradients and optimizer state stay f32.
    F16Frozen,
    /// Frozen backbone matrices stored as NF4 4-bit normal-float codes (two
    /// per byte, one f32 absmax scale per 64 elements); everything else
    /// stays f32.
    Nf4Frozen,
}

impl Precision {
    /// The storage dtype this plan demotes frozen backbone matrices to.
    pub const fn dtype(self) -> Dtype {
        match self {
            Precision::F32 => Dtype::F32,
            Precision::F16Frozen => Dtype::F16,
            Precision::Nf4Frozen => Dtype::Nf4Block,
        }
    }

    pub const fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::F16Frozen => "f16-frozen",
            Precision::Nf4Frozen => "nf4-frozen",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
