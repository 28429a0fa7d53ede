//! Transformer substrate with explicit, hand-written forward/backward passes.
//!
//! The paper's analysis (§II-C, §II-D) reasons about exactly where sparsity
//! enters the backward pass; a tape autograd would hide that. Every module
//! here caches its forward intermediates and implements `backward` by hand,
//! so the sparse execution paths (block-sparse attention, neuron-sparse MLP)
//! can skip precisely the computations the paper proves skippable.
//!
//! Execution goes through one typed API (see [`exec`]): a [`StepRequest`]
//! names the mode (train / grad-accumulate / eval / capture / score), the
//! plan source ([`PlanSource`]: dense baseline, a pre-built [`SparsePlan`],
//! or an inline [`LayerPlanner`] — the Long Exposure path), and optional
//! micro-batches; [`TransformerModel::execute`] runs it and returns a
//! [`StepOutcome`] with loss, timings and densities. Modules cache the
//! layout they ran with, so the backward phase needs no plan.

pub mod block;
pub mod config;
pub mod embedding;
pub mod exec;
pub mod layernorm;
pub mod linear;
pub mod loss;
pub mod mha;
pub mod mlp;
pub mod model;
pub mod optim;
pub mod param;
pub mod plan;
pub mod precision;

pub use config::{Activation, ModelConfig};
pub use exec::{
    score_continuation, score_parts, MicroBatch, Mode, PlanSource, PrepareHook, StepOutcome,
    StepRequest,
};
pub use model::{prompt_aware_targets, Captures, LayerCapture, LayerPlanner, TransformerModel};
pub use optim::{Adam, AdamW, LossScaler, Optimizer, Sgd};
pub use param::Param;
pub use plan::{LayerPlan, SparsePlan};
pub use precision::Precision;
