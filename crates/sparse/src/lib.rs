//! Dynamic-aware sparse operators (paper §VI).
//!
//! Sparse patterns in Long Exposure are *runtime-dynamic*: every batch gets a
//! fresh per-head attention pattern and a fresh set of active MLP neuron
//! blocks from the predictors. Classic sparse toolchains amortise their
//! indexing cost through static compilation or ahead-of-time format
//! conversion, which dynamic patterns forbid. This crate reproduces the
//! paper's answer:
//!
//! * **Offline pool construction** ([`patterns::PatternPool`]): layouts
//!   (block-CSR lookup tables) for a pool of *atomic* sparse-attention
//!   patterns are precomputed once.
//! * **Online pattern combination** ([`patterns::PatternPool::combine`]):
//!   at runtime each head picks a pooled pattern and the combined multi-head
//!   task list is assembled by offset arithmetic only — no layout
//!   recomputation (paper Fig. 6).
//! * **SDD / DSD block kernels** ([`attention`]): `S = D·Dᵀ` restricted to
//!   active score blocks, `D = S·D`, their transposed forms for the backward
//!   pass, and block-sparse row softmax.
//! * **Neuron-centric MLP kernels** ([`neuron`]): column-sparse FC1 /
//!   row-sparse FC2 matmuls over active neuron *blocks*, with FC1 weights
//!   stored column-major and FC2 row-major so active blocks are contiguous
//!   (the paper's memory-coalescing optimisation).
//! * **Unstructured baseline** ([`scattered`]): element-granular sparse ops
//!   used as the "Shadowy" arm in Fig. 9/12 — the paper (and this repo)
//!   find it *slower* than dense due to lost arithmetic intensity.

pub mod attention;
pub mod layout;
pub mod mask;
pub mod neuron;
pub mod patterns;
pub mod scattered;

pub use layout::{BlockCsr, MultiHeadLayout};
pub use mask::BlockMask;
pub use neuron::NeuronBlockSet;
pub use patterns::{PatternPool, PatternSpec};
