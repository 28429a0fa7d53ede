//! Dense tensor substrate for the Long Exposure reproduction.
//!
//! The paper's baseline ("dense") arm and all predictor computations run on
//! these kernels. Everything is row-major `f32`; parallelism comes from
//! [`lx_parallel`]'s global pool; allocations are tracked by [`memtrack`] so
//! the memory-footprint experiments (paper Fig. 8) can report real peaks.

pub mod gemm;
pub mod memtrack;
pub mod ops;
mod reduced;
pub mod rng;
mod tensor;
pub mod workspace;

pub use lx_kernels::Dtype;
/// The process-wide worker pool every kernel here runs on, for callers that
/// launch their own task groups onto it.
pub use lx_parallel::pool;
pub use reduced::{BRef, Reduced};
pub use tensor::Tensor;
pub use workspace::{Workspace, WorkspaceStats};
