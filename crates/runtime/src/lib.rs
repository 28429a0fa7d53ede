//! The CPU cache model behind the packed-GEMM kernel policy.
//!
//! [`kernel_policy`] derives the packed-GEMM tile shapes from a cache shape
//! ([`CpuSpec`]);
//! `policy_for(&CpuSpec::generic())` is the value `lx-kernels` starts every
//! process under.
//!
//! The paper's platform figures (Figs. 7, 8, 13) are answered by measurement
//! on the sim models: the figure bins in `lx-bench` and `benchmark/`.

pub mod kernel_policy;

pub use kernel_policy::CpuSpec;
