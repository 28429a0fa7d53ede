//! The cache model behind the one [`lx_kernels::KernelPolicy`].
//!
//! Each tile is sized so the data it reuses stays resident at one level of
//! the CPU cache hierarchy the packed GEMM backend blocks for:
//!
//! * `KC` — the B̃ panel (`kc × NR` f32) must sit in L1d next to the A
//!   stream: budget half of L1d for it.
//! * `MC` — the Ã block (`mc × kc` f32) must survive in L2 across all NR
//!   panels of B̃: budget half of L2.
//! * `NC` — the B̃ block (`kc × nc` f32) should stay resident in the
//!   last-level budget while every row panel of A streams against it.
//! * `min_flops_packed` — packing writes `m·k + k·n` elements and the beta
//!   pass touches `m·n`; with pack traffic costing roughly one element write
//!   per element per pass and the microkernel retiring ~`R` MACs per cycle,
//!   packing pays off once `2·m·k·n` FLOPs exceed `overhead_factor ×` the
//!   packed traffic. Rather than model constants we can't measure from
//!   here, we fold this into a single conservative crossover (~64³ MACs).
//!
//! Nothing here inspects CPUID; [`CpuSpec::generic`] encodes the smallest
//! cache sizes common across the CI fleet, which only costs performance —
//! never correctness — when the real machine is bigger.
//! `policy_for(&CpuSpec::generic())` is the value `KernelPolicy::default()`
//! hard-codes and every process starts under (a test below and
//! `tests/kernel_policy.rs` hold them equal), so nothing needs installing.

use lx_kernels::{KernelPolicy, TileConfig, MR, NR};

/// Cache shape the tile derivation runs against.
#[derive(Debug, Clone, Copy)]
pub struct CpuSpec {
    pub l1d_bytes: usize,
    pub l2_bytes: usize,
    /// Per-core share of the last-level cache.
    pub llc_bytes: usize,
}

impl CpuSpec {
    /// Conservative baseline: 32 KiB L1d, 512 KiB L2, 1 MiB LLC share.
    pub fn generic() -> Self {
        CpuSpec {
            l1d_bytes: 32 * 1024,
            l2_bytes: 512 * 1024,
            llc_bytes: 1024 * 1024,
        }
    }
}

const F32: usize = 4;

/// Tile shapes for `spec`, rounded to the register-tile grain.
pub fn tiles_for(spec: &CpuSpec) -> TileConfig {
    // Half of L1d for the kc×NR B panel.
    let kc = ((spec.l1d_bytes / 2) / (NR * F32)).clamp(64, 512);
    // Half of L2 for the mc×kc A block, rounded down to a multiple of MR.
    let mc_raw = ((spec.l2_bytes / 2) / (kc * F32)).max(MR);
    let mc = (mc_raw / MR * MR).clamp(MR, 1024);
    // LLC share for the kc×nc B block, rounded to the NR grain.
    let nc_raw = (spec.llc_bytes / (kc * F32)).max(NR);
    let nc = (nc_raw / NR * NR).clamp(NR, 8192);
    TileConfig { mc, kc, nc }
}

/// Full policy for `spec` (tiles + the conservative packed crossover).
pub fn policy_for(spec: &CpuSpec) -> KernelPolicy {
    KernelPolicy {
        tiles: tiles_for(spec),
        min_flops_packed: 2 * 64u64.pow(3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_tiles_fit_their_cache_budgets() {
        let spec = CpuSpec::generic();
        let t = tiles_for(&spec);
        assert!(t.kc * NR * F32 <= spec.l1d_bytes / 2 + NR * F32);
        assert!(t.mc * t.kc * F32 <= spec.l2_bytes / 2 + t.kc * F32 * MR);
        assert_eq!(t.mc % MR, 0, "MC must be a register-tile multiple");
        assert_eq!(t.nc % NR, 0, "NC must be a register-tile multiple");
    }

    #[test]
    fn bigger_caches_give_no_smaller_tiles() {
        let small = tiles_for(&CpuSpec::generic());
        let big = tiles_for(&CpuSpec {
            l1d_bytes: 64 * 1024,
            l2_bytes: 2 * 1024 * 1024,
            llc_bytes: 8 * 1024 * 1024,
        });
        assert!(big.kc >= small.kc);
        assert!(big.mc >= small.mc);
        assert!(big.nc >= small.nc);
    }

    #[test]
    fn generic_policy_is_the_kernel_default() {
        assert_eq!(policy_for(&CpuSpec::generic()), KernelPolicy::default());
    }
}
