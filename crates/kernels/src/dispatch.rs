//! Size-aware backend dispatch and the tile/threshold policy.
//!
//! ## Dispatch policy
//!
//! The packed backend pays for its speed up front: packing traffic of
//! `O(m·k + k·n)` writes per k-block plus the beta pass over C. For the
//! Fig. 12 operator shapes (hundreds × hundreds and up) that cost is noise;
//! for a lone small product (a `32×64×32` score block) it is not. The
//! [`Auto`] dispatcher therefore routes a call to [`Packed`] only when its
//! FLOP count clears [`KernelPolicy::min_flops_packed`] *and* the
//! inner/output dimensions are wide enough (`k ≥ 8`, `n ≥ NR/2`) for panels
//! to amortise; everything else takes the [`Reference`] loops, which have
//! zero setup cost. A *group* of small products is a different trade: the
//! block-sparse operators launch all their blocks as one
//! [`GemmGroup`], which packs each shared window once and pays the fixed
//! costs once per launch, so [`Auto`] sends every group with panel-wide tasks
//! to [`Packed`] (see `group_packs`).
//!
//! There is one policy: [`KernelPolicy::default`] is the cache-model value
//! `lx_runtime::kernel_policy::policy_for(&CpuSpec::generic())` (a test there
//! holds the two equal), and the atomics below start at it. `mc` / `nc` only
//! choose which rows and columns are computed together — never the k-order of
//! any element — so they cannot move a result; `kc` and the crossover can.

use crate::backend::{per_task, KernelBackend, Reference};
use crate::epilogue::Epilogue;
use crate::observe::Observed;
use crate::op::{GemmGroup, GemmOp};
use crate::packed::{Packed, NR};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Cache-blocking tile shape for the packed backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileConfig {
    /// Rows of A packed per block (Ã sized `mc × kc`, targeting L2).
    pub mc: usize,
    /// K-depth per block (B̃ panel of `kc × NR` targeting L1).
    pub kc: usize,
    /// Columns of B packed per block (B̃ sized `kc × nc`).
    pub nc: usize,
}

const DEFAULT_TILES: TileConfig = TileConfig {
    mc: 252,
    kc: 256,
    nc: 1024,
};
/// ~2·64³: below this the packing passes rival the math itself.
const DEFAULT_MIN_FLOPS: u64 = 1 << 19;

impl Default for TileConfig {
    /// The cache model's answer for a 32 KiB L1d / 512 KiB L2 / 1 MiB LLC-share
    /// core: `kc·NR·4B = 16 KiB` (half of L1d for a B̃ panel), `mc·kc·4B =
    /// 252 KiB` of Ã (half of L2, rounded down to a multiple of `MR`),
    /// `kc·nc·4B = 1 MiB` of B̃.
    fn default() -> Self {
        DEFAULT_TILES
    }
}

/// Dispatch policy: tile shape plus the packed-vs-reference crossover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelPolicy {
    pub tiles: TileConfig,
    /// Minimum `2·m·k·n` FLOPs for a call to take the packed path.
    pub min_flops_packed: u64,
}

impl Default for KernelPolicy {
    fn default() -> Self {
        KernelPolicy {
            tiles: DEFAULT_TILES,
            min_flops_packed: DEFAULT_MIN_FLOPS,
        }
    }
}

static MC: AtomicUsize = AtomicUsize::new(DEFAULT_TILES.mc);
static KC: AtomicUsize = AtomicUsize::new(DEFAULT_TILES.kc);
static NC: AtomicUsize = AtomicUsize::new(DEFAULT_TILES.nc);
static MIN_FLOPS: AtomicU64 = AtomicU64::new(DEFAULT_MIN_FLOPS);

/// Install a dispatch policy process-wide. Takes effect on the next kernel
/// call; safe to call at any time. Nothing in the workspace needs to: the
/// default is the policy every test, example, bench and service runs under.
pub fn install_policy(p: KernelPolicy) {
    MC.store(p.tiles.mc.max(1), Ordering::Relaxed);
    KC.store(p.tiles.kc.max(1), Ordering::Relaxed);
    NC.store(p.tiles.nc.max(NR), Ordering::Relaxed);
    MIN_FLOPS.store(p.min_flops_packed, Ordering::Relaxed);
}

/// The currently installed policy.
pub fn current_policy() -> KernelPolicy {
    KernelPolicy {
        tiles: tiles(),
        min_flops_packed: MIN_FLOPS.load(Ordering::Relaxed),
    }
}

/// Alias of [`current_policy`]: there is no measured probe. The name stays
/// only for its one caller in the frozen `benchmark/` and goes with it.
pub fn autotune() -> KernelPolicy {
    current_policy()
}

pub(crate) fn tiles() -> TileConfig {
    TileConfig {
        mc: MC.load(Ordering::Relaxed),
        kc: KC.load(Ordering::Relaxed),
        nc: NC.load(Ordering::Relaxed),
    }
}

/// The three backend singletons.
pub static REFERENCE: Reference = Reference;
pub static PACKED: Packed = Packed;
pub static AUTO: Auto = Auto;

// Instrumented wrappers around the singletons: [`backend`] hands these out so
// every dispatched GEMM lands in the `kernel.gemm.*` metrics. Raw singletons
// stay available for differential tests and benches that want zero overhead.
static OBS_REFERENCE: Observed = Observed::new(&REFERENCE);
static OBS_PACKED: Observed = Observed::new(&PACKED);
static OBS_AUTO: Observed = Observed::new(&AUTO);

/// Size-aware dispatcher: picks [`Packed`] or [`Reference`] per call.
pub struct Auto;

#[inline]
fn pick(m: usize, k: usize, n: usize) -> &'static dyn KernelBackend {
    let flops = 2 * (m as u64) * (k as u64) * (n as u64);
    if flops >= MIN_FLOPS.load(Ordering::Relaxed) && k >= 8 && n >= NR / 2 {
        &PACKED
    } else {
        &REFERENCE
    }
}

impl KernelBackend for Auto {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn gemm(&self, op: &GemmOp<'_>, c: &mut [f32], ldc: usize, beta: f32, ep: Epilogue<'_>) {
        pick(op.m, op.k, op.n).gemm(op, c, ldc, beta, ep)
    }

    fn gemm_grouped(&self, group: &GemmGroup<'_>, c: &mut [f32]) {
        if group_packs(group) {
            PACKED.gemm_grouped(group, c)
        } else {
            per_task(self, group, c)
        }
    }
}

/// Whether [`Auto`] runs a group on [`Packed`]. A group amortises packing
/// over every task that shares a window and pays none of a single call's
/// fixed costs per task, so there is no FLOP floor — only the panel-width
/// conditions of [`pick`]; narrower tasks take the per-task loop.
pub(crate) fn group_packs(group: &GemmGroup<'_>) -> bool {
    group.k >= 8 && group.n >= NR / 2
}

/// Resolve the process-wide backend once: `LX_KERNEL_BACKEND` ∈
/// `reference | packed | auto` (default `auto`; anything else warns loudly
/// and falls back to `auto` so a typo can't silently un-pin a benchmark).
pub fn backend() -> &'static dyn KernelBackend {
    static CHOICE: OnceLock<&'static dyn KernelBackend> = OnceLock::new();
    *CHOICE.get_or_init(|| {
        let name = std::env::var("LX_KERNEL_BACKEND").unwrap_or_else(|_| "auto".into());
        match name.as_str() {
            "reference" => &OBS_REFERENCE,
            "packed" => &OBS_PACKED,
            "auto" => &OBS_AUTO,
            other => {
                eprintln!(
                    "lx-kernels: unknown LX_KERNEL_BACKEND '{other}' \
                     (expected reference|packed|auto); using auto"
                );
                &OBS_AUTO
            }
        }
    })
}

/// Name of the backend [`Auto`] would route an `m×k×n` call to right now
/// (benches report this next to their measurements).
pub fn auto_choice(m: usize, k: usize, n: usize) -> &'static str {
    pick(m, k, n).name()
}

/// Look a backend up by name (benches and differential tests).
pub fn backend_by_name(name: &str) -> Option<&'static dyn KernelBackend> {
    match name {
        "reference" => Some(&REFERENCE),
        "packed" => Some(&PACKED),
        "auto" => Some(&AUTO),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_routes_small_to_reference() {
        assert_eq!(pick(4, 4, 4).name(), "reference");
        assert_eq!(pick(512, 512, 512).name(), "packed");
        // Narrow K or N never packs, whatever the FLOP count.
        assert_eq!(pick(100_000, 4, 100).name(), "reference");
        assert_eq!(pick(100_000, 100, 4).name(), "reference");
    }

    #[test]
    fn backend_lookup() {
        assert_eq!(backend_by_name("packed").unwrap().name(), "packed");
        assert!(backend_by_name("tpu").is_none());
    }
}
