//! The one runtime backend and the tile policy it runs under.
//!
//! ## Backend
//!
//! Every product the program issues — a lone `64×128×8` LoRA update or a
//! `512×256×1024` frozen projection, a single call or a grouped launch —
//! runs on [`Packed`], through the [`Observed`] wrapper [`backend`] hands
//! out, as one grouped launch (a plain product is a launch of one task).
//! There is no size crossover: the launch reads operands used once in place
//! and packs each shared window once, so no shape is left where the
//! [`Reference`] loops win. `Reference` stays
//! public as the correctness oracle of the differential tests and the base
//! column of `kernel_bench`; no runtime path reaches it.
//!
//! ## Policy
//!
//! There is one policy: [`KernelPolicy::default`] is the cache-model value
//! `lx_runtime::kernel_policy::policy_for(&CpuSpec::generic())` (a test there
//! holds the two equal), and the atomics below start at it. Only `kc` is read:
//! it is the k-block depth, so it sets every element's chain and can move a
//! result. `mc` / `nc` are inert — the one macro-kernel blocks only `k`.

use crate::backend::{KernelBackend, Reference};
use crate::observe::Observed;
use crate::packed::{Packed, NR};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Cache-blocking tile shape for the packed backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileConfig {
    /// Inert, like [`KernelPolicy::min_flops_packed`]: the cache model's
    /// rows of A per block (Ã sized `mc × kc`, targeting L2), which no
    /// kernel reads. It round-trips through [`install_policy`] /
    /// [`current_policy`] only for the frozen `benchmark/`, whose header
    /// prints it, and goes with it.
    pub mc: usize,
    /// K-depth per block (B̃ panel of `kc × NR` targeting L1): the one
    /// field the packed backend reads.
    pub kc: usize,
    /// Inert, like [`mc`](Self::mc): the cache model's columns of B per
    /// block (B̃ sized `kc × nc`).
    pub nc: usize,
}

const DEFAULT_TILES: TileConfig = TileConfig {
    mc: 252,
    kc: 256,
    nc: 1024,
};
/// 2·64³, the inert [`KernelPolicy::min_flops_packed`] `policy_for` reports.
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

/// Kernel policy: the packed backend's tile shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelPolicy {
    pub tiles: TileConfig,
    /// Inert: every product runs packed, so nothing reads it. It
    /// round-trips through [`install_policy`] / [`current_policy`] only for
    /// the frozen `benchmark/`, which prints it, and goes with it.
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

/// Install a kernel policy process-wide. Takes effect on the next kernel
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

/// The backend singletons: [`PACKED`] runs the program, [`REFERENCE`] is the
/// test oracle.
pub static REFERENCE: Reference = Reference;
pub static PACKED: Packed = Packed;

/// [`PACKED`] behind the metrics wrapper: every product the program issues
/// lands in the `kernel.gemm.*` metrics. The raw singletons stay available
/// for differential tests and benches that want zero overhead.
static OBS_PACKED: Observed = Observed::new(&PACKED);

/// The process-wide backend: the observed [`Packed`].
pub fn backend() -> &'static dyn KernelBackend {
    &OBS_PACKED
}

/// Always `"packed"`, the backend [`backend`] runs every shape on. The name
/// stays only for its callers in the frozen `benchmark/` and goes with them.
pub fn auto_choice(_m: usize, _k: usize, _n: usize) -> &'static str {
    PACKED.name()
}
