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
//! The policy lives in process-wide atomics so `lx-runtime` can install a
//! cache-model-derived [`TileConfig`] (see `lx_runtime::kernel_policy`) and
//! [`autotune`] can refine the crossover threshold from a one-time measured
//! probe — both without synchronisation on the hot path.

use crate::backend::{per_task, KernelBackend, Reference};
use crate::epilogue::Epilogue;
use crate::isa::Isa;
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

impl Default for TileConfig {
    /// Conservative defaults for a ~32 KiB L1d / ≥256 KiB L2 core:
    /// `kc·NR·4B = 16 KiB` (half of L1d for B̃), `mc·kc·4B = 96 KiB` of Ã.
    fn default() -> Self {
        TileConfig {
            mc: 96,
            kc: 256,
            nc: 2048,
        }
    }
}

/// Dispatch policy: tile shape plus the packed-vs-reference crossover, plus
/// an optional microkernel ISA pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelPolicy {
    pub tiles: TileConfig,
    /// Minimum `2·m·k·n` FLOPs for a call to take the packed path.
    pub min_flops_packed: u64,
    /// Pin the microkernel to a specific [`Isa`] arm (`None` = widest
    /// detected). `LX_KERNEL_FORCE_SCALAR` and `LX_KERNEL_ISA` still take
    /// precedence over the pin — see [`crate::active_isa`].
    pub isa: Option<Isa>,
}

impl Default for KernelPolicy {
    fn default() -> Self {
        KernelPolicy {
            tiles: TileConfig::default(),
            // ~2·64³: below this the packing passes rival the math itself.
            min_flops_packed: 1 << 19,
            isa: None,
        }
    }
}

static MC: AtomicUsize = AtomicUsize::new(96);
static KC: AtomicUsize = AtomicUsize::new(256);
static NC: AtomicUsize = AtomicUsize::new(2048);
static MIN_FLOPS: AtomicU64 = AtomicU64::new(1 << 19);
static ISA_PIN: AtomicUsize = AtomicUsize::new(0); // Isa wire code; 0 = none

/// Install a dispatch policy process-wide. Takes effect on the next kernel
/// call; safe to call at any time (benches install a tuned policy up front,
/// tests leave the defaults).
pub fn install_policy(p: KernelPolicy) {
    MC.store(p.tiles.mc.max(1), Ordering::Relaxed);
    KC.store(p.tiles.kc.max(1), Ordering::Relaxed);
    NC.store(p.tiles.nc.max(NR), Ordering::Relaxed);
    MIN_FLOPS.store(p.min_flops_packed, Ordering::Relaxed);
    ISA_PIN.store(p.isa.map_or(0, |i| i.code()), Ordering::Relaxed);
}

/// The currently installed policy.
pub fn current_policy() -> KernelPolicy {
    KernelPolicy {
        tiles: tiles(),
        min_flops_packed: MIN_FLOPS.load(Ordering::Relaxed),
        isa: policy_isa(),
    }
}

/// The ISA pin of the installed policy, if any.
pub(crate) fn policy_isa() -> Option<Isa> {
    Isa::from_code(ISA_PIN.load(Ordering::Relaxed))
}

pub(crate) fn tiles() -> TileConfig {
    TileConfig {
        mc: MC.load(Ordering::Relaxed),
        kc: KC.load(Ordering::Relaxed),
        nc: NC.load(Ordering::Relaxed),
    }
}

/// Whether `LX_KERNEL_FORCE_SCALAR=1` is set: the packed backend then skips
/// its SIMD microkernel and uses the fixed-shape scalar kernel everywhere.
/// Read once — the CI fallback job sets it before the process starts.
pub fn force_scalar() -> bool {
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| std::env::var("LX_KERNEL_FORCE_SCALAR").as_deref() == Ok("1"))
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
/// `LX_KERNEL_AUTOTUNE=1` additionally runs the one-time [`autotune`] probe
/// before the first dispatch.
pub fn backend() -> &'static dyn KernelBackend {
    static CHOICE: OnceLock<&'static dyn KernelBackend> = OnceLock::new();
    *CHOICE.get_or_init(|| {
        if std::env::var("LX_KERNEL_AUTOTUNE").as_deref() == Ok("1") {
            autotune();
        }
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

/// One-time measured probe: find the GEMM size where the packed backend
/// overtakes the reference loops and install that crossover as
/// [`KernelPolicy::min_flops_packed`].
///
/// The probe walks a size ladder spanning the tiny→medium shape classes and
/// measures **both** forward variants (`nn` and `nt`), taking the more
/// conservative of the two crossovers. It runs under the live configuration —
/// the [`active_isa`](crate::active_isa) microkernel arm and the current
/// `LX_THREADS` pool width — which is exactly why the persisted policy
/// (below) is keyed by `(isa, threads)`.
///
/// Persistence: when `LX_KERNEL_POLICY=<path>` is set, a policy previously
/// saved there is loaded instead of re-probing **iff** its `(isa, threads)`
/// key matches the running process (serve restarts skip the probe); after a
/// fresh probe the result is written back to that path. Costs a few
/// milliseconds when it does probe; benches call it explicitly, library
/// users opt in via `LX_KERNEL_AUTOTUNE=1` (checked in [`backend`]).
/// Returns the installed policy.
pub fn autotune() -> KernelPolicy {
    static RESULT: OnceLock<KernelPolicy> = OnceLock::new();
    *RESULT.get_or_init(|| {
        let isa = crate::isa::active_isa();
        let threads = lx_parallel::pool().threads();
        let persist = std::env::var("LX_KERNEL_POLICY")
            .ok()
            .map(std::path::PathBuf::from);
        if let Some(path) = &persist {
            match load_policy_json(path) {
                Some(p) if p.isa == isa && p.threads == threads => {
                    install_policy(p.policy);
                    eprintln!(
                        "lx-kernels: loaded kernel policy from {} (tuned for {}, {} threads); \
                         skipping the autotune probe",
                        path.display(),
                        isa.name(),
                        threads
                    );
                    return p.policy;
                }
                Some(p) => {
                    eprintln!(
                        "lx-kernels: persisted policy {} was tuned for ({}, {} threads) but \
                         this process runs ({}, {} threads); re-probing",
                        path.display(),
                        p.isa.name(),
                        p.threads,
                        isa.name(),
                        threads
                    );
                }
                None => {}
            }
        }
        let mut policy = current_policy();
        let mut crossover: Option<usize> = None;
        for s in [32usize, 48, 64, 96, 128, 192] {
            // No exact zeros: Reference skips `av == 0.0` in its inner loop,
            // which would bias the measured crossover against Packed.
            let a: Vec<f32> = (0..s * s).map(|i| (i % 7) as f32 * 0.25 - 0.875).collect();
            let b = a.clone();
            // The 2:4 structured-sparse arm of the same B, probed alongside
            // the dense shapes: its packed path has a different cost profile
            // (group-walking pack that skips zero groups) so the crossover
            // must hold for it too before the threshold is lowered.
            let (nm_vals, nm_masks) = lx_quant::nm::encode(&b, s, s, 2, 4);
            let nm = lx_quant::NmView::new(&nm_vals, &nm_masks, s, s, 2, 4);
            let mut c = vec![0.0f32; s * s];
            let time = |backend: &dyn KernelBackend, c: &mut [f32], op: &GemmOp<'_>| {
                let run = |c: &mut [f32]| backend.gemm(op, c, s, 0.0, Epilogue::None);
                run(c); // warm
                let t0 = std::time::Instant::now();
                for _ in 0..3 {
                    run(c);
                }
                t0.elapsed()
            };
            // Packed must win every probed forward shape at this size: the
            // nn, nt, and nt-nm crossovers differ (the nt reference is a
            // dot-product loop with no packing to amortise; the nm reference
            // decodes rows on load), and dispatch has one threshold.
            let probes = [
                GemmOp::nn(s, s, s, &a, s, &b[..], s),
                GemmOp::nt(s, s, s, &a, s, &b[..], s),
                GemmOp::nt(s, s, s, &a, s, nm, s),
            ];
            if probes
                .iter()
                .all(|op| time(&PACKED, &mut c, op) <= time(&REFERENCE, &mut c, op))
            {
                crossover = Some(s);
                break;
            }
        }
        if let Some(s) = crossover {
            policy.min_flops_packed = 2 * (s as u64).pow(3);
        }
        install_policy(policy);
        if let Some(path) = &persist {
            match save_policy_json(path, policy, isa, threads) {
                Ok(()) => eprintln!(
                    "lx-kernels: saved autotuned kernel policy to {} ({}, {} threads)",
                    path.display(),
                    isa.name(),
                    threads
                ),
                Err(e) => eprintln!(
                    "lx-kernels: could not save kernel policy to {}: {e}",
                    path.display()
                ),
            }
        }
        policy
    })
}

/// The B-operand storage dtypes the autotune probe covered when a policy was
/// saved. Stored in the persisted JSON so a policy tuned before a new
/// storage arm existed (e.g. a version-1 file predating `nm-2:4`) is
/// recognisably stale: [`invalidate_stale_policy`] deletes it and the next
/// [`autotune`] re-probes with the full arm set.
pub const POLICY_DTYPES: [&str; 5] = ["f32", "f16", "i8-block", "nf4-block", "nm-2:4"];

/// A policy loaded from disk, together with the `(isa, threads)` key it was
/// tuned under and the dtype arms its probe covered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistedPolicy {
    pub policy: KernelPolicy,
    pub isa: Isa,
    pub threads: usize,
    /// Dtype names (see [`POLICY_DTYPES`]) the probe covered.
    pub dtypes: Vec<String>,
}

impl PersistedPolicy {
    /// Whether the persisted probe covered B operands of storage `dtype`.
    pub fn covers_dtype(&self, dtype: &str) -> bool {
        self.dtypes.iter().any(|d| d == dtype)
    }
}

/// Delete a persisted autotune policy (at `LX_KERNEL_POLICY`) whose probe
/// did not cover `dtype` — called when a model re-demotes its frozen storage
/// to a dtype the saved crossover was never measured for. A file that fails
/// to parse (old version, corrupt) is also removed: it would be skipped by
/// [`load_policy_json`] anyway, and deleting it makes the re-probe explicit.
/// Returns `true` when a stale file was removed.
pub fn invalidate_stale_policy(dtype: &str) -> bool {
    let Ok(path) = std::env::var("LX_KERNEL_POLICY") else {
        return false;
    };
    let path = std::path::PathBuf::from(path);
    if !path.exists() {
        return false;
    }
    let stale = match load_policy_json(&path) {
        Some(p) => !p.covers_dtype(dtype),
        None => true,
    };
    if stale {
        if let Err(e) = std::fs::remove_file(&path) {
            eprintln!(
                "lx-kernels: could not remove stale kernel policy {}: {e}",
                path.display()
            );
            return false;
        }
        eprintln!(
            "lx-kernels: removed persisted kernel policy {} (not tuned for dtype {dtype}); \
             the next autotune will re-probe",
            path.display()
        );
    }
    stale
}

/// Write `policy` (plus its tuning key) to `path` as a small JSON document.
/// Hand-rolled writer — the workspace deliberately has no serde dependency.
pub fn save_policy_json(
    path: &std::path::Path,
    policy: KernelPolicy,
    isa: Isa,
    threads: usize,
) -> std::io::Result<()> {
    let json = format!(
        "{{\n  \"version\": 2,\n  \"isa\": \"{}\",\n  \"threads\": {},\n  \"dtypes\": \"{}\",\n  \
         \"mc\": {},\n  \"kc\": {},\n  \"nc\": {},\n  \"min_flops_packed\": {}\n}}\n",
        isa.name(),
        threads,
        // Space-separated: the hand-rolled json_raw scanner treats ',' as a
        // value terminator, so commas inside the string would truncate it.
        POLICY_DTYPES.join(" "),
        policy.tiles.mc,
        policy.tiles.kc,
        policy.tiles.nc,
        policy.min_flops_packed
    );
    std::fs::write(path, json)
}

/// Read a policy previously written by [`save_policy_json`]. Returns `None`
/// (never errors) on a missing file, malformed JSON, or an unknown version —
/// including version-1 files from before the probe covered the `nm-2:4` arm
/// — so a stale or corrupt file degrades to a re-probe.
pub fn load_policy_json(path: &std::path::Path) -> Option<PersistedPolicy> {
    let text = std::fs::read_to_string(path).ok()?;
    if json_u64(&text, "version")? != 2 {
        return None;
    }
    let isa = Isa::parse(&json_str(&text, "isa")?)?;
    let threads = json_u64(&text, "threads")? as usize;
    let dtypes: Vec<String> = json_str(&text, "dtypes")?
        .split_whitespace()
        .map(str::to_string)
        .collect();
    let policy = KernelPolicy {
        tiles: TileConfig {
            mc: json_u64(&text, "mc")? as usize,
            kc: json_u64(&text, "kc")? as usize,
            nc: json_u64(&text, "nc")? as usize,
        },
        min_flops_packed: json_u64(&text, "min_flops_packed")?,
        isa: None,
    };
    if policy.tiles.mc == 0 || policy.tiles.kc == 0 || policy.tiles.nc == 0 || threads == 0 {
        return None;
    }
    Some(PersistedPolicy {
        policy,
        isa,
        threads,
        dtypes,
    })
}

/// Raw value token following `"key":` in a flat JSON object.
fn json_raw<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let after = &text[text.find(&needle)? + needle.len()..];
    let after = after.trim_start();
    let after = after.strip_prefix(':')?.trim_start();
    let end = after.find([',', '}', '\n']).unwrap_or(after.len());
    Some(after[..end].trim())
}

fn json_u64(text: &str, key: &str) -> Option<u64> {
    json_raw(text, key)?.parse().ok()
}

fn json_str(text: &str, key: &str) -> Option<String> {
    let raw = json_raw(text, key)?;
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    Some(inner.to_string())
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
    fn policy_roundtrip() {
        // Run the (memoized) autotune first so no other mutator can race the
        // install/read pair below.
        let _ = autotune();
        let before = current_policy();
        let p = KernelPolicy {
            tiles: TileConfig {
                mc: 48,
                kc: 128,
                nc: 512,
            },
            min_flops_packed: 1234,
            isa: Some(Isa::Scalar),
        };
        install_policy(p);
        assert_eq!(current_policy(), p);
        install_policy(before);
    }

    #[test]
    fn policy_json_roundtrip() {
        let path = std::env::temp_dir().join(format!("lx_policy_test_{}.json", std::process::id()));
        let p = KernelPolicy {
            tiles: TileConfig {
                mc: 72,
                kc: 192,
                nc: 1024,
            },
            min_flops_packed: 2 * 96u64.pow(3),
            isa: None,
        };
        save_policy_json(&path, p, Isa::Avx2, 4).unwrap();
        let loaded = load_policy_json(&path).unwrap();
        assert_eq!(loaded.policy, p);
        assert_eq!(loaded.isa, Isa::Avx2);
        assert_eq!(loaded.threads, 4);
        // A freshly saved policy covers every probed dtype arm.
        for dt in POLICY_DTYPES {
            assert!(loaded.covers_dtype(dt), "missing dtype coverage: {dt}");
        }
        assert!(!loaded.covers_dtype("fp64"));
        std::fs::remove_file(&path).ok();
        // Corrupt / missing files degrade to None, never panic.
        assert!(load_policy_json(std::path::Path::new("/nonexistent/p.json")).is_none());
    }

    #[test]
    fn policy_v1_files_are_rejected() {
        // A version-1 policy predates the nm-2:4 probe arm; loading must
        // degrade to None so the caller re-probes with the full arm set.
        let path =
            std::env::temp_dir().join(format!("lx_policy_v1_test_{}.json", std::process::id()));
        std::fs::write(
            &path,
            "{\n  \"version\": 1,\n  \"isa\": \"avx2\",\n  \"threads\": 4,\n  \"mc\": 96,\n  \
             \"kc\": 256,\n  \"nc\": 2048,\n  \"min_flops_packed\": 1000000\n}\n",
        )
        .unwrap();
        assert!(load_policy_json(&path).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn backend_lookup() {
        assert_eq!(backend_by_name("packed").unwrap().name(), "packed");
        assert!(backend_by_name("tpu").is_none());
    }
}
