//! The fixed configuration every run shares, and the seed → inputs mapping.
//!
//! Fixed on every commit: backbone init seed, the sim-model recipe, adapter
//! seeds, kernel policy, thread count. `--seed` drives only the generated
//! *inputs*: token streams, tenant order and the tenant → method mix.

use crate::json::Json;
use long_exposure::engine::EngineConfig;
use lx_kernels::KernelPolicy;
use lx_model::{ModelConfig, TransformerModel};
use std::time::{Duration, Instant};

/// Backbone initialisation seed (never derived from `--seed`).
pub const BACKBONE_SEED: u64 = 42;
/// Adapter initialisation seed for the `ft-*` workloads.
pub const ADAPTER_SEED: u64 = 44;
/// Score-block edge and MLP neuron-block size of the sim recipe.
pub const BLOCK: usize = 16;
/// Untimed steps before every window (workspace pool, slab cache, lazy
/// policy state); they belong to set-up.
pub const WARMUP_STEPS: usize = 3;
/// Times set-up is repeated per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// The `sim_model` recipe of `crates/bench` (copied, not imported, so that
/// crate can keep evolving): emulated pre-trained structure — activation
/// concentration plus sharpened, local attention.
pub fn sim_model(cfg: ModelConfig) -> TransformerModel {
    let mut model = TransformerModel::new(cfg, BACKBONE_SEED);
    model.induce_activation_sparsity(0.93, 0.25, BLOCK, BACKBONE_SEED + 1);
    model.sharpen_attention(3.0);
    model
}

/// Engine hyperparameters of the recipe for sequences of `seq` tokens.
pub fn engine_config(seq: usize, plan_interval: usize) -> EngineConfig {
    EngineConfig {
        block_size: BLOCK,
        attn_prob_threshold: 8.0 / seq as f32,
        calib_epochs: 80,
        plan_refresh: long_exposure::PlanRefreshConfig {
            interval: plan_interval,
            ..long_exposure::PlanRefreshConfig::default()
        },
        ..EngineConfig::default()
    }
}

/// Install the cache-model kernel policy. Deliberately *not* the autotuned
/// one: `lx_kernels::autotune()` times tiny GEMMs once per process and its
/// packed/reference crossover flips between runs on this host (2·32³ vs
/// 2·48³ observed), which moves `serve-mixed-32t`'s small shapes between
/// backends — a bimodal yardstick. The probe's cost is reported on its own
/// as `lx-runtime.autotune_s`.
pub fn install_policy() -> (KernelPolicy, Duration) {
    let t0 = Instant::now();
    let policy = lx_runtime::kernel_policy::policy_for(&lx_runtime::CpuSpec::generic());
    lx_kernels::install_policy(policy);
    (policy, t0.elapsed())
}

/// Set up `SETUP_REPEATS` times (once when `quick`), one rig alive at a time
/// as a user would have; returns the last rig and the median set-up seconds.
pub fn repeated_setup<R>(quick: bool, mut build: impl FnMut() -> (R, Duration)) -> (R, f64) {
    let repeats = if quick { 1 } else { SETUP_REPEATS };
    let mut seconds = Vec::with_capacity(repeats);
    let mut rig = None;
    for _ in 0..repeats {
        drop(rig.take());
        let (built, took) = build();
        seconds.push(took.as_secs_f64());
        rig = Some(built);
    }
    (
        rig.expect("at least one set-up"),
        crate::stats::median(&seconds),
    )
}

/// SplitMix64: the seed → inputs expander (tenant order, salts).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The self-describing result header: everything a reader needs to decide
/// whether two result files are comparable.
pub fn header(seed: u64, seconds: f64, policy: &KernelPolicy) -> Json {
    let probe = [(512, 256, 256), (64, 128, 128)]
        .map(|(m, k, n)| Json::str(format!("{m}x{k}x{n}:{}", lx_kernels::auto_choice(m, k, n))));
    Json::obj([
        ("nproc", Json::from(nproc())),
        ("threads", Json::from(lx_parallel::pool().threads())),
        ("isa", Json::str(lx_kernels::active_isa().name())),
        ("kernel_backend", Json::str(lx_kernels::backend().name())),
        ("kernel_routing", Json::Arr(probe.to_vec())),
        (
            "kernel_policy",
            Json::str(format!(
                "mc={} kc={} nc={} min_flops_packed={}",
                policy.tiles.mc, policy.tiles.kc, policy.tiles.nc, policy.min_flops_packed
            )),
        ),
        ("git_commit", Json::str(git_commit())),
        ("seed", Json::from(seed)),
        ("seconds", Json::Num(seconds)),
        ("warmup_steps", Json::from(WARMUP_STEPS)),
        ("setup_repeats", Json::from(SETUP_REPEATS)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let draw = |seed| {
            let mut rng = SplitMix(seed);
            let mut order: Vec<usize> = (0..32).collect();
            rng.shuffle(&mut order);
            (order, rng.next())
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut sorted = draw(7).0;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>(), "a permutation");
    }
}
