//! Own process, one test: nothing has installed a policy before the read,
//! and no sibling test can observe the odd `kc` / crossover installed after.

use lx_kernels::{current_policy, install_policy, KernelPolicy, TileConfig};
use lx_runtime::kernel_policy::policy_for;
use lx_runtime::CpuSpec;

#[test]
fn a_fresh_process_runs_under_the_generic_cache_model_policy() {
    let fresh = current_policy();
    assert_eq!(fresh, policy_for(&CpuSpec::generic()));

    let p = KernelPolicy {
        tiles: TileConfig {
            mc: 48,
            kc: 128,
            nc: 512,
        },
        min_flops_packed: 1234,
    };
    install_policy(p);
    assert_eq!(current_policy(), p);
    install_policy(fresh);
    assert_eq!(current_policy(), fresh);
}
