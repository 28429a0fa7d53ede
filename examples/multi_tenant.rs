//! Multi-tenant fine-tuning service walkthrough: three tenants with
//! different PEFT methods share one frozen backbone and one calibrated
//! predictor set, scheduled in time-slices by the async service (the cluster
//! scheduler at one replica); adapters persist to a registry directory and
//! survive a "restart".
//!
//! ```sh
//! cargo run --release -p lx-examples --example multi_tenant
//! ```

use long_exposure::engine::{EngineConfig, StepMode};
use lx_cluster::{ClusterConfig, ClusterScheduler, FinetuneService, QosClass};
use lx_model::{ModelConfig, Precision, TransformerModel};
use lx_peft::PeftMethod;
use lx_serve::{AdapterRegistry, DatasetSpec, JobSpec};
use std::sync::Arc;

const BATCH: usize = 1;
const SEQ: usize = 64;
const BLOCK: usize = 16;

fn backbone() -> TransformerModel {
    // Emulated pre-trained structure (see
    // `TransformerModel::induce_activation_sparsity` / `sharpen_attention`),
    // then frozen: the pristine shared state every tenant attaches to.
    let mut model = TransformerModel::new(ModelConfig::opt_sim_small(), 42);
    model.induce_activation_sparsity(0.93, 0.25, BLOCK, 11);
    model.sharpen_attention(3.0);
    model.freeze_all();
    model
}

fn scheduler(registry: Arc<AdapterRegistry>) -> ClusterScheduler {
    ClusterScheduler::new(
        |_| backbone(),
        EngineConfig {
            block_size: BLOCK,
            attn_prob_threshold: 8.0 / SEQ as f32,
            calib_epochs: 80,
            ..EngineConfig::default()
        },
        ClusterConfig {
            replicas: 1,
            slice_steps: 2,
            mode: StepMode::Sparse,
            // Half-stored shared backbone: the scaling axis for tenants per
            // box. Each tenant's adapter and optimizer state stay f32.
            precision: Precision::F16Frozen,
            ..ClusterConfig::default()
        },
        registry,
    )
}

fn tenant_jobs() -> Vec<JobSpec> {
    let mut lora = JobSpec::lora("acme-corp", 10, BATCH, SEQ);
    lora.dataset = DatasetSpec::E2e {
        world_seed: 0x5eed,
        salt: 1,
    };
    let mut adapters = JobSpec::lora("globex", 10, BATCH, SEQ);
    adapters.method = PeftMethod::adapter_default();
    adapters.dataset = DatasetSpec::Instruct {
        world_seed: 0x5eed,
        salt: 2,
    };
    let mut lora_all = JobSpec::lora("initech", 10, BATCH, SEQ);
    lora_all.method = PeftMethod::Lora {
        rank: 4,
        alpha: 8.0,
        targets: lx_peft::LoraTargets::all(),
    };
    lora_all.dataset = DatasetSpec::E2e {
        world_seed: 0x5eed,
        salt: 3,
    };
    vec![lora, adapters, lora_all]
}

fn main() {
    println!("== lx-serve multi-tenant walkthrough ==");
    let dir = std::env::temp_dir().join(format!("lx-multi-tenant-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Arc::new(AdapterRegistry::open(&dir).expect("open registry"));

    // 1. One backbone, one calibration — shared by every tenant.
    let mut sched = scheduler(registry.clone());
    let spec = DatasetSpec::E2e {
        world_seed: 0x5eed,
        salt: 0,
    };
    let mut batcher = spec.build_batcher(1024, 50_000);
    let calib: Vec<(Vec<u32>, usize, usize)> = (0..3)
        .map(|_| (batcher.next_batch(BATCH, SEQ), BATCH, SEQ))
        .collect();
    let report = sched.calibrate_shared(&calib);
    println!(
        "calibrated shared predictors (attn recall {:.1}%, mlp recall {:.1}%) — persisted to {}",
        100.0 * report.mean_attn_recall(),
        100.0 * report.mean_mlp_recall(),
        dir.display(),
    );

    // 2. Async service: submit three tenants, stream the first tenant's
    //    per-step progress live, wait on every ticket.
    let service = FinetuneService::spawn(sched);
    let tickets: Vec<_> = tenant_jobs()
        .into_iter()
        .map(|job| {
            println!("submitting {} ({})", job.tenant, job.method.name());
            (job.tenant.clone(), service.submit(job, QosClass::Batch))
        })
        .collect();
    for event in tickets[0].1.progress() {
        println!(
            "  [{}] step {}/{}: loss {:.4}, mlp density {:.2}, {:.0} tok/s",
            event.tenant,
            event.step,
            event.total_steps,
            event.loss,
            event.mlp_density.unwrap_or(1.0),
            event.tokens_per_sec(BATCH, SEQ),
        );
    }
    for (tenant, ticket) in &tickets {
        let report = ticket.wait().expect("job failed");
        println!(
            "{tenant:<12} {} steps, final loss {:.4}, {:.1} steps/s, adapter {} params",
            report.steps,
            report.final_loss(),
            report.steps_per_sec(),
            report.adapter_params,
        );
    }
    println!("\n{}", service.metrics());
    service.shutdown();

    // 3. "Restart": a fresh process reopens the registry — adapters and the
    //    shared predictor calibration are both still there, so a returning
    //    tenant warm-starts instead of recalibrating and retraining.
    let registry2 = Arc::new(AdapterRegistry::open(&dir).expect("reopen registry"));
    let mut sched2 = scheduler(registry2.clone());
    println!(
        "after restart: {} adapters on disk {:?}, predictors imported: {}",
        registry2.len(),
        registry2.tenants(),
        sched2.calibrated(),
    );
    let mut resume = JobSpec::lora("acme-corp", 4, BATCH, SEQ);
    resume.dataset = DatasetSpec::E2e {
        world_seed: 0x5eed,
        salt: 1,
    };
    assert!(sched2.submit(resume, QosClass::Batch).is_admitted());
    let resumed = sched2.run_to_completion().reports.remove(0);
    println!(
        "acme-corp resumed from its stored adapter: first loss {:.4} (a cold tenant starts near ln(vocab) = {:.2})",
        resumed.losses[0],
        (1024f32).ln(),
    );
    let _ = std::fs::remove_dir_all(&dir);
}
