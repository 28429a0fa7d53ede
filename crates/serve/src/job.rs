//! Job descriptions and completion reports.

use lx_data::e2e::E2eGenerator;
use lx_data::instruct::InstructGenerator;
use lx_data::{Batcher, SyntheticWorld};
use lx_peft::PeftMethod;
use std::time::Duration;

/// Which synthetic corpus a tenant fine-tunes on. Streams are fully
/// determined by `(vocab, world_seed, salt)`, so a job resubmitted after a
/// restart sees identical data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetSpec {
    /// E2E-style table-to-text records.
    E2e { world_seed: u64, salt: u64 },
    /// Alpaca-style instruction/response pairs.
    Instruct { world_seed: u64, salt: u64 },
}

impl DatasetSpec {
    /// Materialise the token stream for this dataset at the given vocab.
    pub fn build_batcher(&self, vocab: u32, stream_len: usize) -> Batcher {
        match *self {
            DatasetSpec::E2e { world_seed, salt } => {
                let world = SyntheticWorld::new(vocab, world_seed);
                Batcher::new(E2eGenerator::new(world).stream(stream_len, salt))
            }
            DatasetSpec::Instruct { world_seed, salt } => {
                let world = SyntheticWorld::new(vocab, world_seed);
                Batcher::new(InstructGenerator::new(world).stream(stream_len, salt))
            }
        }
    }
}

/// A tenant's fine-tuning request: dataset + PEFT method + step budget.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Unique tenant identifier (also the registry key). Restricted to
    /// `[A-Za-z0-9_-]` so it can double as a file stem.
    pub tenant: String,
    pub method: PeftMethod,
    pub dataset: DatasetSpec,
    /// Total training steps this job is entitled to.
    pub steps: u64,
    pub batch: usize,
    pub seq: usize,
    /// Learning rate for the tenant's AdamW optimizer.
    pub lr: f32,
    /// Seed for adapter initialisation (module injection).
    pub adapter_seed: u64,
    /// Token stream length to materialise for the dataset
    /// (`1..=`[`MAX_STREAM_LEN`]).
    pub stream_len: usize,
    /// Micro-batches accumulated per optimizer step (gradient accumulation):
    /// each step draws this many `(batch, seq)` batches from the stream and
    /// runs one update over their combined effective batch.
    pub micro_batches: usize,
    /// Evaluation-only job: every step is a forward/loss pass under the
    /// service's execution mode — no gradients, no optimizer, the stored
    /// adapter is left exactly as it was. Used to measure an existing
    /// adapter's loss trajectory on a dataset.
    pub eval_only: bool,
}

/// Upper bound on [`JobSpec::stream_len`] and on the tokens one step draws
/// (`batch * seq * micro_batches`): a job spec arrives from outside the
/// process, and both sizes are allocated for at admission.
pub const MAX_STREAM_LEN: usize = 1 << 24;

impl JobSpec {
    /// A reasonable default job: LoRA over E2E-style data.
    pub fn lora(tenant: impl Into<String>, steps: u64, batch: usize, seq: usize) -> Self {
        let tenant = tenant.into();
        let salt = tenant.bytes().fold(0u64, |h, b| {
            h.wrapping_mul(0x100000001b3).wrapping_add(b as u64)
        });
        JobSpec {
            tenant,
            method: PeftMethod::lora_default(),
            dataset: DatasetSpec::E2e {
                world_seed: 0x5eed,
                salt,
            },
            steps,
            batch,
            seq,
            lr: 1e-3,
            adapter_seed: salt ^ 0xada9,
            stream_len: 50_000,
            micro_batches: 1,
            eval_only: false,
        }
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.tenant.is_empty() {
            return Err("tenant id must not be empty".into());
        }
        if self.micro_batches == 0 {
            return Err("micro_batches must be at least 1".into());
        }
        if self.eval_only && self.micro_batches != 1 {
            return Err(
                "eval-only jobs take one batch per step (no gradients to accumulate)".into(),
            );
        }
        if !self
            .tenant
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        {
            return Err(format!(
                "tenant id {:?} must be [A-Za-z0-9_-] only",
                self.tenant
            ));
        }
        if !self.method.is_detachable() {
            return Err(format!(
                "method {} trains backbone weights in place; multi-tenant serving requires a detachable method (LoRA, adapters, prompt tuning)",
                self.method.name()
            ));
        }
        if self.steps == 0 || self.batch == 0 || self.seq == 0 {
            return Err("steps, batch and seq must all be positive".into());
        }
        if self.stream_len == 0 || self.stream_len > MAX_STREAM_LEN {
            return Err(format!(
                "stream_len {} must be in 1..={MAX_STREAM_LEN}",
                self.stream_len
            ));
        }
        let step_tokens = self
            .batch
            .checked_mul(self.seq)
            .and_then(|t| t.checked_mul(self.micro_batches));
        if step_tokens.is_none_or(|t| t > MAX_STREAM_LEN) {
            return Err(format!(
                "batch {} x seq {} x micro_batches {} exceeds {MAX_STREAM_LEN} tokens per step",
                self.batch, self.seq, self.micro_batches
            ));
        }
        if !(self.lr.is_finite() && self.lr > 0.0) {
            return Err(format!("lr {} must be finite and positive", self.lr));
        }
        Ok(())
    }
}

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    Queued,
    Running,
    Completed(JobReport),
    Rejected(String),
}

/// One training (or evaluation) step as observed by a tenant: emitted by the
/// scheduler after every step and streamed to clients through
/// `JobTicket::progress()`, so tenants watch loss/density/throughput live
/// instead of waiting for the terminal [`JobReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct StepEvent {
    pub tenant: String,
    /// 1-based step index within the job.
    pub step: u64,
    /// The job's total step budget.
    pub total_steps: u64,
    pub loss: f32,
    /// Mean attention density of the executed plan (`None` when dense).
    pub attn_density: Option<f32>,
    /// Mean MLP neuron-block density of the executed plan.
    pub mlp_density: Option<f32>,
    /// Wall time of this step (all micro-batches plus the optimizer).
    pub step_time: Duration,
    /// Micro-batches accumulated into this step.
    pub micro_batches: usize,
    /// Whether this was an evaluation-only step.
    pub eval: bool,
}

impl StepEvent {
    /// Tokens processed by this step.
    pub fn tokens(&self, batch: usize, seq: usize) -> u64 {
        (batch * seq * self.micro_batches) as u64
    }

    /// Tokens per second of this step.
    pub fn tokens_per_sec(&self, batch: usize, seq: usize) -> f64 {
        let s = self.step_time.as_secs_f64();
        if s > 0.0 {
            self.tokens(batch, seq) as f64 / s
        } else {
            0.0
        }
    }
}

/// Final accounting for one finished job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    pub tenant: String,
    pub steps: u64,
    /// Per-step training losses, in execution order.
    pub losses: Vec<f32>,
    /// Time spent inside this tenant's train steps (excludes queueing).
    pub busy: Duration,
    /// Adapter parameter count (the tenant's marginal state).
    pub adapter_params: usize,
}

impl JobReport {
    pub fn final_loss(&self) -> f32 {
        self.losses.last().copied().unwrap_or(f32::NAN)
    }

    pub fn steps_per_sec(&self) -> f64 {
        let s = self.busy.as_secs_f64();
        if s > 0.0 {
            self.steps as f64 / s
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_validates() {
        assert!(JobSpec::lora("tenant-a", 10, 1, 16).validate().is_ok());
    }

    #[test]
    fn accumulation_and_eval_settings_validate() {
        let mut spec = JobSpec::lora("t", 4, 1, 16);
        spec.micro_batches = 4;
        assert!(spec.validate().is_ok());
        spec.micro_batches = 0;
        assert!(spec.validate().is_err());
        spec.micro_batches = 2;
        spec.eval_only = true;
        assert!(spec.validate().is_err(), "eval cannot accumulate");
        spec.micro_batches = 1;
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn bad_tenant_ids_rejected() {
        assert!(JobSpec::lora("", 1, 1, 8).validate().is_err());
        assert!(JobSpec::lora("a/b", 1, 1, 8).validate().is_err());
        assert!(JobSpec::lora("..", 1, 1, 8).validate().is_err());
    }

    #[test]
    fn hostile_sizes_and_learning_rates_rejected() {
        let base = JobSpec::lora("t", 4, 1, 16);
        for stream_len in [0, MAX_STREAM_LEN + 1, usize::MAX] {
            let err = JobSpec {
                stream_len,
                ..base.clone()
            }
            .validate()
            .unwrap_err();
            assert!(err.contains("stream_len"), "{err}");
        }
        for (batch, seq) in [(usize::MAX, 16), (2, usize::MAX), (1 << 20, 1 << 20)] {
            let err = JobSpec {
                batch,
                seq,
                ..base.clone()
            }
            .validate()
            .unwrap_err();
            assert!(err.contains("tokens per step"), "{err}");
        }
        for lr in [f32::NAN, f32::INFINITY, 0.0, -1e-3] {
            let err = JobSpec { lr, ..base.clone() }.validate().unwrap_err();
            assert!(err.contains("lr"), "{err}");
        }
        assert!(JobSpec {
            stream_len: MAX_STREAM_LEN,
            ..base
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn non_detachable_method_rejected() {
        let mut spec = JobSpec::lora("t", 1, 1, 8);
        spec.method = PeftMethod::BitFit;
        assert!(spec.validate().is_err());
        spec.method = PeftMethod::Full;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn datasets_are_deterministic() {
        let spec = DatasetSpec::E2e {
            world_seed: 1,
            salt: 2,
        };
        let mut a = spec.build_batcher(1024, 1000);
        let mut b = spec.build_batcher(1024, 1000);
        assert_eq!(a.next_batch(2, 16), b.next_batch(2, 16));
    }

    #[test]
    fn distinct_salts_give_distinct_streams() {
        let a = DatasetSpec::Instruct {
            world_seed: 1,
            salt: 2,
        }
        .build_batcher(1024, 1000)
        .next_batch(2, 32);
        let b = DatasetSpec::Instruct {
            world_seed: 1,
            salt: 3,
        }
        .build_batcher(1024, 1000)
        .next_batch(2, 32);
        assert_ne!(a, b);
    }
}
