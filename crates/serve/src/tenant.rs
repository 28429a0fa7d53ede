//! The per-tenant execution unit the `lx-cluster` scheduler dispatches.
//!
//! A [`TenantTask`] owns *all* mutable state of one tenant's job — adapter,
//! optimizer moments, data cursor, per-tenant step workspace — and knows how
//! to run one scheduler slice against any engine wrapping the shared frozen
//! backbone. Because every mutable byte rides inside the task, a task can
//! migrate between backbone replicas (work-stealing) without changing its
//! numerics: the loss stream depends only on the task's own state and the
//! frozen weights.
//!
//! [`run_fused_eval_slice`] is the cross-tenant batch-fusion path: several
//! compatible eval jobs coalesce into one fused [`StepRequest`] via the
//! micro-batch list, with an [`on_micro_batch`] hook swapping each tenant's
//! adapter in before its shard — and the de-fused per-tenant losses are
//! bit-identical to unfused execution ([`StepOutcome::micro_losses`]).
//!
//! [`StepRequest`]: lx_model::StepRequest
//! [`StepOutcome::micro_losses`]: lx_model::StepOutcome
//! [`on_micro_batch`]: lx_model::StepRequest::on_micro_batch

use crate::job::{JobReport, JobSpec, StepEvent};
use crate::registry::AdapterRegistry;
use long_exposure::engine::{FinetuneEngine, StepMode};
use lx_data::Batcher;
use lx_model::{prompt_aware_targets, AdamW, MicroBatch, TransformerModel};
use lx_obs::{registry, Histogram, Span};
use lx_peft::TenantAdapter;
use lx_tensor::Workspace;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Always-on `serve.step.ns` latency histogram across all tenants — one
/// record per scheduled train/eval step, feeding the p50/p99 columns of
/// `serve_throughput --json` and the Prometheus exposition.
pub fn serve_step_histogram() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| registry().histogram("serve.step.ns"))
}

/// Per-step observer for one job: called by the scheduling thread after every
/// training/evaluation step with that step's [`StepEvent`].
pub type ProgressSink = Box<dyn FnMut(StepEvent) + Send>;

/// What one scheduler slice did, in the units [`crate::ServeMetrics`]
/// accounts in.
#[derive(Debug, Clone, Default)]
pub struct SliceOutcome {
    /// Steps executed this slice.
    pub steps: u64,
    /// Tokens consumed (every micro-batch counted).
    pub tokens: u64,
    /// Wall time inside train/eval steps.
    pub busy: Duration,
    /// Adapter attach/detach overhead.
    pub swap: Duration,
    /// Loss of the slice's final step (NaN if the slice ran zero steps).
    pub last_loss: f32,
}

/// One tenant's job: spec, adapter, optimizer, data cursor and warm
/// per-tenant workspace, plus the slice-execution logic itself.
pub struct TenantTask {
    pub spec: JobSpec,
    adapter: TenantAdapter,
    opt: AdamW,
    batcher: Batcher,
    pub steps_done: u64,
    pub losses: Vec<f32>,
    pub busy: Duration,
    progress: Option<ProgressSink>,
    /// Per-tenant step workspace: swapped into the shared backbone for the
    /// tenant's slice (like the adapter) and retained across slices, so a
    /// tenant's steady-state steps stay allocation-free even under
    /// interleaving with differently-shaped tenants — and under migration
    /// between backbone replicas, since the pool travels with the task.
    workspace: Workspace,
    /// When this task last became runnable (admission, or the end of its
    /// previous slice) — the scheduling queue-wait clock.
    pub ready_since: Instant,
    /// `serve.slice.wait_ns{tenant}`: runnable → scheduled, per slice.
    wait_hist: Arc<Histogram>,
    /// `serve.slice.run_ns{tenant}`: busy time per scheduled slice.
    run_hist: Arc<Histogram>,
}

impl TenantTask {
    /// Validate and admit a job against `engine`'s backbone: resumes from a
    /// registry adapter when one exists for this tenant (same method), else
    /// initialises a fresh adapter. Duplicate-tenant policing is the
    /// caller's job — the task itself has no view of its siblings.
    pub fn admit(
        spec: JobSpec,
        progress: Option<ProgressSink>,
        engine: &mut FinetuneEngine,
        mode: StepMode,
        registry: &AdapterRegistry,
    ) -> Result<Self, String> {
        spec.validate()?;
        // The effective sequence (seq + any soft-prompt prefix) must fit the
        // backbone's position table, or the embedding asserts mid-slice.
        let prompt_len = spec_prompt_len(&spec);
        let max_seq = engine.model.config.max_seq;
        let eff = match spec.seq.checked_add(prompt_len) {
            Some(eff) if eff <= max_seq => eff,
            _ => {
                return Err(format!(
                    "seq {} + prompt {} exceeds the backbone's {} positions",
                    spec.seq, prompt_len, max_seq
                ))
            }
        };
        if mode == StepMode::Sparse {
            if !engine.calibrated {
                return Err(
                    "sparse serving requires shared predictors: call calibrate_shared() first"
                        .into(),
                );
            }
            // Reject misaligned jobs here rather than panicking mid-slice:
            // the effective sequence must tile into score blocks.
            let block = engine.config.block_size;
            if !eff.is_multiple_of(block) {
                return Err(format!(
                    "sparse serving needs block-aligned sequences: seq {} + prompt {} = {} is not a multiple of block size {}",
                    spec.seq, prompt_len, eff, block
                ));
            }
        }
        let adapter = match registry.get(&spec.tenant)? {
            Some(existing) => {
                if existing.method != spec.method {
                    return Err(format!(
                        "tenant {} has a stored {} adapter but the job requests {}",
                        spec.tenant,
                        existing.method.name(),
                        spec.method.name()
                    ));
                }
                existing
            }
            None => TenantAdapter::initialise(&mut engine.model, spec.method, spec.adapter_seed),
        };
        let vocab = engine.model.config.vocab_size as u32;
        let batcher = spec.dataset.build_batcher(vocab, spec.stream_len);
        let opt = AdamW::new(spec.lr, 0.01);
        let labels = [("tenant", spec.tenant.as_str())];
        let wait_hist = lx_obs::registry().histogram_labeled("serve.slice.wait_ns", &labels);
        let run_hist = lx_obs::registry().histogram_labeled("serve.slice.run_ns", &labels);
        Ok(TenantTask {
            spec,
            adapter,
            opt,
            batcher,
            steps_done: 0,
            losses: Vec::new(),
            busy: Duration::ZERO,
            progress,
            workspace: Workspace::new(),
            ready_since: Instant::now(),
            wait_hist,
            run_hist,
        })
    }

    pub fn remaining(&self) -> u64 {
        self.spec.steps - self.steps_done
    }

    /// Batches one step consumes (micro-batch accumulation draws several).
    pub fn batches_per_step(&self) -> usize {
        self.spec.micro_batches
    }

    fn next_ids(&mut self) -> Vec<u32> {
        self.batcher.next_batch(self.spec.batch, self.spec.seq)
    }

    /// The tenant's current adapter (persist with
    /// [`AdapterRegistry::put`] on completion).
    pub fn adapter(&self) -> &TenantAdapter {
        &self.adapter
    }

    /// Step-workspace reuse counters (hits/misses/recycled) of the task's
    /// warm per-tenant pool.
    pub fn workspace_stats(&self) -> lx_tensor::WorkspaceStats {
        self.workspace.stats()
    }

    /// Whether this job can join a cross-tenant fused eval batch: a
    /// stateless eval-only pass with a single micro-batch and no soft-prompt
    /// prefix (a nonzero prompt length would change the fused request's
    /// effective sequence geometry). Jobs fuse when their
    /// [`Self::fusion_key`]s are equal.
    pub fn fusable(&self) -> bool {
        self.spec.eval_only && self.spec.micro_batches == 1 && spec_prompt_len(&self.spec) == 0
    }

    /// Fusion-compatibility key: fusable jobs with the same `(batch, seq)`
    /// shape coalesce into one fused request (precision and plan source are
    /// engine-level on the replica, so they are shared by construction).
    pub fn fusion_key(&self) -> Option<(usize, usize)> {
        self.fusable().then_some((self.spec.batch, self.spec.seq))
    }

    /// Run one time-slice of up to `slice_steps` steps against `engine`:
    /// attach the adapter (inside the task's warm workspace), train or
    /// evaluate, extract + detach, leaving the backbone pristine. The caller
    /// owns plan-cache hygiene: invalidate the engine's cached plan before
    /// this when the previously-served tenant differs.
    pub fn run_slice(
        &mut self,
        engine: &mut FinetuneEngine,
        mode: StepMode,
        slice_steps: u64,
    ) -> SliceOutcome {
        let _slice_span = Span::enter("serve.slice")
            .cat("serve")
            .tenant(&self.spec.tenant);
        self.wait_hist.record_duration(self.ready_since.elapsed());
        let attach_span = Span::enter("serve.attach").cat("serve");
        let t_attach = Instant::now();
        // The tenant's step workspace rides along with its adapter: pooled
        // step buffers stay warm across this tenant's slices. Attaching
        // inside the scope lets the adapter's buffers recycle too.
        engine.model.swap_workspace(&mut self.workspace);
        let adapter = &self.adapter;
        engine.model.workspace_scope(|m| adapter.attach_to(m));
        let mut swap = t_attach.elapsed();
        drop(attach_span);
        let prompt_len = engine.model.embedding.prompt_len();
        let n_steps = slice_steps.min(self.remaining());
        let mut slice_busy = Duration::ZERO;
        let mut last_loss = f32::NAN;
        for _ in 0..n_steps {
            let (batch, seq) = (self.spec.batch, self.spec.seq);
            let micro_ids: Vec<Vec<u32>> = (0..self.batches_per_step())
                .map(|_| self.next_ids())
                .collect();
            let micro_targets: Vec<Vec<i32>> = micro_ids
                .iter()
                .map(|ids| prompt_aware_targets(ids, batch, seq, prompt_len))
                .collect();
            let micros: Vec<MicroBatch<'_>> = micro_ids
                .iter()
                .zip(&micro_targets)
                .map(|(ids, targets)| MicroBatch { ids, targets })
                .collect();
            let t0 = Instant::now();
            let outcome = if self.spec.eval_only {
                engine.eval_step(micros[0].ids, micros[0].targets, batch, seq, mode)
            } else {
                engine.train_step_accum(&micros, batch, seq, &mut self.opt, mode)
            };
            let step_time = t0.elapsed();
            serve_step_histogram().record_duration(step_time);
            slice_busy += step_time;
            last_loss = outcome.loss;
            self.losses.push(outcome.loss);
            self.steps_done += 1;
            if let Some(sink) = &mut self.progress {
                sink(StepEvent {
                    tenant: self.spec.tenant.clone(),
                    step: self.steps_done,
                    total_steps: self.spec.steps,
                    loss: outcome.loss,
                    attn_density: outcome.attn_density,
                    mlp_density: outcome.mlp_density,
                    step_time,
                    micro_batches: outcome.micro_batches,
                    eval: self.spec.eval_only,
                });
            }
        }
        let detach_span = Span::enter("serve.detach").cat("serve");
        let t_detach = Instant::now();
        // Extract and detach inside the tenant scope so the dropped adapter
        // params and their gradient buffers park in the tenant's pool, then
        // hand the workspace back to the task.
        let (method, seed) = (self.spec.method, self.spec.adapter_seed);
        self.adapter = engine.model.workspace_scope(|m| {
            let adapter = TenantAdapter::extract_from(m, method, seed);
            lx_peft::detach(m);
            adapter
        });
        engine.model.swap_workspace(&mut self.workspace);
        swap += t_detach.elapsed();
        drop(detach_span);
        self.busy += slice_busy;
        self.run_hist.record_duration(slice_busy);
        self.ready_since = Instant::now();
        let tokens = n_steps * (self.spec.batch * self.spec.seq * self.spec.micro_batches) as u64;
        SliceOutcome {
            steps: n_steps,
            tokens,
            busy: slice_busy,
            swap,
            last_loss,
        }
    }

    /// Consume the finished task into its completion report. Persist the
    /// adapter (via [`Self::adapter`]) *before* calling this.
    pub fn into_report(self) -> JobReport {
        JobReport {
            tenant: self.spec.tenant,
            steps: self.steps_done,
            losses: self.losses,
            busy: self.busy,
            adapter_params: self.adapter.num_params(),
        }
    }
}

fn spec_prompt_len(spec: &JobSpec) -> usize {
    match spec.method {
        lx_peft::PeftMethod::PromptTuning { prompt_len } => prompt_len,
        _ => 0,
    }
}

/// Run one *fused* eval slice over several compatible tenants: each step,
/// every task contributes one micro-batch to a single fused `Mode::Eval`
/// [`StepRequest`], and the per-shard `on_micro_batch` hook swaps that
/// tenant's adapter onto the backbone immediately before its shard's
/// forward. The de-fused per-tenant losses come from
/// [`lx_model::StepOutcome::micro_losses`] and are bit-identical to running
/// each job unfused.
///
/// All tasks must be [`TenantTask::fusable`] and share one
/// [`TenantTask::fusion_key`]; the slice runs
/// `slice_steps.min(min remaining)` steps so no job overshoots its budget.
/// Returns one [`SliceOutcome`] per task (busy time split evenly across the
/// fused group).
///
/// [`StepRequest`]: lx_model::StepRequest
pub fn run_fused_eval_slice(
    engine: &mut FinetuneEngine,
    mode: StepMode,
    tasks: &mut [&mut TenantTask],
    slice_steps: u64,
) -> Vec<SliceOutcome> {
    assert!(tasks.len() >= 2, "a fused slice needs at least two jobs");
    let key = tasks[0].fusion_key().expect("fused jobs must be fusable");
    for t in tasks.iter() {
        assert_eq!(
            t.fusion_key(),
            Some(key),
            "fused jobs must share one fusion key"
        );
    }
    let (batch, seq) = key;
    let n_steps = slice_steps.min(tasks.iter().map(|t| t.remaining()).min().unwrap_or(0));
    let k = tasks.len();
    let mut outcomes = vec![
        SliceOutcome {
            last_loss: f32::NAN,
            ..SliceOutcome::default()
        };
        k
    ];
    let _slice_span = Span::enter("serve.slice.fused").cat("serve");
    for t in tasks.iter() {
        t.wait_hist.record_duration(t.ready_since.elapsed());
    }
    for _ in 0..n_steps {
        let micro_ids: Vec<Vec<u32>> = tasks.iter_mut().map(|t| t.next_ids()).collect();
        let micro_targets: Vec<Vec<i32>> = micro_ids
            .iter()
            .map(|ids| prompt_aware_targets(ids, batch, seq, 0))
            .collect();
        let micros: Vec<MicroBatch<'_>> = micro_ids
            .iter()
            .zip(&micro_targets)
            .map(|(ids, targets)| MicroBatch { ids, targets })
            .collect();
        // A plan cached against one tenant's adapter context must not be
        // replayed into another tenant's shard; with per-shard inline
        // planning this makes the fused step predict fresh for every shard,
        // exactly like the unfused slices do after a tenant switch.
        engine.invalidate_plan_cache();
        let t0 = Instant::now();
        let outcome = {
            let adapters: Vec<&TenantAdapter> = tasks.iter().map(|t| t.adapter()).collect();
            let mut hook = |m: &mut TransformerModel, i: usize| {
                if i > 0 {
                    lx_peft::detach(m);
                }
                adapters[i].attach_to(m);
            };
            engine.eval_step_fused(&micros, batch, seq, mode, Some(&mut hook))
        };
        // The last shard's adapter is still attached; eval never mutates it,
        // so a plain detach restores the pristine backbone.
        lx_peft::detach(&mut engine.model);
        let step_time = t0.elapsed();
        serve_step_histogram().record_duration(step_time);
        registry().counter("serve.fusion.steps").inc();
        registry().counter("serve.fusion.jobs").add(k as u64);
        let share = step_time / k as u32;
        assert_eq!(outcome.micro_losses.len(), k);
        for (i, task) in tasks.iter_mut().enumerate() {
            let loss = outcome.micro_losses[i];
            task.losses.push(loss);
            task.steps_done += 1;
            outcomes[i].steps += 1;
            outcomes[i].tokens += (batch * seq) as u64;
            outcomes[i].busy += share;
            outcomes[i].last_loss = loss;
            if let Some(sink) = &mut task.progress {
                sink(StepEvent {
                    tenant: task.spec.tenant.clone(),
                    step: task.steps_done,
                    total_steps: task.spec.steps,
                    loss,
                    attn_density: outcome.attn_density,
                    mlp_density: outcome.mlp_density,
                    step_time: share,
                    micro_batches: 1,
                    eval: true,
                });
            }
        }
    }
    for (i, task) in tasks.iter_mut().enumerate() {
        task.busy += outcomes[i].busy;
        task.run_hist.record_duration(outcomes[i].busy);
        task.ready_since = Instant::now();
    }
    outcomes
}
