//! Thread-based data-parallel trainer (the Fig. 14 strong-scaling substrate).
//!
//! Each "device" is a model replica driven by its own OS thread: the global
//! batch is sharded, every replica runs forward/backward on its shard, the
//! main thread all-reduces (sums) gradients into replica 0, steps the
//! optimizer there, and broadcasts the updated trainable parameters. Long
//! Exposure adds no communication of its own, so scaling is governed by the
//! per-shard compute shrinking with worker count — exactly the paper's
//! argument for linear scaling.

use lx_model::{Optimizer, SparsePlan, StepRequest, TransformerModel};
use lx_tensor::{Tensor, Workspace, WorkspaceStats};
use std::time::{Duration, Instant};

pub struct DataParallelTrainer {
    replicas: Vec<TransformerModel>,
    /// Per-worker gradient snapshots for the all-reduce, reused across steps
    /// (the buffers are overwritten in place instead of re-cloned per step).
    gathered: Vec<Vec<Option<Tensor>>>,
    /// Broadcast snapshot of the updated trainable parameters, ditto.
    updated: Vec<Option<Tensor>>,
    /// Pool backing the grad-exchange region (gather, reduce, optimizer
    /// update, broadcast): snapshot clones triggered by shape changes and any
    /// optimizer-state tensors draw from and park into this workspace, so the
    /// exchange stays allocation-free in steady state alongside the replicas'
    /// own step workspaces.
    exchange_ws: Workspace,
}

/// Overwrite `slot` with `src` — in place when a matching buffer is already
/// there, cloning only on first use or shape change.
fn snapshot_into(slot: &mut Option<Tensor>, src: Option<&Tensor>) {
    match (slot.as_mut(), src) {
        (Some(t), Some(s)) if t.shape() == s.shape() => {
            t.as_mut_slice().copy_from_slice(s.as_slice());
        }
        (_, Some(s)) => *slot = Some(s.clone()),
        (_, None) => *slot = None,
    }
}

impl DataParallelTrainer {
    /// Build `n_workers` identical replicas with a constructor closure.
    pub fn new(n_workers: usize, build: impl Fn() -> TransformerModel) -> Self {
        assert!(n_workers >= 1);
        DataParallelTrainer {
            replicas: (0..n_workers).map(|_| build()).collect(),
            gathered: (0..n_workers - 1).map(|_| Vec::new()).collect(),
            updated: Vec::new(),
            exchange_ws: Workspace::new(),
        }
    }

    pub fn n_workers(&self) -> usize {
        self.replicas.len()
    }

    /// Access the canonical replica (index 0) for evaluation.
    pub fn primary(&mut self) -> &mut TransformerModel {
        &mut self.replicas[0]
    }

    /// Reuse counters of the grad-exchange workspace: steady-state steps hit
    /// the pool (or copy in place) instead of allocating.
    pub fn exchange_workspace_stats(&self) -> WorkspaceStats {
        self.exchange_ws.stats()
    }

    /// One synchronous data-parallel step over a global batch whose size
    /// must divide by the worker count. Returns `(mean loss, wall time)`.
    pub fn step(
        &mut self,
        ids: &[u32],
        targets: &[i32],
        batch: usize,
        seq: usize,
        plan: Option<&SparsePlan>,
        opt: &mut dyn Optimizer,
    ) -> (f32, Duration) {
        let Self {
            replicas,
            gathered,
            updated,
            exchange_ws,
        } = self;
        let n = replicas.len();
        assert_eq!(batch % n, 0, "global batch must divide by workers");
        let shard = batch / n;
        let eff = replicas[0].effective_seq(seq);
        assert_eq!(ids.len(), batch * seq);
        assert_eq!(targets.len(), batch * eff);
        let t0 = Instant::now();
        let losses: Vec<f32> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (w, replica) in replicas.iter_mut().enumerate() {
                let ids_shard = &ids[w * shard * seq..(w + 1) * shard * seq];
                let targets_shard = &targets[w * shard * eff..(w + 1) * shard * eff];
                handles.push(scope.spawn(move || {
                    // Grad mode: forward + backward, gradients stay in the
                    // replica for the all-reduce below.
                    let mut req = StepRequest::grad(ids_shard, targets_shard, shard, seq);
                    if let Some(p) = plan {
                        req = req.plan(p);
                    }
                    replica.execute(req).loss
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        // All-reduce: sum gradients into replica 0 (averaged by worker count
        // so the effective batch matches a single-device run). The snapshot
        // buffers persist across steps and are overwritten in place; any
        // clone the exchange does need (first step, shape change) draws from
        // and parks into the trainer's exchange workspace.
        let scale = 1.0 / n as f32;
        exchange_ws.scope(|| {
            for (replica, grads) in replicas[1..].iter_mut().zip(gathered.iter_mut()) {
                let mut idx = 0usize;
                replica.for_each_param(&mut |p| {
                    if grads.len() <= idx {
                        grads.push(None);
                    }
                    let src = if p.trainable { p.grad.as_ref() } else { None };
                    snapshot_into(&mut grads[idx], src);
                    idx += 1;
                });
            }
            {
                let primary = &mut replicas[0];
                let mut idx = 0usize;
                primary.for_each_param(&mut |p| {
                    if p.trainable {
                        let g = p.grad_mut();
                        g.scale(scale);
                        for other in gathered.iter() {
                            if let Some(og) = &other[idx] {
                                g.axpy(scale, og);
                            }
                        }
                    }
                    idx += 1;
                });
                opt.begin_step();
                primary.for_each_param(&mut |p| opt.update(p));
            }
            // Broadcast updated trainable params to the other replicas (same
            // reused-snapshot discipline as the gradient gather).
            {
                let mut idx = 0usize;
                replicas[0].for_each_param(&mut |p| {
                    if updated.len() <= idx {
                        updated.push(None);
                    }
                    let src = if p.trainable { Some(&p.value) } else { None };
                    snapshot_into(&mut updated[idx], src);
                    idx += 1;
                });
            }
            for replica in replicas[1..].iter_mut() {
                let mut idx = 0usize;
                replica.for_each_param(&mut |p| {
                    if let Some(v) = &updated[idx] {
                        p.value.as_mut_slice().copy_from_slice(v.as_slice());
                    }
                    idx += 1;
                });
            }
        });
        let elapsed = t0.elapsed();
        (losses.iter().sum::<f32>() / n as f32, elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lx_model::{prompt_aware_targets, ModelConfig, Sgd};
    use lx_peft::PeftMethod;

    fn build() -> TransformerModel {
        let mut m = TransformerModel::new(ModelConfig::test_tiny(), 9);
        PeftMethod::lora_default().apply(&mut m, 10);
        m
    }

    fn data(batch: usize, seq: usize) -> (Vec<u32>, Vec<i32>) {
        let ids: Vec<u32> = (0..batch * seq).map(|i| (i as u32 * 7) % 64).collect();
        let targets = prompt_aware_targets(&ids, batch, seq, 0);
        (ids, targets)
    }

    #[test]
    fn two_workers_match_single_worker_updates() {
        let (ids, targets) = data(4, 8);
        // Single worker.
        let mut single = DataParallelTrainer::new(1, build);
        let mut opt1 = Sgd::new(0.05);
        let (loss1, _) = single.step(&ids, &targets, 4, 8, None, &mut opt1);
        // Two workers, same seed / same data.
        let mut double = DataParallelTrainer::new(2, build);
        let mut opt2 = Sgd::new(0.05);
        let (loss2, _) = double.step(&ids, &targets, 4, 8, None, &mut opt2);
        assert!((loss1 - loss2).abs() < 1e-4, "losses: {loss1} vs {loss2}");
        // Parameters after the step must agree (same averaged gradient).
        let mut p1: Vec<f32> = Vec::new();
        single.primary().for_each_param(&mut |p| {
            if p.trainable {
                p1.extend_from_slice(p.value.as_slice());
            }
        });
        let mut p2: Vec<f32> = Vec::new();
        double.primary().for_each_param(&mut |p| {
            if p.trainable {
                p2.extend_from_slice(p.value.as_slice());
            }
        });
        assert_eq!(p1.len(), p2.len());
        for (a, b) in p1.iter().zip(&p2) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn replicas_stay_in_sync() {
        let (ids, targets) = data(4, 8);
        let mut trainer = DataParallelTrainer::new(2, build);
        let mut opt = Sgd::new(0.05);
        for _ in 0..3 {
            trainer.step(&ids, &targets, 4, 8, None, &mut opt);
        }
        // Trainable values in replica 1 must equal replica 0.
        let mut v0: Vec<f32> = Vec::new();
        trainer.replicas[0].for_each_param(&mut |p| {
            if p.trainable {
                v0.extend_from_slice(p.value.as_slice());
            }
        });
        let mut v1: Vec<f32> = Vec::new();
        trainer.replicas[1].for_each_param(&mut |p| {
            if p.trainable {
                v1.extend_from_slice(p.value.as_slice());
            }
        });
        assert_eq!(v0, v1);
    }

    #[test]
    fn training_reduces_loss_under_data_parallel() {
        let (ids, targets) = data(4, 8);
        let mut trainer = DataParallelTrainer::new(2, build);
        let mut opt = Sgd::new(0.05);
        let (first, _) = trainer.step(&ids, &targets, 4, 8, None, &mut opt);
        let mut last = first;
        for _ in 0..10 {
            last = trainer.step(&ids, &targets, 4, 8, None, &mut opt).0;
        }
        assert!(last < first, "{first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn batch_must_divide_by_workers() {
        let (ids, targets) = data(3, 8);
        let mut trainer = DataParallelTrainer::new(2, build);
        let mut opt = Sgd::new(0.05);
        trainer.step(&ids, &targets, 3, 8, None, &mut opt);
    }
}
