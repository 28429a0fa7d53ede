//! Parameter-efficient fine-tuning methods (paper §II-A, Table I).
//!
//! Each method is a *policy* applied to a [`TransformerModel`]: freeze the
//! backbone, then either inject small trainable modules (LoRA low-rank pairs,
//! bottleneck adapters, a prompt prefix) or selectively unfreeze existing
//! parameters (BitFit's biases). All methods compose with the Long Exposure
//! sparse execution paths, because trainability is a property of parameters
//! while sparsity is a property of the execution plan.

pub mod adapter;
pub mod merge;

pub use adapter::{detach, NamedTensor, TenantAdapter};

use lx_model::TransformerModel;

/// Which linears LoRA attaches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoraTargets {
    pub q: bool,
    pub k: bool,
    pub v: bool,
    pub o: bool,
    pub mlp_fc1: bool,
    pub mlp_fc2: bool,
}

impl LoraTargets {
    /// The standard Hu et al. target set: query and value projections.
    pub fn qv() -> Self {
        LoraTargets {
            q: true,
            k: false,
            v: true,
            o: false,
            mlp_fc1: false,
            mlp_fc2: false,
        }
    }

    /// Everything — the configuration the paper's Fig. 2 MLP example implies.
    pub fn all() -> Self {
        LoraTargets {
            q: true,
            k: true,
            v: true,
            o: true,
            mlp_fc1: true,
            mlp_fc2: true,
        }
    }
}

/// A PEFT method with its hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PeftMethod {
    /// Full fine-tuning: everything trainable (the Table I baseline).
    Full,
    /// LoRA low-rank adaptation.
    Lora {
        rank: usize,
        alpha: f32,
        targets: LoraTargets,
    },
    /// Houlsby-style bottleneck adapters after both sub-layers.
    Adapter { bottleneck: usize },
    /// BitFit: train only bias-like parameters.
    BitFit,
    /// Prompt tuning (the paper's "P-Tuning" row): trainable virtual tokens.
    PromptTuning { prompt_len: usize },
}

impl PeftMethod {
    /// Default hyperparameters matching common practice.
    pub fn lora_default() -> Self {
        PeftMethod::Lora {
            rank: 8,
            alpha: 16.0,
            targets: LoraTargets::qv(),
        }
    }

    pub fn adapter_default() -> Self {
        PeftMethod::Adapter { bottleneck: 16 }
    }

    pub fn name(&self) -> &'static str {
        match self {
            PeftMethod::Full => "full",
            PeftMethod::Lora { .. } => "lora",
            PeftMethod::Adapter { .. } => "adapter",
            PeftMethod::BitFit => "bitfit",
            PeftMethod::PromptTuning { .. } => "prompt-tuning",
        }
    }

    /// Apply the method to a model: sets trainability and injects modules.
    pub fn apply(&self, model: &mut TransformerModel, seed: u64) {
        match *self {
            PeftMethod::Full => {
                // Trainable state must be f32: the optimizer updates value
                // buffers in place and keeps f32 moments.
                assert_eq!(
                    model.precision(),
                    lx_model::Precision::F32,
                    "full fine-tuning requires f32 parameter storage; \
                     call set_precision(Precision::F32) first"
                );
                model.for_each_param(&mut |p| p.trainable = true);
            }
            PeftMethod::Lora {
                rank,
                alpha,
                targets,
            } => {
                model.freeze_all();
                for (i, block) in model.blocks.iter_mut().enumerate() {
                    let s = seed + 37 * i as u64;
                    if targets.q {
                        block.attn.wq.attach_lora(rank, alpha, s);
                    }
                    if targets.k {
                        block.attn.wk.attach_lora(rank, alpha, s + 1);
                    }
                    if targets.v {
                        block.attn.wv.attach_lora(rank, alpha, s + 2);
                    }
                    if targets.o {
                        block.attn.wo.attach_lora(rank, alpha, s + 3);
                    }
                    if targets.mlp_fc1 {
                        block.mlp.attach_lora_fc1(rank, alpha, s + 4);
                    }
                    if targets.mlp_fc2 {
                        block.mlp.attach_lora_fc2(rank, alpha, s + 5);
                    }
                }
            }
            PeftMethod::Adapter { bottleneck } => {
                model.freeze_all();
                let d = model.config.d_model;
                for (i, block) in model.blocks.iter_mut().enumerate() {
                    block.attach_adapters(d, bottleneck, seed + 53 * i as u64, i);
                }
            }
            PeftMethod::BitFit => {
                model.freeze_all();
                model.for_each_param(&mut |p| {
                    if is_bias_like(&p.name) {
                        p.trainable = true;
                    }
                });
            }
            PeftMethod::PromptTuning { prompt_len } => {
                model.freeze_all();
                model.embedding.attach_prompt(prompt_len, seed);
            }
        }
    }
}

/// BitFit's definition of "bias": additive per-channel parameters.
fn is_bias_like(name: &str) -> bool {
    name.ends_with(".bias")
        || name.ends_with(".b1")
        || name.ends_with(".b2")
        || name.ends_with(".beta")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lx_model::{prompt_aware_targets, ModelConfig, Sgd, StepRequest};

    fn model() -> TransformerModel {
        TransformerModel::new(ModelConfig::test_tiny(), 7)
    }

    /// Names of the trainable parameters.
    fn trainable_names(m: &mut TransformerModel) -> Vec<String> {
        let mut out = Vec::new();
        m.for_each_param(&mut |p| {
            if p.trainable {
                out.push(p.name.clone());
            }
        });
        out
    }

    fn train_batch(m: &mut TransformerModel, method: &PeftMethod, steps: usize) -> (f32, f32) {
        let seq = 8;
        let ids: Vec<u32> = (0..16u32).map(|i| (i * 3) % 64).collect();
        let prompt_len = m.embedding.prompt_len();
        let targets = prompt_aware_targets(&ids, 2, seq, prompt_len);
        let mut opt = Sgd::new(0.05);
        let first = m
            .execute(StepRequest::train(&ids, &targets, 2, seq, &mut opt))
            .loss;
        let mut last = first;
        for _ in 0..steps {
            last = m
                .execute(StepRequest::train(&ids, &targets, 2, seq, &mut opt))
                .loss;
        }
        let _ = method;
        (first, last)
    }

    #[test]
    fn lora_trainable_fraction_is_tiny() {
        let mut m = model();
        PeftMethod::lora_default().apply(&mut m, 1);
        let frac = m.num_trainable() as f64 / m.num_params() as f64;
        assert!(
            frac < 0.30,
            "LoRA should train a small fraction, got {frac}"
        );
        assert!(m.num_trainable() > 0);
        // Only LoRA params are trainable.
        let names = trainable_names(&mut m);
        assert!(names.iter().all(|n| n.contains("lora")), "{names:?}");
    }

    #[test]
    fn each_method_reduces_loss_on_overfit_batch() {
        for method in [
            PeftMethod::Full,
            PeftMethod::lora_default(),
            PeftMethod::adapter_default(),
            PeftMethod::BitFit,
            PeftMethod::PromptTuning { prompt_len: 4 },
        ] {
            let mut m = model();
            method.apply(&mut m, 3);
            let (first, last) = train_batch(&mut m, &method, 25);
            assert!(
                last < first,
                "{}: loss must drop ({first} -> {last})",
                method.name()
            );
        }
    }

    #[test]
    fn bitfit_trains_only_biases() {
        let mut m = model();
        PeftMethod::BitFit.apply(&mut m, 1);
        let names = trainable_names(&mut m);
        assert!(!names.is_empty());
        for name in &names {
            assert!(is_bias_like(name), "non-bias trainable: {name}");
        }
        // Weights must stay frozen.
        let mut any_weight_trainable = false;
        m.for_each_param(&mut |p| {
            if p.name.ends_with(".weight") && p.trainable {
                any_weight_trainable = true;
            }
        });
        assert!(!any_weight_trainable);
    }

    #[test]
    fn adapter_injects_trainable_modules() {
        let mut m = model();
        let before = m.num_params();
        PeftMethod::adapter_default().apply(&mut m, 2);
        let after = m.num_params();
        assert!(after > before, "adapters add parameters");
        assert_eq!(m.num_trainable(), after - before);
    }

    #[test]
    fn prompt_tuning_extends_sequence() {
        let mut m = model();
        PeftMethod::PromptTuning { prompt_len: 4 }.apply(&mut m, 3);
        assert_eq!(m.effective_seq(8), 12);
        assert_eq!(m.num_trainable(), 4 * m.config.d_model);
    }

    #[test]
    fn lora_all_targets_cover_mlp() {
        let mut m = model();
        PeftMethod::Lora {
            rank: 2,
            alpha: 4.0,
            targets: LoraTargets::all(),
        }
        .apply(&mut m, 4);
        let names = trainable_names(&mut m);
        assert!(names.iter().any(|n| n.contains("w1.lora")));
        assert!(names.iter().any(|n| n.contains("w2.lora")));
        assert!(names.iter().any(|n| n.contains("wo.lora")));
    }

    #[test]
    fn full_ft_trains_everything() {
        let mut m = model();
        PeftMethod::Full.apply(&mut m, 5);
        assert_eq!(m.num_trainable(), m.num_params());
    }

    #[test]
    fn method_names_are_stable() {
        assert_eq!(PeftMethod::Full.name(), "full");
        assert_eq!(PeftMethod::lora_default().name(), "lora");
        assert_eq!(PeftMethod::adapter_default().name(), "adapter");
        assert_eq!(PeftMethod::BitFit.name(), "bitfit");
        assert_eq!(
            PeftMethod::PromptTuning { prompt_len: 1 }.name(),
            "prompt-tuning"
        );
    }
}
