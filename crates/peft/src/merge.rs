//! LoRA weight merging: fold `ΔW = (α/r)·ÃBᵀ` into the backbone weight so
//! inference after fine-tuning pays zero adapter overhead. Every site — the
//! attention projections, MLP FC1 and FC2 — is a [`Linear`] and folds
//! through [`Lora::fold_into`](lx_model::linear::Lora::fold_into): one GEMM
//! accumulating into the weight in the orientation the linear stores it.

use lx_model::linear::Linear;
use lx_model::TransformerModel;

/// Fold a Linear's LoRA pair into its weight and detach it.
///
/// A reduced-stored weight (f16 or block-quantized) is promoted to f32
/// first: merging writes into the weight buffer, and folding a delta into
/// rounded storage would lose exactly the adaptation being merged. Re-apply
/// a precision plan afterwards if the merged model should ship reduced.
pub fn merge_linear(linear: &mut Linear) {
    let Some(lora) = linear.lora.take() else {
        return;
    };
    let layout = linear.weight_layout();
    linear.weight.to_f32();
    lora.fold_into(&mut linear.weight.value, layout);
}

/// Merge every LoRA in the model: the four attention projections, FC1 and
/// FC2 of every block.
pub fn merge_all(model: &mut TransformerModel) {
    for block in &mut model.blocks {
        block.linears().into_iter().for_each(merge_linear);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LoraTargets, PeftMethod};
    use lx_model::linear::{NeuronBlockSet, Side};
    use lx_model::{ModelConfig, StepRequest};
    use lx_tensor::Tensor;

    #[test]
    fn merged_linear_matches_adapter_forward() {
        let mut lin = Linear::new("l", 6, 6, true, 1);
        lin.attach_lora(2, 4.0, 2);
        // Randomise both LoRA halves.
        {
            let l = lin.lora.as_mut().unwrap();
            let av = lx_tensor::rng::randn_vec(l.a.value.len(), 0.5, 3);
            l.a.value.as_mut_slice().copy_from_slice(&av);
            let bv = lx_tensor::rng::randn_vec(l.b.value.len(), 0.5, 4);
            l.b.value.as_mut_slice().copy_from_slice(&bv);
        }
        let x = Tensor::randn(&[4, 6], 1.0, 5);
        let tokens = NeuronBlockSet::all(1, 6);
        let t = Side::panels(&tokens);
        let y_adapter = lin.project(&x, t, t);
        merge_linear(&mut lin);
        assert!(lin.lora.is_none());
        let y_merged = lin.project(&x, t, t);
        for (a, b) in y_adapter.as_slice().iter().zip(y_merged.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn merge_all_preserves_model_function() {
        let mut m = TransformerModel::new(ModelConfig::test_tiny(), 9);
        PeftMethod::Lora {
            rank: 2,
            alpha: 4.0,
            targets: LoraTargets::all(),
        }
        .apply(&mut m, 10);
        // Randomise the LoRA B halves so the adapters actually do something.
        m.for_each_param(&mut |p| {
            if p.name.contains("lora_b") {
                let v = lx_tensor::rng::randn_vec(p.value.len(), 0.3, 11);
                p.value.as_mut_slice().copy_from_slice(&v);
            }
        });
        let ids: Vec<u32> = (0..8u32).collect();
        let before = m.execute(StepRequest::infer(&ids, 1, 8)).logits.unwrap();
        merge_all(&mut m);
        let after = m.execute(StepRequest::infer(&ids, 1, 8)).logits.unwrap();
        for (a, b) in before.as_slice().iter().zip(after.as_slice()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        // No LoRA params remain.
        let mut lora_left = 0;
        m.for_each_param(&mut |p| {
            if p.name.contains("lora") {
                lora_left += 1;
            }
        });
        assert_eq!(lora_left, 0);
    }

    #[test]
    fn merge_on_quantized_backbone_promotes_and_preserves_function() {
        // QLoRA-style lifecycle: quantized frozen backbone + f32 adapters,
        // then merge. The merge must promote the touched weights to f32 (the
        // delta cannot be folded into 4-bit codes) and keep the function.
        let mut m = TransformerModel::new(ModelConfig::test_tiny(), 12);
        PeftMethod::Lora {
            rank: 2,
            alpha: 4.0,
            targets: LoraTargets::all(),
        }
        .apply(&mut m, 13);
        m.set_precision(lx_model::Precision::Nf4Frozen);
        m.for_each_param(&mut |p| {
            if p.name.contains("lora_b") {
                let v = lx_tensor::rng::randn_vec(p.value.len(), 0.3, 14);
                p.value.as_mut_slice().copy_from_slice(&v);
            }
        });
        let ids: Vec<u32> = (0..8u32).collect();
        let before = m.execute(StepRequest::infer(&ids, 1, 8)).logits.unwrap();
        merge_all(&mut m);
        let after = m.execute(StepRequest::infer(&ids, 1, 8)).logits.unwrap();
        for (a, b) in before.as_slice().iter().zip(after.as_slice()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        // Merged weights are f32 again; untouched ones (embedding) keep
        // their quantized storage.
        for block in &m.blocks {
            assert!(!block.attn.wq.weight.is_reduced());
            assert!(!block.mlp.fc1.weight.is_reduced());
        }
    }

    #[test]
    fn merge_without_lora_is_noop() {
        let mut lin = Linear::new("l", 4, 4, false, 6);
        let w_before = lin.weight.value.clone();
        merge_linear(&mut lin);
        assert_eq!(lin.weight.value, w_before);
    }
}
