//! LoRA weight merging: fold `ΔW = (α/r)·ÃBᵀ` into the backbone weight so
//! inference after fine-tuning pays zero adapter overhead. Every site —
//! `Linear`, MLP FC1 and FC2 — folds through the same
//! [`Lora::fold_into`]: one GEMM accumulating into the weight in its stored
//! orientation.

use lx_model::linear::{Linear, Lora};
use lx_model::{Param, TransformerModel};
use lx_tensor::gemm::Layout;

/// Fold `lora` into `weight` (stored `w_layout` relative to `x·W`) with the
/// pair's one GEMM-based [`Lora::fold_into`].
///
/// A reduced-stored weight (f16 or block-quantized) is promoted to f32
/// first: merging writes into the weight buffer, and folding a delta into
/// rounded storage would lose exactly the adaptation being merged. Re-apply
/// a precision plan afterwards if the merged model should ship reduced.
fn merge_into(weight: &mut Param, lora: Option<Lora>, w_layout: Layout) {
    let Some(lora) = lora else {
        return;
    };
    weight.to_f32();
    lora.fold_into(&mut weight.value, w_layout);
}

/// Fold a Linear's LoRA pair into its weight (`[d_in, d_out]`) and detach it.
pub fn merge_linear(linear: &mut Linear) {
    merge_into(&mut linear.weight, linear.lora.take(), Layout::Normal);
}

/// Merge every LoRA in the model: the attention linears, neuron-major FC1
/// (`[d_ff, d]`, the transpose of `x·W`) and row-major FC2 (`[d_ff, d]`).
pub fn merge_all(model: &mut TransformerModel) {
    for block in &mut model.blocks {
        merge_linear(&mut block.attn.wq);
        merge_linear(&mut block.attn.wk);
        merge_linear(&mut block.attn.wv);
        merge_linear(&mut block.attn.wo);
        let mlp = &mut block.mlp;
        merge_into(&mut mlp.w1, mlp.lora1.take(), Layout::Transposed);
        merge_into(&mut mlp.w2, mlp.lora2.take(), Layout::Normal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LoraTargets, PeftMethod};
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
        let y_adapter = lin.project(&x);
        merge_linear(&mut lin);
        assert!(lin.lora.is_none());
        let y_merged = lin.project(&x);
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
            assert!(!block.mlp.w1.is_reduced());
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
