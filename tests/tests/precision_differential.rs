//! Mixed-precision differential tests: the reduced storage plans
//! (`F16Frozen`, `Nf4Frozen`) must (a) actually shrink
//! measured backbone storage to their documented ratios, (b) leave the
//! sparse execution path numerically identical to an f32 model holding the
//! same (rounded) weights, (c) keep training dynamics within a documented
//! envelope of the f32 run, and (d) compose with the tenant-adapter
//! attach/extract/merge lifecycle.
//!
//! Documented tolerances (also stated in the README): over 24 LoRA training
//! steps on identical data, the per-step loss stays within **0.05 absolute**
//! of the f32 run for f16 storage and **0.25** for NF4-block. The backbone
//! rounding perturbs the function once; it does not compound, because the
//! stored bits never change and all accumulation is f32 — coarser codecs
//! just start further from the f32 function.

use lx_kernels::half::round_f16;
use lx_model::{
    prompt_aware_targets, Adam, LossScaler, ModelConfig, Precision, StepRequest, TransformerModel,
};
use lx_peft::{PeftMethod, TenantAdapter};
use lx_sparse::NeuronBlockSet;
use lx_tensor::memtrack;
use std::sync::Arc;

fn batch(model: &TransformerModel, n: usize, seq: usize, seed: u64) -> Vec<u32> {
    lx_tensor::rng::uniform_vec(n * seq, 0.0, model.config.vocab_size as f32, seed)
        .into_iter()
        .map(|v| v as u32)
        .collect()
}

/// Tensor bytes this thread has allocated and still holds since `before`
/// (a [`memtrack::thread_live_bytes`] reading). Thread-scoped, so sibling
/// tests allocating concurrently cannot perturb the exact-delta assertions.
fn live_bytes_since(before: isize) -> usize {
    usize::try_from(memtrack::thread_live_bytes() - before).expect("net allocation")
}

#[test]
fn measured_backbone_footprint_is_at_most_055x() {
    let build = |precision: Precision| {
        let before = memtrack::thread_live_bytes();
        let mut model = TransformerModel::new(ModelConfig::opt_sim_small(), 42);
        model.freeze_all();
        model.set_precision(precision);
        (model, live_bytes_since(before))
    };
    let (_m32, f32_bytes) = build(Precision::F32);
    let (mut m16, f16_bytes) = build(Precision::F16Frozen);
    let ratio = f16_bytes as f64 / f32_bytes as f64;
    assert!(
        ratio <= 0.55,
        "measured f16 backbone must be ≤0.55x of f32: {ratio} ({f16_bytes} vs {f32_bytes})"
    );
    // The dtype-accounted sum agrees with the allocator-tracked delta.
    assert_eq!(m16.param_storage_bytes(), f16_bytes);
}

#[test]
fn f16_storage_loss_curve_tracks_f32_within_documented_tolerance() {
    const TOLERANCE: f32 = 0.05; // documented: max per-step |Δloss|
    const STEPS: usize = 24; // ≥ 20 per the acceptance criterion
    let run = |precision: Precision| -> Vec<f32> {
        let mut model = TransformerModel::new(ModelConfig::test_tiny(), 7);
        model.freeze_all();
        model.set_precision(precision);
        PeftMethod::lora_default().apply(&mut model, 9);
        let mut opt = Adam::new(0.01);
        let mut losses = Vec::with_capacity(STEPS);
        for step in 0..STEPS {
            // Three fixed batches cycled, identical across both runs.
            let ids = batch(&model, 2, 8, 100 + (step % 3) as u64);
            let targets = prompt_aware_targets(&ids, 2, 8, 0);
            losses.push(
                model
                    .execute(StepRequest::train(&ids, &targets, 2, 8, &mut opt))
                    .loss,
            );
        }
        losses
    };
    let f32_curve = run(Precision::F32);
    let f16_curve = run(Precision::F16Frozen);
    let mut max_diff = 0.0f32;
    for (step, (a, b)) in f16_curve.iter().zip(&f32_curve).enumerate() {
        let d = (a - b).abs();
        assert!(
            d <= TOLERANCE,
            "step {step}: f16 loss {a} vs f32 loss {b} (|Δ| = {d} > {TOLERANCE})"
        );
        max_diff = max_diff.max(d);
    }
    // Both runs must actually train.
    assert!(f32_curve.last().unwrap() < f32_curve.first().unwrap());
    assert!(f16_curve.last().unwrap() < f16_curve.first().unwrap());
    println!("max per-step loss divergence over {STEPS} steps: {max_diff}");
}

/// The sparse MLP path under f16 storage decodes only the active slabs; the
/// result must equal an f32 model whose weights were pre-rounded through f16
/// — same function, different storage — on both forward and backward.
#[test]
fn sparse_path_on_f16_storage_matches_rounded_f32_model() {
    let cfg = ModelConfig::test_tiny();
    let mut half = TransformerModel::new(cfg.clone(), 13);
    let mut rounded = TransformerModel::new(cfg, 13); // same seed, same weights
    half.freeze_all();
    rounded.freeze_all();
    // Round every ≥2-D frozen param of `rounded` through f16 in place,
    // mirroring exactly what the storage demotion does to `half`.
    rounded.for_each_param(&mut |p| {
        if !p.trainable && p.shape().len() >= 2 {
            for v in p.value.as_mut_slice() {
                *v = round_f16(*v);
            }
        }
    });
    half.set_precision(Precision::F16Frozen);
    PeftMethod::lora_default().apply(&mut half, 21);
    PeftMethod::lora_default().apply(&mut rounded, 21);

    // A partial neuron-block plan on every layer forces the slab-decode
    // path (block 4 over d_ff = 32 → keep half the blocks).
    let mut plan = lx_model::SparsePlan::dense(half.config.n_layers);
    for layer in plan.layers.iter_mut() {
        layer.mlp = Some(Arc::new(NeuronBlockSet::from_indices(
            vec![0, 2, 5, 7],
            8,
            4,
        )));
    }
    let ids = batch(&half, 2, 8, 31);
    // Grad mode runs forward + cross-entropy backward in one request, so
    // both the decoded-slab forward and the §II-D sparse backward (which
    // reads the same decoded slabs) are compared.
    let targets = prompt_aware_targets(&ids, 2, 8, 0);
    let out_a = half.execute(
        StepRequest::grad(&ids, &targets, 2, 8)
            .plan(&plan)
            .keep_logits(),
    );
    let out_b = rounded.execute(
        StepRequest::grad(&ids, &targets, 2, 8)
            .plan(&plan)
            .keep_logits(),
    );
    let (ya, yb) = (out_a.logits.unwrap(), out_b.logits.unwrap());
    for (a, b) in ya.as_slice().iter().zip(yb.as_slice()) {
        assert!(
            (a - b).abs() <= 1e-4 * (1.0 + b.abs()),
            "sparse forward diverged: {a} vs {b}"
        );
    }
    let mut grads_a = Vec::new();
    half.for_each_param(&mut |p| {
        if let Some(g) = &p.grad {
            grads_a.push((p.name.clone(), g.as_slice().to_vec()));
        }
    });
    let mut checked = 0;
    rounded.for_each_param(&mut |p| {
        if let Some(g) = &p.grad {
            let (name, ga) = grads_a
                .iter()
                .find(|(n, _)| n == &p.name)
                .expect("grad present in both");
            for (x, y) in ga.iter().zip(g.as_slice()) {
                assert!(
                    (x - y).abs() <= 1e-3 * (1.0 + y.abs()),
                    "{name}: grad diverged: {x} vs {y}"
                );
            }
            checked += 1;
        }
    });
    assert!(checked > 0, "no gradients compared");
}

#[test]
fn measured_backbone_footprint_hits_quantized_gates() {
    let build = |precision: Precision| {
        let before = memtrack::thread_live_bytes();
        let mut model = TransformerModel::new(ModelConfig::opt_sim_small(), 42);
        model.freeze_all();
        model.set_precision(precision);
        let measured = live_bytes_since(before);
        // The dtype-accounted sum agrees with the allocator-tracked delta.
        assert_eq!(model.param_storage_bytes(), measured, "{precision}");
        (model, measured)
    };
    let (_m32, f32_bytes) = build(Precision::F32);
    let (precision, gate) = (Precision::Nf4Frozen, 0.17);
    let (_m, bytes) = build(precision);
    let ratio = bytes as f64 / f32_bytes as f64;
    assert!(
        ratio <= gate,
        "measured {precision} backbone must be ≤{gate}x of f32: {ratio} \
         ({bytes} vs {f32_bytes})"
    );
}

#[test]
fn quantized_storage_loss_curves_track_f32_within_envelope() {
    // Same shape as the f16 test, but the quantized arms train with dynamic
    // loss scaling (the QLoRA recipe this reproduces pairs a rounded
    // backbone with scaled adapter gradients). Coarser codecs sit further
    // from the f32 function, so their envelopes are wider — the property
    // under test is that the gap does not *compound* over steps.
    const STEPS: usize = 24;
    let run = |precision: Precision, scaled: bool| -> Vec<f32> {
        let mut model = TransformerModel::new(ModelConfig::test_tiny(), 7);
        model.freeze_all();
        model.set_precision(precision);
        PeftMethod::lora_default().apply(&mut model, 9);
        let mut opt = Adam::new(0.01);
        let mut scaler = LossScaler::default();
        let mut losses = Vec::with_capacity(STEPS);
        for step in 0..STEPS {
            let ids = batch(&model, 2, 8, 100 + (step % 3) as u64);
            let targets = prompt_aware_targets(&ids, 2, 8, 0);
            let req = StepRequest::train(&ids, &targets, 2, 8, &mut opt);
            let req = if scaled {
                req.loss_scale(&mut scaler)
            } else {
                req
            };
            let out = model.execute(req);
            assert!(!out.skipped, "{precision} step {step}: unexpected overflow");
            losses.push(out.loss);
        }
        assert_eq!(scaler.overflows(), 0, "{precision}");
        losses
    };
    let f32_curve = run(Precision::F32, false);
    let (precision, tolerance) = (Precision::Nf4Frozen, 0.25f32);
    let curve = run(precision, true);
    let mut max_diff = 0.0f32;
    for (step, (a, b)) in curve.iter().zip(&f32_curve).enumerate() {
        let d = (a - b).abs();
        assert!(
            d <= tolerance,
            "step {step}: {precision} loss {a} vs f32 loss {b} (|Δ| = {d} > {tolerance})"
        );
        max_diff = max_diff.max(d);
    }
    // The quantized run must actually train.
    assert!(
        curve.last().unwrap() < curve.first().unwrap(),
        "{precision}"
    );
    println!("{precision}: max per-step loss divergence over {STEPS} steps: {max_diff}");
}

/// The quantized twin of the f16 sparse-path test, with a stronger claim:
/// because the slab decode is strictly elementwise over flat indices, the
/// quantized model's sparse execution must be **bit-identical** to an f32
/// model whose weights were pre-rounded through the codec up front — on
/// logits and on every gradient.
#[test]
fn sparse_path_on_quantized_storage_matches_rounded_f32_model_exactly() {
    let precision = Precision::Nf4Frozen;
    let cfg = ModelConfig::test_tiny();
    let mut quant = TransformerModel::new(cfg.clone(), 13);
    let mut rounded = TransformerModel::new(cfg, 13); // same seed, same weights
    quant.freeze_all();
    rounded.freeze_all();
    // Round every ≥2-D frozen param of `rounded` through the codec in
    // place, mirroring exactly what the storage demotion does to `quant`.
    rounded.for_each_param(&mut |p| {
        if !p.trainable && p.shape().len() >= 2 {
            lx_quant::nf4::round_slice(p.value.as_mut_slice());
        }
    });
    quant.set_precision(precision);
    PeftMethod::lora_default().apply(&mut quant, 21);
    PeftMethod::lora_default().apply(&mut rounded, 21);

    let mut plan = lx_model::SparsePlan::dense(quant.config.n_layers);
    for layer in plan.layers.iter_mut() {
        layer.mlp = Some(Arc::new(NeuronBlockSet::from_indices(
            vec![0, 2, 5, 7],
            8,
            4,
        )));
    }
    let ids = batch(&quant, 2, 8, 31);
    let targets = prompt_aware_targets(&ids, 2, 8, 0);
    let out_a = quant.execute(
        StepRequest::grad(&ids, &targets, 2, 8)
            .plan(&plan)
            .keep_logits(),
    );
    let out_b = rounded.execute(
        StepRequest::grad(&ids, &targets, 2, 8)
            .plan(&plan)
            .keep_logits(),
    );
    let (ya, yb) = (out_a.logits.unwrap(), out_b.logits.unwrap());
    for (i, (a, b)) in ya.as_slice().iter().zip(yb.as_slice()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{precision} logit {i}: {a} vs {b}"
        );
    }
    let mut grads_a = Vec::new();
    quant.for_each_param(&mut |p| {
        if let Some(g) = &p.grad {
            grads_a.push((p.name.clone(), g.as_slice().to_vec()));
        }
    });
    let mut checked = 0;
    rounded.for_each_param(&mut |p| {
        if let Some(g) = &p.grad {
            let (name, ga) = grads_a
                .iter()
                .find(|(n, _)| n == &p.name)
                .expect("grad present in both");
            for (x, y) in ga.iter().zip(g.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{precision} {name}: {x} vs {y}");
            }
            checked += 1;
        }
    });
    assert!(checked > 0, "no gradients compared");
}

#[test]
fn tenant_adapter_lifecycle_works_on_quantized_backbone() {
    let precision = Precision::Nf4Frozen;
    let mut m = TransformerModel::new(ModelConfig::test_tiny(), 29);
    m.freeze_all();
    m.set_precision(precision);
    let adapter = TenantAdapter::initialise(&mut m, PeftMethod::lora_default(), 3);
    assert_eq!(m.num_trainable(), 0);
    assert_eq!(m.precision(), precision, "detach keeps precision");
    adapter.attach_to(&mut m);
    let ids = batch(&m, 1, 8, 47);
    let before = m.execute(StepRequest::infer(&ids, 1, 8)).logits.unwrap();
    let extracted = TenantAdapter::extract_from(&mut m, PeftMethod::lora_default(), 3);
    lx_peft::detach(&mut m);
    extracted.attach_to(&mut m);
    let after = m.execute(StepRequest::infer(&ids, 1, 8)).logits.unwrap();
    assert_eq!(
        before.as_slice(),
        after.as_slice(),
        "{precision}: attach/extract on a quantized backbone must restore the function"
    );
    // Merging folds the adapter into (promoted) f32 weights; the merged
    // model must compute the same function the adapted one did.
    lx_peft::merge::merge_all(&mut m);
    let merged = m.execute(StepRequest::infer(&ids, 1, 8)).logits.unwrap();
    for (a, b) in merged.as_slice().iter().zip(after.as_slice()) {
        assert!(
            (a - b).abs() <= 1e-3 * (1.0 + b.abs()),
            "{precision}: merge changed the function: {a} vs {b}"
        );
    }
}

#[test]
fn tenant_adapter_lifecycle_works_on_f16_backbone() {
    let mut m = TransformerModel::new(ModelConfig::test_tiny(), 17);
    m.freeze_all();
    m.set_precision(Precision::F16Frozen);
    let adapter = TenantAdapter::initialise(&mut m, PeftMethod::lora_default(), 3);
    assert_eq!(m.num_trainable(), 0);
    assert_eq!(
        m.precision(),
        Precision::F16Frozen,
        "detach keeps precision"
    );
    adapter.attach_to(&mut m);
    let ids = batch(&m, 1, 8, 41);
    let before = m.execute(StepRequest::infer(&ids, 1, 8)).logits.unwrap();
    let extracted = TenantAdapter::extract_from(&mut m, PeftMethod::lora_default(), 3);
    lx_peft::detach(&mut m);
    extracted.attach_to(&mut m);
    let after = m.execute(StepRequest::infer(&ids, 1, 8)).logits.unwrap();
    assert_eq!(
        before.as_slice(),
        after.as_slice(),
        "attach/extract on a half backbone must restore the exact function"
    );
}
