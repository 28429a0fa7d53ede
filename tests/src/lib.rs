//! Shared fixtures for the cross-crate integration tests (in `tests/`).

use lx_model::{ModelConfig, TransformerModel};

/// A tiny block-aligned config used across integration tests.
pub fn tiny_cfg() -> ModelConfig {
    ModelConfig::test_tiny()
}

/// Tiny model with emulated pre-trained structure (see
/// [`TransformerModel::induce_activation_sparsity`] and
/// [`TransformerModel::sharpen_attention`]).
pub fn tiny_model(seed: u64) -> TransformerModel {
    let mut m = TransformerModel::new(tiny_cfg(), seed);
    m.induce_activation_sparsity(0.9, 0.3, 4, seed + 1);
    m.sharpen_attention(2.0);
    m
}

/// Deterministic token batch.
pub fn batch_ids(batch: usize, seq: usize, vocab: usize, seed: u64) -> Vec<u32> {
    lx_tensor::rng::uniform_vec(batch * seq, 0.0, vocab as f32, seed)
        .into_iter()
        .map(|v| v as u32)
        .collect()
}
