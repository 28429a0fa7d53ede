//! Model configurations: scaled-down "sim" presets that run in seconds on CPU
//! while preserving the paper models' architecture family (ReLU vs GeLU MLP,
//! multi-head attention).

/// MLP activation. OPT uses ReLU (the sparsity source for the MLP path);
/// GPT-2 uses GeLU, so only the attention optimisation applies (paper §VII-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    Relu,
    Gelu,
}

/// Architecture hyperparameters.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    pub name: String,
    pub n_layers: usize,
    pub d_model: usize,
    pub n_heads: usize,
    pub d_ff: usize,
    pub vocab_size: usize,
    pub max_seq: usize,
    pub activation: Activation,
    pub ln_eps: f32,
    /// Per-head ALiBi locality slopes. Real OPT/GPT-2 use learned positions
    /// whose *trained* attention is local + sink-focused; random-init learned
    /// positions have no such structure, so the sim models emulate it with
    /// ALiBi (a mechanism production LLMs also use); see
    /// [`TransformerModel::sharpen_attention`](crate::TransformerModel::sharpen_attention)
    /// for the other half of that emulation.
    pub alibi: bool,
}

impl ModelConfig {
    pub fn head_dim(&self) -> usize {
        self.d_model / self.n_heads
    }

    /// Total parameter count (embeddings + blocks + final LN), tied LM head.
    pub fn param_count(&self) -> usize {
        let d = self.d_model;
        let per_block = 4 * d * d + 4 * d // attention QKVO + biases
            + 2 * d * self.d_ff + self.d_ff + d // MLP weights + biases
            + 4 * d; // two LayerNorms
        self.vocab_size * d + self.max_seq * d + self.n_layers * per_block + 2 * d
    }

    fn validate(self) -> Self {
        assert!(
            self.d_model.is_multiple_of(self.n_heads),
            "d_model must divide by heads"
        );
        self
    }

    /// Tiny model for unit tests and gradient checks.
    pub fn test_tiny() -> Self {
        ModelConfig {
            name: "test-tiny".into(),
            n_layers: 2,
            d_model: 16,
            n_heads: 2,
            d_ff: 32,
            vocab_size: 64,
            max_seq: 64,
            activation: Activation::Relu,
            ln_eps: 1e-5,
            alibi: true,
        }
        .validate()
    }

    /// Small OPT-style sim model for fast experiments.
    pub fn opt_sim_small() -> Self {
        ModelConfig {
            name: "opt-sim-small".into(),
            n_layers: 2,
            d_model: 128,
            n_heads: 4,
            d_ff: 512,
            vocab_size: 1024,
            max_seq: 1024,
            activation: Activation::Relu,
            ln_eps: 1e-5,
            alibi: true,
        }
        .validate()
    }

    /// Medium OPT-style sim model (the default measured-experiment model).
    pub fn opt_sim_base() -> Self {
        ModelConfig {
            name: "opt-sim-base".into(),
            n_layers: 4,
            d_model: 256,
            n_heads: 8,
            d_ff: 1024,
            vocab_size: 1024,
            max_seq: 1024,
            activation: Activation::Relu,
            ln_eps: 1e-5,
            alibi: true,
        }
        .validate()
    }

    /// GPT-2-style sim model (GeLU: only attention sparsity applies).
    pub fn gpt2_sim() -> Self {
        ModelConfig {
            name: "gpt2-sim".into(),
            n_layers: 4,
            d_model: 256,
            n_heads: 8,
            d_ff: 1024,
            vocab_size: 1024,
            max_seq: 1024,
            activation: Activation::Gelu,
            ln_eps: 1e-5,
            alibi: true,
        }
        .validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_dim_divides() {
        let cfg = ModelConfig::opt_sim_base();
        assert_eq!(cfg.head_dim() * cfg.n_heads, cfg.d_model);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn invalid_heads_panic() {
        ModelConfig {
            name: "bad".into(),
            n_heads: 3,
            d_model: 100,
            ..ModelConfig::test_tiny()
        }
        .validate();
    }

    #[test]
    fn opt_uses_relu_gpt2_uses_gelu() {
        assert_eq!(ModelConfig::opt_sim_base().activation, Activation::Relu);
        assert_eq!(ModelConfig::gpt2_sim().activation, Activation::Gelu);
    }
}
