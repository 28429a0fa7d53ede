//! Per-batch sparse execution plans.
//!
//! The Long Exposure predictors produce, for each transformer layer, a
//! multi-head attention layout and an active-neuron-block set. The model
//! consumes the plan during `forward`; modules cache what they used so
//! `backward` replays the same pattern (the paper's §II-D requirement that
//! forward-inactive parameters stay out of the backward pass).

use lx_sparse::{MultiHeadLayout, NeuronBlockSet};
use std::sync::Arc;

/// Sparse choices for one transformer layer. A `None` field is the full
/// plan: every attention block under the causal limit, every MLP neuron —
/// the same operators over a layout or block set with nothing left out.
#[derive(Debug, Clone, Default)]
pub struct LayerPlan {
    pub attn: Option<Arc<MultiHeadLayout>>,
    pub mlp: Option<Arc<NeuronBlockSet>>,
}

/// One plan entry per layer.
#[derive(Debug, Clone, Default)]
pub struct SparsePlan {
    pub layers: Vec<LayerPlan>,
}

impl SparsePlan {
    /// A fully-dense plan for `n_layers` (useful as a mutable starting point).
    pub fn dense(n_layers: usize) -> Self {
        SparsePlan {
            layers: vec![LayerPlan::default(); n_layers],
        }
    }

    pub fn layer(&self, i: usize) -> Option<&LayerPlan> {
        self.layers.get(i)
    }

    /// Mean attention density across layers that have a layout.
    pub fn mean_attn_density(&self) -> Option<f32> {
        let ds: Vec<f32> = self
            .layers
            .iter()
            .filter_map(|l| l.attn.as_ref().map(|a| a.mean_density()))
            .collect();
        (!ds.is_empty()).then(|| ds.iter().sum::<f32>() / ds.len() as f32)
    }

    /// Mean MLP neuron-block density across layers that have a set.
    pub fn mean_mlp_density(&self) -> Option<f32> {
        let ds: Vec<f32> = self
            .layers
            .iter()
            .filter_map(|l| l.mlp.as_ref().map(|m| m.density()))
            .collect();
        (!ds.is_empty()).then(|| ds.iter().sum::<f32>() / ds.len() as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lx_sparse::{BlockCsr, BlockMask, PatternSpec};

    #[test]
    fn dense_plan_has_no_layouts() {
        let p = SparsePlan::dense(3);
        assert_eq!(p.layers.len(), 3);
        assert!(p.layer(0).unwrap().attn.is_none());
        assert!(p.mean_attn_density().is_none());
        assert!(p.mean_mlp_density().is_none());
    }

    #[test]
    fn densities_average_over_present_layers() {
        let mut p = SparsePlan::dense(2);
        let lay = Arc::new(BlockCsr::from_mask(&PatternSpec::Causal.mask(4), 8));
        p.layers[0].attn = Some(Arc::new(MultiHeadLayout::combine(vec![lay])));
        p.layers[1].mlp = Some(Arc::new(NeuronBlockSet::from_indices(vec![0], 4, 8)));
        assert!((p.mean_attn_density().unwrap() - 10.0 / 16.0).abs() < 1e-6);
        assert!((p.mean_mlp_density().unwrap() - 0.25).abs() < 1e-6);
        let _ = BlockMask::square(1); // silence unused import on some cfgs
    }
}
