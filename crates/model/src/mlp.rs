//! MLP block with dense and neuron-block-sparse paths.
//!
//! Weight storage follows the paper's memory-coalescing layout (§VI-B):
//! FC1 is kept *neuron-major* (`w1[d_ff, d]`, i.e. column-major relative to
//! the conventional `d × d_ff` matrix) and FC2 row-major (`w2[d_ff, d]`), so
//! an active neuron block is a contiguous slab in **both** matrices and no
//! format conversion ever happens at runtime.
//!
//! LoRA can attach to both linears, as the same [`Lora`] pair `Linear` uses:
//! FC1's `A` is `[r, d]` and its `B` neuron-major `[d_ff, r]`; FC2's `A` is
//! neuron-major `[d_ff, r]` and its `B` `[d, r]`. In the sparse path the
//! neuron-major factor runs on the same grouped neuron kernels as the
//! backbone slabs (with `d = r`), so only active-block rows participate —
//! the paper's §II-D result that forward-inactive parameters receive no
//! gradient.

use crate::config::Activation;
use crate::linear::Lora;
use crate::param::Param;
use lx_obs::{registry, Counter};
use lx_sparse::neuron::{
    active_cols, fc1_backward_input, fc1_forward, fc1_grad_bias, fc1_grad_weights, fc2_forward,
    fc2_grad_weights,
};
use lx_sparse::NeuronBlockSet;
use lx_tensor::gemm::{matmul_tn, Epilogue, Layout};
use lx_tensor::ops::{bias_grad_rows, gelu_backward, gelu_inplace, relu, relu_backward};
use lx_tensor::Tensor;
use std::sync::{Arc, OnceLock};

/// Process-wide mirrors of the per-layer slab-cache counters (see
/// [`MlpLayer::slab_cache_stats`] for the per-layer source of truth).
struct SlabCounters {
    decoded: Arc<Counter>,
    carried: Arc<Counter>,
}

fn slab_counters() -> &'static SlabCounters {
    static COUNTERS: OnceLock<SlabCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| SlabCounters {
        decoded: registry().counter("mlp.slab.decoded"),
        carried: registry().counter("mlp.slab.carried"),
    })
}

#[derive(Debug)]
pub struct MlpBlock {
    /// FC1, neuron-major `[d_ff, d]`: row `n` = input weights of neuron `n`.
    pub w1: Param,
    pub b1: Param,
    /// FC2, row-major `[d_ff, d]`: row `n` = output weights of neuron `n`.
    pub w2: Param,
    pub b2: Param,
    /// LoRA on FC1: `a ∈ [r, d]`, `b ∈ [d_ff, r]` (row per neuron).
    pub lora1: Option<Lora>,
    /// LoRA on FC2: `a ∈ [d_ff, r]` (row per neuron), `b ∈ [d, r]`.
    pub lora2: Option<Lora>,
    pub activation: Activation,
    d_model: usize,
    d_ff: usize,
    cache: Option<MlpCache>,
    /// Cross-step cache of decoded active slabs (reduced-stored sparse
    /// mode, f16 or block-quantized). Keyed by the plan it was gathered for;
    /// refreshed incrementally — see [`MlpBlock::refresh_slab_cache`].
    slab_cache: Option<SparseSlabs>,
    /// The retired gather's buffers, recycled as the next drifted plan's
    /// destination so steady-state drift stays allocation-free (the step
    /// bench gates on zero heap tensors per steady step). Contents are
    /// garbage between drifts — every span is overwritten before use.
    slab_spare: Option<(Tensor, Tensor, Tensor)>,
    slabs_decoded: u64,
    slabs_reused: u64,
}

#[derive(Debug)]
struct MlpCache {
    x: Tensor,
    /// Pre-activation; compact `rows × active_neurons` in sparse mode.
    z: Tensor,
    /// Post-activation, same width as `z`.
    a: Tensor,
    set: Option<Arc<NeuronBlockSet>>,
    /// The step ran against reduced-stored weights via the slab cache.
    used_slabs: bool,
}

/// f32 views of the *active* neuron slabs of reduced-stored FC weights (f16
/// or block-quantized), in the compact coordinate system of
/// [`NeuronBlockSet::compacted`]. This is the paper's "only active blocks
/// resident at full width" discipline: inactive slabs never leave their
/// reduced storage (2 bytes/element for f16, ~0.5 for NF4).
///
/// Under shadowy sparsity consecutive plans overlap heavily, so the gather is
/// maintained *incrementally* across steps: blocks active in both the old and
/// new plan are carried over with an f32 copy, only newly-activated blocks
/// are decoded from the stored bits, and deactivated blocks are evicted by
/// not being carried. An unchanged plan reuses the whole gather untouched.
/// The quantized decodes are elementwise over flat indices, so a slab window
/// is bit-identical to the same rows of a full-buffer decode even when row
/// boundaries land mid-quantization-block.
#[derive(Debug)]
struct SparseSlabs {
    /// The (global) plan this gather was built for.
    set: Arc<NeuronBlockSet>,
    /// Active FC1 column slabs, `[active_neurons, d_model]`.
    w1: Tensor,
    /// Active FC2 row slabs, `[active_neurons, d_model]`.
    w2: Tensor,
    /// FC1 bias entries gathered in active order.
    b1: Tensor,
    /// Renumbered block set addressing the gathered buffers.
    cset: Arc<NeuronBlockSet>,
}

impl MlpBlock {
    pub fn new(name: &str, d_model: usize, d_ff: usize, activation: Activation, seed: u64) -> Self {
        let std1 = (2.0 / (d_model + d_ff) as f32).sqrt();
        MlpBlock {
            w1: Param::frozen(
                format!("{name}.w1"),
                Tensor::randn(&[d_ff, d_model], std1, seed),
            ),
            b1: Param::frozen(format!("{name}.b1"), Tensor::zeros(&[d_ff])),
            w2: Param::frozen(
                format!("{name}.w2"),
                Tensor::randn(&[d_ff, d_model], std1, seed + 1),
            ),
            b2: Param::frozen(format!("{name}.b2"), Tensor::zeros(&[d_model])),
            lora1: None,
            lora2: None,
            activation,
            d_model,
            d_ff,
            cache: None,
            slab_cache: None,
            slab_spare: None,
            slabs_decoded: 0,
            slabs_reused: 0,
        }
    }

    pub fn d_ff(&self) -> usize {
        self.d_ff
    }

    pub fn attach_lora_fc1(&mut self, rank: usize, alpha: f32, seed: u64) {
        self.lora1 = Some(Lora::new(
            &self.w1.name,
            self.d_model,
            self.d_ff,
            rank,
            alpha,
            seed,
            Layout::Transposed,
        ));
    }

    pub fn attach_lora_fc2(&mut self, rank: usize, alpha: f32, seed: u64) {
        self.lora2 = Some(Lora::new(
            &self.w2.name,
            self.d_ff,
            self.d_model,
            rank,
            alpha,
            seed,
            Layout::Normal,
        ));
    }

    fn activate(&self, z: &Tensor) -> Tensor {
        match self.activation {
            Activation::Relu => {
                let mut a = Tensor::scratch(z.shape());
                relu(z.as_slice(), a.as_mut_slice());
                a
            }
            Activation::Gelu => {
                let mut a = z.clone();
                gelu_inplace(a.as_mut_slice());
                a
            }
        }
    }

    fn activate_backward(&self, da: &Tensor, z: &Tensor) -> Tensor {
        let mut dz = Tensor::scratch(z.shape());
        match self.activation {
            Activation::Relu => relu_backward(da.as_slice(), z.as_slice(), dz.as_mut_slice()),
            Activation::Gelu => gelu_backward(da.as_slice(), z.as_slice(), dz.as_mut_slice()),
        }
        dz
    }

    pub fn forward(&mut self, x: &Tensor, set: Option<&Arc<NeuronBlockSet>>) -> Tensor {
        match set {
            None => self.forward_dense(x),
            Some(set) => self.forward_sparse(x, set.clone()),
        }
    }

    /// Bring the cross-step slab cache up to date with `set` (see
    /// [`SparseSlabs`]). An unchanged plan reuses the weight gather as-is
    /// (re-gathering only the bias when it is trainable and may have moved);
    /// a drifted plan copies carried-over slabs from the previous gather and
    /// decodes only the newly-activated blocks ([`NeuronBlockSet::diff`])
    /// from the stored f16/NF4 bits.
    fn refresh_slab_cache(&mut self, set: &Arc<NeuronBlockSet>) {
        let bsz = set.block_size;
        if let Some(c) = &mut self.slab_cache {
            if *c.set == **set {
                // The f16 weight bits are frozen, but a trainable bias
                // (BitFit) moves every optimizer step: refresh the compact
                // gather in place so the cache never serves stale values.
                if self.b1.trainable {
                    for (ci, &blk) in set.active.iter().enumerate() {
                        let n0 = blk as usize * bsz;
                        c.b1.as_mut_slice()[ci * bsz..(ci + 1) * bsz]
                            .copy_from_slice(&self.b1.value.as_slice()[n0..n0 + bsz]);
                    }
                }
                self.slabs_reused += set.n_active() as u64;
                slab_counters().carried.add(set.n_active() as u64);
                return;
            }
        }
        let d = self.d_model;
        assert!(
            self.w1.is_reduced() && self.w2.is_reduced(),
            "slab cache requires reduced-stored FC weights"
        );
        let prev = self.slab_cache.take();
        // Blocks newly activated relative to the previous gather must be
        // decoded; everything else is carried over with an f32 copy.
        let added = prev.as_ref().map(|p| set.diff(&p.set).added);
        // Recycle the buffers retired two drifts ago when the active width
        // is unchanged (the common steady-state case — the plan picks a
        // fixed number of blocks, only *which* blocks drifts). Every active
        // span is decoded or carried below, so stale contents never leak.
        let (mut w1, mut w2, mut b1) = match self.slab_spare.take() {
            Some((w1, w2, b1)) if w1.shape() == [set.active_neurons(), d] => (w1, w2, b1),
            _ => (
                Tensor::zeros(&[set.active_neurons(), d]),
                Tensor::zeros(&[set.active_neurons(), d]),
                Tensor::zeros(&[set.active_neurons()]),
            ),
        };
        // Monotone cursors: `set.active`, `added` and `prev.set.active` are
        // all sorted, so one forward walk finds every carry position.
        let (mut ai, mut pp) = (0usize, 0usize);
        for (ci, &blk) in set.active.iter().enumerate() {
            let (n0, span) = (blk as usize * bsz, ci * bsz * d..(ci + 1) * bsz * d);
            let is_added = match &added {
                Some(a) => a.get(ai) == Some(&blk),
                None => true,
            };
            if is_added {
                ai += 1;
                self.w1
                    .decode_rows(n0, bsz, &mut w1.as_mut_slice()[span.clone()]);
                self.w2.decode_rows(n0, bsz, &mut w2.as_mut_slice()[span]);
                self.slabs_decoded += 1;
                slab_counters().decoded.inc();
            } else {
                let p = prev
                    .as_ref()
                    .expect("carried block implies a previous gather");
                while p.set.active[pp] < blk {
                    pp += 1;
                }
                let pspan = pp * bsz * d..(pp + 1) * bsz * d;
                w1.as_mut_slice()[span.clone()].copy_from_slice(&p.w1.as_slice()[pspan.clone()]);
                w2.as_mut_slice()[span].copy_from_slice(&p.w2.as_slice()[pspan]);
                self.slabs_reused += 1;
                slab_counters().carried.inc();
            }
            b1.as_mut_slice()[ci * bsz..(ci + 1) * bsz]
                .copy_from_slice(&self.b1.value.as_slice()[n0..n0 + bsz]);
        }
        self.slab_spare = prev.map(|p| (p.w1, p.w2, p.b1));
        self.slab_cache = Some(SparseSlabs {
            set: set.clone(),
            w1,
            w2,
            b1,
            cset: Arc::new(set.compacted()),
        });
    }

    /// `(decoded, carried-over)` slab-block counters since construction —
    /// how much reduced→f32 decode work the cross-step cache avoided.
    pub fn slab_cache_stats(&self) -> (u64, u64) {
        (self.slabs_decoded, self.slabs_reused)
    }

    /// Drop the cross-step slab cache (weight storage changed).
    pub(crate) fn invalidate_slab_cache(&mut self) {
        self.slab_cache = None;
    }

    fn forward_dense(&mut self, x: &Tensor) -> Tensor {
        // z = x·W1ᵀ(stored) + b1  (+ LoRA1). The bias rides the GEMM
        // write-back as a fused epilogue; the activation stays unfused
        // because backward needs the pre-activation z.
        let mut z = self.w1.matmul(
            x,
            Layout::Transposed,
            Epilogue::Bias(self.b1.value.as_slice()),
        );
        if let Some(l) = &mut self.lora1 {
            l.forward(x, &mut z);
        }
        let a = self.activate(&z);
        // y = a·W2 + b2  (+ LoRA2), bias again fused into the write-back.
        let mut y = self
            .w2
            .matmul(&a, Layout::Normal, Epilogue::Bias(self.b2.value.as_slice()));
        if let Some(l) = &mut self.lora2 {
            l.forward(&a, &mut y);
        }
        self.cache = Some(MlpCache {
            x: x.clone(),
            z,
            a,
            set: None,
            used_slabs: false,
        });
        y
    }

    fn forward_sparse(&mut self, x: &Tensor, set: Arc<NeuronBlockSet>) -> Tensor {
        assert_eq!(
            set.total_neurons(),
            self.d_ff,
            "neuron block grid must cover d_ff"
        );
        assert_eq!(
            self.activation,
            Activation::Relu,
            "neuron sparsity requires ReLU (paper §II-B)"
        );
        let rows = x.rows();
        let width = set.active_neurons();
        // Reduced-stored weights (f16 or block-quantized): run the neuron
        // kernels in the compact coordinate system over the cross-step slab
        // cache (only blocks that drifted in get decoded); f32 weights use
        // the full buffers with the global set, as before. Both layouts
        // produce the identical compact `rows × active` buffers.
        let used_slabs = self.w1.is_reduced();
        if used_slabs {
            assert!(
                self.w2.is_reduced(),
                "FC1/FC2 must share a storage precision"
            );
            self.refresh_slab_cache(&set);
        }
        let slabs = used_slabs.then(|| self.slab_cache.as_ref().expect("slab cache refreshed"));
        let (w1s, b1s, w2s, kset): (&[f32], &[f32], &[f32], &NeuronBlockSet) = match slabs {
            Some(s) => (s.w1.as_slice(), s.b1.as_slice(), s.w2.as_slice(), &s.cset),
            None => (
                self.w1.value.as_slice(),
                self.b1.value.as_slice(),
                self.w2.value.as_slice(),
                &set,
            ),
        };
        // `z`, `y`, and `da` / `dx` in the backward: each grouped launch
        // writes its whole output.
        let mut z = Tensor::scratch(&[rows, width]);
        fc1_forward(
            x.as_slice(),
            rows,
            w1s,
            self.d_model,
            Some(b1s),
            kset,
            z.as_mut_slice(),
        );
        if let Some(l) = &mut self.lora1 {
            l.forward_over(x, &mut z, Some(&set));
        }
        let a = self.activate(&z);
        let mut y = Tensor::scratch(&[rows, self.d_model]);
        fc2_forward(
            a.as_slice(),
            rows,
            w2s,
            self.d_model,
            Some(self.b2.value.as_slice()),
            kset,
            y.as_mut_slice(),
        );
        if let Some(l) = &mut self.lora2 {
            l.forward_over(&a, &mut y, Some(&set));
        }
        self.cache = Some(MlpCache {
            x: x.clone(),
            z,
            a,
            set: Some(set),
            used_slabs,
        });
        y
    }

    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("MLP backward without forward");
        match &cache.set {
            None => self.backward_dense(dy, &cache),
            Some(set) => self.backward_sparse(dy, &cache, set.clone()),
        }
    }

    fn backward_dense(&mut self, dy: &Tensor, cache: &MlpCache) -> Tensor {
        // FC2 (+ LoRA2): da = dy·W2ᵀ with W2 stored `[d_ff, d]` row-major —
        // the `nt` kernel shape, fused-decoding when half-stored.
        let mut da = self.w2.matmul(dy, Layout::Transposed, Epilogue::None);
        if let Some(l) = &mut self.lora2 {
            l.backward(&cache.a, dy, &mut da);
        }
        if self.b2.trainable {
            bias_grad_rows(dy, self.b2.grad_mut().as_mut_slice());
        }
        if self.w2.trainable {
            let dw2 = matmul_tn(&cache.a, dy); // [d_ff, d]
            self.w2.accumulate_grad(&dw2);
        }
        // Activation.
        let dz = self.activate_backward(&da, &cache.z);
        // FC1 (+ LoRA1).
        if self.b1.trainable {
            bias_grad_rows(&dz, self.b1.grad_mut().as_mut_slice());
        }
        if self.w1.trainable {
            let dw1 = matmul_tn(&dz, &cache.x); // [d_ff, d]
            self.w1.accumulate_grad(&dw1);
        }
        let mut dx = self.w1.matmul(&dz, Layout::Normal, Epilogue::None); // dz · W1(stored [d_ff,d])
        if let Some(l) = &mut self.lora1 {
            l.backward(&cache.x, &dz, &mut dx);
        }
        dx
    }

    fn backward_sparse(
        &mut self,
        dy: &Tensor,
        cache: &MlpCache,
        set: Arc<NeuronBlockSet>,
    ) -> Tensor {
        let rows = dy.rows();
        let width = set.active_neurons();
        // Same storage dispatch as forward: the cross-step slab cache still
        // holds this step's gather, so the backward kernels reuse it for free.
        let slabs = cache
            .used_slabs
            .then(|| self.slab_cache.as_ref().expect("slab cache present"));
        let (w1s, w2s, kset): (&[f32], &[f32], &NeuronBlockSet) = match slabs {
            Some(s) => (s.w1.as_slice(), s.w2.as_slice(), &s.cset),
            None => (self.w1.value.as_slice(), self.w2.value.as_slice(), &set),
        };
        // FC2 backward to compact dA.
        let mut da = Tensor::scratch(&[rows, width]);
        active_cols(
            dy.as_slice(),
            rows,
            w2s,
            self.d_model,
            kset,
            0.0,
            da.as_mut_slice(),
        );
        if let Some(l) = &mut self.lora2 {
            l.backward_over(&cache.a, dy, &mut da, Some(&set));
        }
        if self.b2.trainable {
            bias_grad_rows(dy, self.b2.grad_mut().as_mut_slice());
        }
        if self.w2.trainable {
            fc2_grad_weights(
                cache.a.as_slice(),
                dy.as_slice(),
                rows,
                self.d_model,
                &set,
                self.w2.grad_mut().as_mut_slice(),
            );
        }
        // Activation backward on the compact buffers.
        let dz = self.activate_backward(&da, &cache.z);
        // dx first: it reads the (possibly slab-decoded) weight view, whose
        // borrow must end before the grad blocks take `&mut` access below.
        let mut dx = Tensor::scratch(&[rows, self.d_model]);
        fc1_backward_input(
            dz.as_slice(),
            rows,
            w1s,
            self.d_model,
            kset,
            dx.as_mut_slice(),
        );
        // FC1 grads — active blocks only (§II-D). Weight grads address the
        // full-size buffers, so they use the global set; frozen reduced-
        // stored weights never take this path (trainability implies f32).
        if self.b1.trainable {
            fc1_grad_bias(dz.as_slice(), &set, self.b1.grad_mut().as_mut_slice());
        }
        if self.w1.trainable {
            fc1_grad_weights(
                cache.x.as_slice(),
                dz.as_slice(),
                rows,
                self.d_model,
                &set,
                self.w1.grad_mut().as_mut_slice(),
            );
        }
        if let Some(l) = &mut self.lora1 {
            l.backward_over(&cache.x, &dz, &mut dx, Some(&set));
        }
        dx
    }

    /// Take the post-activation values `[rows, d_ff]` of the last dense
    /// forward (calibration capture). The cache is consumed, so no backward can follow.
    pub(crate) fn take_activations(&mut self) -> Option<Tensor> {
        self.cache.take().map(|c| c.a)
    }

    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w1);
        f(&mut self.b1);
        f(&mut self.w2);
        f(&mut self.b2);
        if let Some(l) = &mut self.lora1 {
            f(&mut l.a);
            f(&mut l.b);
        }
        if let Some(l) = &mut self.lora2 {
            f(&mut l.a);
            f(&mut l.b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: usize = 8;
    const FF: usize = 16;
    const ROWS: usize = 6;
    const BLK: usize = 4;

    fn mlp() -> MlpBlock {
        MlpBlock::new("mlp", D, FF, Activation::Relu, 7)
    }

    fn all_set() -> Arc<NeuronBlockSet> {
        Arc::new(NeuronBlockSet::all(FF / BLK, BLK))
    }

    #[test]
    fn sparse_all_blocks_matches_dense() {
        let x = Tensor::randn(&[ROWS, D], 1.0, 1);
        let mut dense = mlp();
        let mut sparse = mlp();
        let yd = dense.forward(&x, None);
        let ys = sparse.forward(&x, Some(&all_set()));
        for (a, b) in yd.as_slice().iter().zip(ys.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        // Backward too, with trainable biases (BitFit-style).
        dense.b1.trainable = true;
        dense.b2.trainable = true;
        sparse.b1.trainable = true;
        sparse.b2.trainable = true;
        let dy = Tensor::randn(&[ROWS, D], 1.0, 2);
        let _ = dense.forward(&x, None);
        let dxd = dense.backward(&dy);
        let _ = sparse.forward(&x, Some(&all_set()));
        let dxs = sparse.backward(&dy);
        for (a, b) in dxd.as_slice().iter().zip(dxs.as_slice()) {
            assert!((a - b).abs() < 1e-3, "dx {a} vs {b}");
        }
        let g1 = dense.b1.grad.as_ref().unwrap();
        let g2 = sparse.b1.grad.as_ref().unwrap();
        for (a, b) in g1.as_slice().iter().zip(g2.as_slice()) {
            assert!((a - b).abs() < 1e-3, "db1 {a} vs {b}");
        }
    }

    /// `[dA1, dB1, dA2, dB2]` of a block with LoRA on both FCs.
    fn lora_grads(m: &MlpBlock) -> [&[f32]; 4] {
        let (l1, l2) = (m.lora1.as_ref().unwrap(), m.lora2.as_ref().unwrap());
        [&l1.a, &l1.b, &l2.a, &l2.b].map(|p| p.grad.as_ref().unwrap().as_slice())
    }

    #[test]
    fn partial_set_equals_dense_with_masked_neurons() {
        // LoRA on both FCs with nonzero B. The dense reference zeroes the
        // inactive neurons' FC2 rows — backbone and LoRA A2 — so nothing
        // downstream sees them, and the backward sends them no gradient.
        const R: usize = 2;
        let x = Tensor::randn(&[ROWS, D], 1.0, 3);
        let dy = Tensor::randn(&[ROWS, D], 1.0, 20);
        let set = Arc::new(NeuronBlockSet::from_indices(vec![0, 2], FF / BLK, BLK));
        let active = |n: usize| set.active.contains(&((n / BLK) as u32));
        let with_lora = || {
            let mut m = mlp();
            m.attach_lora_fc1(R, 4.0, 21);
            m.attach_lora_fc2(R, 4.0, 22);
            for (l, seed) in [(&mut m.lora1, 23), (&mut m.lora2, 24)] {
                let b = &mut l.as_mut().unwrap().b.value;
                let vals = lx_tensor::rng::randn_vec(b.len(), 0.3, seed);
                b.as_mut_slice().copy_from_slice(&vals);
            }
            m
        };
        let mut sparse = with_lora();
        let ys = sparse.forward(&x, Some(&set));
        let dxs = sparse.backward(&dy);
        let mut dense = with_lora();
        for n in (0..FF).filter(|&n| !active(n)) {
            dense.w2.value.as_mut_slice()[n * D..(n + 1) * D].fill(0.0);
            let a2 = &mut dense.lora2.as_mut().unwrap().a.value;
            a2.as_mut_slice()[n * R..(n + 1) * R].fill(0.0);
        }
        let yd = dense.forward(&x, None);
        let dxd = dense.backward(&dy);
        for (a, b) in ys.as_slice().iter().zip(yd.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        for (a, b) in dxs.as_slice().iter().zip(dxd.as_slice()) {
            assert!((a - b).abs() < 1e-3, "dx {a} vs {b}");
        }
        let (gs, gd) = (lora_grads(&sparse), lora_grads(&dense));
        for (which, (s, d)) in gs.iter().zip(gd).enumerate() {
            for (i, (a, b)) in s.iter().zip(d).enumerate() {
                // The dense reference still computes dA2 for inactive rows.
                if which == 2 && !active(i / R) {
                    continue;
                }
                assert!((a - b).abs() < 1e-3, "grad {which}[{i}]: {a} vs {b}");
            }
        }
        // §II-D: inactive neurons' rows of B1 and A2 get exactly no gradient.
        for n in (0..FF).filter(|&n| !active(n)) {
            for (which, g) in [(1, gs[1]), (2, gs[2])] {
                let row = &g[n * R..(n + 1) * R];
                assert!(row.iter().all(|&v| v == 0.0), "grad {which} row {n}");
            }
        }
    }

    #[test]
    fn inactive_lora_b_rows_get_no_gradient() {
        // The §II-D property: neurons outside the active set contribute no
        // gradient to their LoRA-B rows.
        let x = Tensor::randn(&[ROWS, D], 1.0, 4);
        let dy = Tensor::randn(&[ROWS, D], 1.0, 5);
        let set = Arc::new(NeuronBlockSet::from_indices(vec![1], FF / BLK, BLK));
        let mut m = mlp();
        m.attach_lora_fc1(2, 4.0, 6);
        let _ = m.forward(&x, Some(&set));
        let _ = m.backward(&dy);
        let db = m.lora1.as_ref().unwrap().b.grad.as_ref().unwrap();
        let r = 2;
        for n in 0..FF {
            let active = (4..8).contains(&n);
            let row_nonzero = db.as_slice()[n * r..(n + 1) * r].iter().any(|&v| v != 0.0);
            if !active {
                assert!(!row_nonzero, "inactive neuron {n} must have zero dB row");
            }
        }
        // At least one active row must have gradient (ReLU keeps some on).
        let any_active_grad =
            (4..8).any(|n| db.as_slice()[n * r..(n + 1) * r].iter().any(|&v| v != 0.0));
        assert!(any_active_grad);
    }

    #[test]
    fn dense_lora_grads_match_finite_difference() {
        let mut m = mlp();
        m.attach_lora_fc1(2, 2.0, 8);
        m.attach_lora_fc2(2, 2.0, 9);
        // Non-zero B so the A-grads are informative.
        for l in [m.lora1.as_mut().unwrap(), m.lora2.as_mut().unwrap()] {
            let vals = lx_tensor::rng::randn_vec(l.b.value.len(), 0.2, 10);
            l.b.value.as_mut_slice().copy_from_slice(&vals);
        }
        let x = Tensor::randn(&[4, D], 0.8, 11);
        let dy = Tensor::randn(&[4, D], 1.0, 12);
        let _ = m.forward(&x, None);
        let _ = m.backward(&dy);
        let loss = |m: &mut MlpBlock, x: &Tensor| -> f32 {
            let y = m.forward(x, None);
            m.cache = None;
            y.as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let h = 1e-3;
        // Check a few entries of each LoRA param.
        for which in 0..4 {
            let grad = match which {
                0 => m.lora1.as_ref().unwrap().a.grad.as_ref().unwrap().clone(),
                1 => m.lora1.as_ref().unwrap().b.grad.as_ref().unwrap().clone(),
                2 => m.lora2.as_ref().unwrap().a.grad.as_ref().unwrap().clone(),
                _ => m.lora2.as_ref().unwrap().b.grad.as_ref().unwrap().clone(),
            };
            for idx in [0usize, 3] {
                let read = |m: &MlpBlock| match which {
                    0 => m.lora1.as_ref().unwrap().a.value.as_slice()[idx],
                    1 => m.lora1.as_ref().unwrap().b.value.as_slice()[idx],
                    2 => m.lora2.as_ref().unwrap().a.value.as_slice()[idx],
                    _ => m.lora2.as_ref().unwrap().b.value.as_slice()[idx],
                };
                let write = |m: &mut MlpBlock, v: f32| match which {
                    0 => m.lora1.as_mut().unwrap().a.value.as_mut_slice()[idx] = v,
                    1 => m.lora1.as_mut().unwrap().b.value.as_mut_slice()[idx] = v,
                    2 => m.lora2.as_mut().unwrap().a.value.as_mut_slice()[idx] = v,
                    _ => m.lora2.as_mut().unwrap().b.value.as_mut_slice()[idx] = v,
                };
                let orig = read(&m);
                write(&mut m, orig + h);
                let lp = loss(&mut m, &x);
                write(&mut m, orig - h);
                let lm = loss(&mut m, &x);
                write(&mut m, orig);
                let fd = (lp - lm) / (2.0 * h);
                assert!(
                    (grad.as_slice()[idx] - fd).abs() < 2e-2,
                    "param {which} idx {idx}: {} vs {fd}",
                    grad.as_slice()[idx]
                );
            }
        }
    }

    /// Every reduced storage dtype, for the demote-both-FC-weights sweeps.
    const REDUCED: [lx_tensor::Dtype; 2] = [lx_tensor::Dtype::F16, lx_tensor::Dtype::Nf4Block];

    #[test]
    fn incremental_slab_decode_equals_full_decode_under_drift() {
        // Two identical reduced-stored blocks (f16, then NF4): one
        // keeps its cross-step slab cache (incremental decode), the other is
        // forced to re-gather from scratch every step. Outputs must stay
        // bit-identical across a randomized plan-drift sequence including
        // empty→full and full→empty transitions.
        for dtype in REDUCED {
            let mk = || {
                let mut m = mlp();
                m.w1.demote(dtype);
                m.w2.demote(dtype);
                m
            };
            let mut inc = mk();
            let mut full = mk();
            let x = Tensor::randn(&[ROWS, D], 1.0, 30);
            let n_blk = (FF / BLK) as u32;
            let mut plans: Vec<Vec<u32>> = vec![
                vec![],               // start empty
                (0..n_blk).collect(), // empty → full
                vec![],               // full → empty
                vec![0, 2],
                vec![0, 3],           // one block drifts
                (0..n_blk).collect(), // partial → full
                vec![1],
            ];
            for step in 0..6u64 {
                let picks = lx_tensor::rng::uniform_vec(3, 0.0, n_blk as f32, 40 + step);
                plans.push(picks.into_iter().map(|v| v as u32).collect());
            }
            for idx in plans {
                let set = Arc::new(NeuronBlockSet::from_indices(idx, n_blk as usize, BLK));
                let yi = inc.forward(&x, Some(&set));
                full.invalidate_slab_cache(); // the full-re-decode arm
                let yf = full.forward(&x, Some(&set));
                assert_eq!(yi.as_slice(), yf.as_slice(), "set {:?}", set.active);
            }
            let (dec_inc, reused) = inc.slab_cache_stats();
            let (dec_full, _) = full.slab_cache_stats();
            assert!(reused > 0, "drifting plans must carry blocks over");
            assert!(
                dec_inc < dec_full,
                "incremental decode must do less work: {dec_inc} vs {dec_full}"
            );
        }
    }

    #[test]
    fn unchanged_plan_reuses_the_slab_cache_wholesale() {
        for dtype in REDUCED {
            let mut m = mlp();
            m.w1.demote(dtype);
            m.w2.demote(dtype);
            let x = Tensor::randn(&[ROWS, D], 1.0, 31);
            let set = Arc::new(NeuronBlockSet::from_indices(vec![0, 2], FF / BLK, BLK));
            let _ = m.forward(&x, Some(&set));
            let (dec0, _) = m.slab_cache_stats();
            assert_eq!(dec0, 2, "first step decodes every active block");
            for _ in 0..3 {
                let _ = m.forward(&x, Some(&set));
            }
            let (dec, reused) = m.slab_cache_stats();
            assert_eq!(dec, dec0, "unchanged plan must decode nothing");
            assert_eq!(reused, 3 * 2, "each reuse step counts its active blocks");
        }
    }

    #[test]
    fn reduced_slab_sparse_path_matches_prerounded_dense() {
        // The exactness contract behind the reduced-storage sparse path:
        // running the neuron kernels over slab-decoded weights must equal
        // running them over a *pre-rounded* f32 model (demote → promote up
        // front: rounded for f16, dequantized for NF4)
        // bit-for-bit, because the slab decode is elementwise.
        for dtype in REDUCED {
            let mut q = mlp();
            let mut pre = mlp();
            for w in [&mut q.w1, &mut q.w2, &mut pre.w1, &mut pre.w2] {
                w.demote(dtype);
            }
            for w in [&mut pre.w1, &mut pre.w2] {
                w.to_f32(); // pre-rounded dense f32
            }
            let x = Tensor::randn(&[ROWS, D], 1.0, 35);
            let set = Arc::new(NeuronBlockSet::from_indices(vec![0, 2, 3], FF / BLK, BLK));
            let yq = q.forward(&x, Some(&set));
            let yp = pre.forward(&x, Some(&set));
            assert_eq!(yq.as_slice(), yp.as_slice(), "{dtype}");
        }
    }

    #[test]
    fn cached_slabs_track_a_trainable_bias() {
        // BitFit on the reduced-precision sparse path: the weight bits are
        // frozen, but b1 is trainable and moves between steps. The
        // unchanged-plan fast path must still serve the *current* bias, not
        // the one gathered when the cache was built.
        let mut m = mlp();
        m.w1.demote(lx_tensor::Dtype::Nf4Block);
        m.w2.demote(lx_tensor::Dtype::Nf4Block);
        m.b1.trainable = true;
        let x = Tensor::randn(&[ROWS, D], 1.0, 32);
        let set = Arc::new(NeuronBlockSet::from_indices(vec![0, 2], FF / BLK, BLK));
        let _ = m.forward(&x, Some(&set)); // builds the cache
        for v in m.b1.value.as_mut_slice() {
            *v += 0.5; // an optimizer step moved the bias
        }
        let y_cached = m.forward(&x, Some(&set)); // unchanged plan: fast path
        m.invalidate_slab_cache();
        let y_fresh = m.forward(&x, Some(&set)); // full re-gather
        assert_eq!(
            y_cached.as_slice(),
            y_fresh.as_slice(),
            "cached gather must serve the updated bias"
        );
    }

    #[test]
    fn gelu_model_rejects_sparse_set() {
        let mut m = MlpBlock::new("mlp", D, FF, Activation::Gelu, 13);
        let x = Tensor::randn(&[2, D], 1.0, 14);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.forward(&x, Some(&all_set()))
        }));
        assert!(result.is_err(), "GeLU + neuron sparsity must be rejected");
    }

    #[test]
    fn full_ft_weight_grads_sparse_touch_only_active() {
        let x = Tensor::randn(&[ROWS, D], 1.0, 15);
        let dy = Tensor::randn(&[ROWS, D], 1.0, 16);
        let set = Arc::new(NeuronBlockSet::from_indices(vec![3], FF / BLK, BLK));
        let mut m = mlp();
        m.w1.trainable = true;
        m.w2.trainable = true;
        let _ = m.forward(&x, Some(&set));
        let _ = m.backward(&dy);
        let dw1 = m.w1.grad.as_ref().unwrap();
        let dw2 = m.w2.grad.as_ref().unwrap();
        for n in 0..FF {
            let active = (12..16).contains(&n);
            let w1_nz = dw1.as_slice()[n * D..(n + 1) * D].iter().any(|&v| v != 0.0);
            let w2_nz = dw2.as_slice()[n * D..(n + 1) * D].iter().any(|&v| v != 0.0);
            if !active {
                assert!(!w1_nz && !w2_nz, "inactive neuron {n} has weight grad");
            }
        }
    }
}
