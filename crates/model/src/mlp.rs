//! MLP block: two [`Linear`]s over the plan's neuron columns, whatever the
//! plan.
//!
//! Weight storage follows the paper's memory-coalescing layout (§VI-B): a
//! neuron dimension is the row dimension ([`Neurons`]), so FC1 keeps `w1`
//! *neuron-major* `[d_ff, d]` (the transpose of `x·W`) and FC2 keeps `w2`
//! row-major `[d_ff, d]`, and an active neuron block is a contiguous slab in
//! **both** matrices; no format conversion ever happens at runtime. An f16
//! or NF4 weight is read where it is stored too: the grouped launches decode
//! each active slab as they pack it, so one path serves every storage.
//!
//! The neuron side of both products is [`Side::columns`] of the step's
//! [`NeuronBlockSet`] — the compact `rows × active_neurons` buffers — and
//! the model side is the token-major `d_model` block built at construction.
//! Dense is the plan in which every neuron is active: a forward without a
//! set runs the same launches over one full-width block, which the block
//! builds once at construction, as `mha.rs` caches its causal layout. Biases
//! ride the launches' write-back after the complete products, so the dense
//! plan equals plain GEMMs followed by bias passes bit for bit.
//!
//! LoRA attaches to either linear as the same [`Lora`](crate::linear::Lora)
//! pair every `Linear` uses: FC1's `A` is `[r, d]` and its `B` neuron-major
//! `[d_ff, r]`; FC2's `A` is neuron-major `[d_ff, r]` and its `B` `[d, r]`.
//! Every product runs over the plan's active blocks only, so inactive
//! neurons' rows of `w1`, `w2`, `b1`, FC1's `B` and FC2's `A` are neither
//! read nor given a gradient: the paper's §II-D result that
//! forward-inactive parameters receive no gradient.

use crate::config::Activation;
use crate::linear::{Linear, Neurons, Side};
use crate::param::Param;
use lx_sparse::NeuronBlockSet;
use lx_tensor::ops::{gelu_backward, gelu_inplace, relu, relu_backward};
use lx_tensor::Tensor;
use std::sync::Arc;

#[derive(Debug)]
pub struct MlpBlock {
    /// FC1, `d → d_ff`: `w1` neuron-major `[d_ff, d]`, `b1` `[d_ff]`.
    pub fc1: Linear,
    /// FC2, `d_ff → d`: `w2` row-major `[d_ff, d]`, `b2` `[d]`.
    pub fc2: Linear,
    pub activation: Activation,
    /// The dense plan: one block of all `d_ff` neurons.
    full: Arc<NeuronBlockSet>,
    /// One block of `d_model`: FC1's input side and FC2's output side.
    tokens: NeuronBlockSet,
    cache: Option<MlpCache>,
}

#[derive(Debug)]
struct MlpCache {
    x: Tensor,
    /// Pre-activation, compact `rows × set.active_neurons()`.
    z: Tensor,
    /// Post-activation, same width as `z`.
    a: Tensor,
    /// The plan the forward ran (the full-width block when dense).
    set: Arc<NeuronBlockSet>,
}

impl MlpBlock {
    pub fn new(name: &str, d_model: usize, d_ff: usize, activation: Activation, seed: u64) -> Self {
        let fc = |i: usize, dims, neurons, seed| {
            let (w, b) = (format!("{name}.w{i}"), format!("{name}.b{i}"));
            Linear::named(w, Some(b), dims, neurons, seed)
        };
        MlpBlock {
            fc1: fc(1, (d_model, d_ff), Neurons::Output, seed),
            fc2: fc(2, (d_ff, d_model), Neurons::Input, seed + 1),
            activation,
            full: Arc::new(NeuronBlockSet::all(1, d_ff)),
            tokens: NeuronBlockSet::all(1, d_model),
            cache: None,
        }
    }

    pub fn d_ff(&self) -> usize {
        self.full.total_neurons()
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

    /// Forward over the active neuron blocks of `set`; `None` runs the dense
    /// plan, the same path over the full-width block. `x` is taken by value:
    /// the cache keeps it for the backward without a copy.
    pub fn forward(&mut self, x: Tensor, set: Option<&Arc<NeuronBlockSet>>) -> Tensor {
        let set = match set {
            Some(set) => {
                assert_eq!(
                    set.total_neurons(),
                    self.d_ff(),
                    "neuron block grid must cover d_ff"
                );
                assert_eq!(
                    self.activation,
                    Activation::Relu,
                    "neuron sparsity requires ReLU (paper §II-B)"
                );
                set.clone()
            }
            None => self.full.clone(),
        };
        let (tokens, neurons) = (Side::panels(&self.tokens), Side::columns(&set));
        let z = self.fc1.project(&x, tokens, neurons);
        // The activation stays unfused: the backward reads `z`.
        let a = self.activate(&z);
        let y = self.fc2.project(&a, neurons, tokens);
        self.cache = Some(MlpCache { x, z, a, set });
        y
    }

    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let MlpCache { x, z, a, set } = self.cache.take().expect("MLP backward without forward");
        let (tokens, neurons) = (Side::panels(&self.tokens), Side::columns(&set));
        // `da` and `dx`: each launch writes its whole output.
        let mut da = Tensor::scratch(a.shape());
        self.fc2
            .backward_into(&a, dy, &mut da, 0.0, neurons, tokens);
        // Activation backward on the compact buffers.
        let dz = self.activate_backward(&da, &z);
        let mut dx = Tensor::scratch(x.shape());
        self.fc1
            .backward_into(&x, &dz, &mut dx, 0.0, tokens, neurons);
        dx
    }

    /// Take the post-activation values `[rows, d_ff]` of the last dense
    /// forward (calibration capture). The cache is consumed, so no backward can follow.
    pub(crate) fn take_activations(&mut self) -> Option<Tensor> {
        self.cache.take().map(|c| c.a)
    }

    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.fc1.for_each_param(f);
        self.fc2.for_each_param(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::tests::{cols, slabs, sum, tokens};
    use lx_sparse::neuron::{fc1_forward, fc2_forward};
    use lx_tensor::gemm::{matmul_tn, Layout};
    use lx_tensor::ops::{add_bias_rows, bias_grad_rows};

    const D: usize = 8;
    const FF: usize = 16;
    const ROWS: usize = 6;
    const BLK: usize = 4;

    fn mlp() -> MlpBlock {
        MlpBlock::new("mlp", D, FF, Activation::Relu, 7)
    }

    /// The bias of an MLP linear (both have one).
    fn bias(fc: &mut Linear) -> &mut Param {
        fc.bias.as_mut().expect("MLP bias")
    }

    fn all_set() -> Arc<NeuronBlockSet> {
        Arc::new(NeuronBlockSet::all(FF / BLK, BLK))
    }

    /// `d_model` and `d_ff` as one token-major block each.
    fn token_major(m: &MlpBlock) -> (NeuronBlockSet, NeuronBlockSet) {
        (
            NeuronBlockSet::all(1, m.tokens.block_size),
            NeuronBlockSet::all(1, m.d_ff()),
        )
    }

    /// What the reference forward keeps for its backward.
    struct DenseOracle {
        x: Tensor,
        z: Tensor,
        a: Tensor,
    }

    impl DenseOracle {
        /// The reference MLP through `m`'s own parameters: plain products
        /// over the stored weights, bias passes after them, the activation,
        /// and LoRA over token-major activations.
        fn forward(m: &mut MlpBlock, x: &Tensor) -> (Tensor, Self) {
            let (d, ff) = token_major(m);
            let mut z = m.fc1.weight.matmul(x, Layout::Transposed);
            add_bias_rows(&mut z, bias(&mut m.fc1).value.as_slice());
            if let Some(l) = &mut m.fc1.lora {
                l.forward(x, &mut z, Side::panels(&d), Side::panels(&ff));
            }
            let a = m.activate(&z);
            let mut y = m.fc2.weight.matmul(&a, Layout::Normal);
            add_bias_rows(&mut y, bias(&mut m.fc2).value.as_slice());
            if let Some(l) = &mut m.fc2.lora {
                l.forward(&a, &mut y, Side::panels(&ff), Side::panels(&d));
            }
            let oracle = DenseOracle { x: x.clone(), z, a };
            (y, oracle)
        }

        /// The reference backward: accumulates into `m`'s gradients and
        /// returns `dx`.
        fn backward(self, m: &mut MlpBlock, dy: &Tensor) -> Tensor {
            let (d, ff) = token_major(m);
            let mut da = m.fc2.weight.matmul(dy, Layout::Transposed);
            if let Some(l) = &mut m.fc2.lora {
                l.backward(&self.a, dy, &mut da, Side::panels(&ff), Side::panels(&d));
            }
            let b2 = bias(&mut m.fc2);
            if b2.trainable {
                bias_grad_rows(dy.as_slice(), b2.grad_mut().as_mut_slice());
            }
            if m.fc2.weight.trainable {
                m.fc2.weight.accumulate_grad(&matmul_tn(&self.a, dy));
            }
            let dz = m.activate_backward(&da, &self.z);
            let b1 = bias(&mut m.fc1);
            if b1.trainable {
                bias_grad_rows(dz.as_slice(), b1.grad_mut().as_mut_slice());
            }
            if m.fc1.weight.trainable {
                m.fc1.weight.accumulate_grad(&matmul_tn(&dz, &self.x));
            }
            let mut dx = m.fc1.weight.matmul(&dz, Layout::Normal);
            if let Some(l) = &mut m.fc1.lora {
                l.backward(&self.x, &dz, &mut dx, Side::panels(&d), Side::panels(&ff));
            }
            dx
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Randomise every bias and LoRA `B` of `m` (both are zero at init).
    fn perturb(m: &mut MlpBlock, seed: u64) {
        let (fc1, fc2) = (&mut m.fc1, &mut m.fc2);
        let mut params = vec![
            &mut fc1.bias.as_mut().unwrap().value,
            &mut fc2.bias.as_mut().unwrap().value,
        ];
        params.extend(
            [&mut fc1.lora, &mut fc2.lora]
                .into_iter()
                .flatten()
                .map(|l| &mut l.b.value),
        );
        for (i, t) in params.into_iter().enumerate() {
            let vals = lx_tensor::rng::randn_vec(t.len(), 0.3, seed + i as u64);
            t.as_mut_slice().copy_from_slice(&vals);
        }
    }

    #[test]
    fn dense_plan_matches_the_oracle_bitwise() {
        // The dense plan is the neuron path over one full-width block. With
        // the biases added after the complete products, it equals plain
        // GEMMs plus bias passes bit for bit: forward, input gradient and
        // every backbone gradient of a first backward, for any bias, either
        // activation and every storage. FC2's k = 512 spans two kc blocks,
        // so a bias that entered before the product would show.
        use lx_tensor::Dtype::{Nf4Block, F16, F32};
        let (d, ff, rows) = (64, 512, 24);
        let x = Tensor::randn(&[rows, d], 1.0, 50);
        let dy = Tensor::randn(&[rows, d], 1.0, 51);
        for activation in [Activation::Relu, Activation::Gelu] {
            for dtype in [F32, F16, Nf4Block] {
                let build = || {
                    let mut m = MlpBlock::new("mlp", d, ff, activation, 52);
                    perturb(&mut m, 53);
                    for p in [bias(&mut m.fc1), bias(&mut m.fc2)] {
                        p.trainable = true;
                    }
                    for w in [&mut m.fc1.weight, &mut m.fc2.weight] {
                        w.demote(dtype);
                        // Trainable weights stay f32.
                        w.trainable = dtype == F32;
                    }
                    m
                };
                let (mut plan, mut reference) = (build(), build());
                let y = plan.forward(x.clone(), None);
                let (y_ref, oracle) = DenseOracle::forward(&mut reference, &x);
                let cell = format!("{activation:?} {dtype}");
                assert_eq!(bits(y.as_slice()), bits(y_ref.as_slice()), "{cell} y");
                let dx = plan.backward(&dy);
                let dx_ref = oracle.backward(&mut reference, &dy);
                assert_eq!(bits(dx.as_slice()), bits(dx_ref.as_slice()), "{cell} dx");
                let grads = |m: &MlpBlock| {
                    [
                        &m.fc1.weight,
                        &m.fc2.weight,
                        m.fc1.bias.as_ref().unwrap(),
                        m.fc2.bias.as_ref().unwrap(),
                    ]
                    .map(|p| p.grad.as_ref().map(|g| bits(g.as_slice())))
                };
                for (which, (g, g_ref)) in
                    grads(&plan).into_iter().zip(grads(&reference)).enumerate()
                {
                    assert_eq!(
                        g.is_some(),
                        which >= 2 || dtype == F32,
                        "{cell} grad {which}"
                    );
                    assert_eq!(g, g_ref, "{cell} grad {which}");
                }
            }
        }
    }

    #[test]
    fn dense_plan_lora_matches_the_oracle() {
        // LoRA on both FCs rides the same full-width block, at a scale
        // (3 / 2) that is not a power of two: `y`, `dx` and every LoRA
        // gradient equal LoRA over token-major activations bit for bit.
        let x = Tensor::randn(&[ROWS, D], 1.0, 54);
        let dy = Tensor::randn(&[ROWS, D], 1.0, 55);
        let build = || {
            let mut m = mlp();
            m.fc1.attach_lora(2, 3.0, 56);
            m.fc2.attach_lora(2, 3.0, 57);
            perturb(&mut m, 58);
            m
        };
        let (mut plan, mut reference) = (build(), build());
        let y = plan.forward(x.clone(), None);
        let (y_ref, oracle) = DenseOracle::forward(&mut reference, &x);
        assert_eq!(bits(y.as_slice()), bits(y_ref.as_slice()), "y");
        let dx = plan.backward(&dy);
        let dx_ref = oracle.backward(&mut reference, &dy);
        assert_eq!(bits(dx.as_slice()), bits(dx_ref.as_slice()), "dx");
        let grads = lora_grads(&plan).into_iter().zip(lora_grads(&reference));
        for (which, (g, g_ref)) in grads.enumerate() {
            assert_eq!(bits(g), bits(g_ref), "grad {which}");
        }
    }

    /// The MLP as it ran before it was two `Linear`s, kept as the oracle:
    /// the neuron operators over `m`'s own parameters, one launch each (FC1
    /// forward, FC2 forward, FC2's input gradient, FC1's input gradient and
    /// the two weight gradients), the bias gradients row by row, and LoRA
    /// over the plan's compact columns. Returns `y`, `z` and `a`.
    fn composed_forward(m: &mut MlpBlock, x: &Tensor, set: &NeuronBlockSet) -> [Tensor; 3] {
        let (rows, d, width) = (x.rows(), x.cols(), set.active_neurons());
        let token_set = tokens(d);
        let (t, n) = (Side::panels(&token_set), Side::columns(set));
        let mut z = Tensor::scratch(&[rows, width]);
        let (w1, b1) = (m.fc1.weight.b_ref(), bias_of(&m.fc1));
        fc1_forward(
            x.as_slice(),
            rows,
            w1.operand(),
            d,
            b1,
            set,
            z.as_mut_slice(),
        );
        if let Some(l) = &mut m.fc1.lora {
            l.forward(x, &mut z, t, n);
        }
        let a = m.activate(&z);
        let mut y = Tensor::scratch(&[rows, d]);
        let (w2, b2) = (m.fc2.weight.b_ref(), bias_of(&m.fc2));
        fc2_forward(
            a.as_slice(),
            rows,
            w2.operand(),
            d,
            b2,
            set,
            y.as_mut_slice(),
        );
        if let Some(l) = &mut m.fc2.lora {
            l.forward(&a, &mut y, n, t);
        }
        [y, z, a]
    }

    fn bias_of(fc: &Linear) -> Option<&[f32]> {
        fc.bias.as_ref().map(|b| b.value.as_slice())
    }

    /// The backward of [`composed_forward`]: accumulates into `m`'s
    /// gradients and returns `dx`.
    fn composed_backward(
        m: &mut MlpBlock,
        [x, z, a, dy]: [&Tensor; 4],
        set: &NeuronBlockSet,
    ) -> Tensor {
        let (rows, d, width, blk) = (x.rows(), x.cols(), set.active_neurons(), set.block_size);
        let token_set = tokens(d);
        let (t, n) = (Side::panels(&token_set), Side::columns(set));
        let mut da = Tensor::scratch(&[rows, width]);
        let w2 = m.fc2.weight.b_ref();
        cols(dy.as_slice(), rows, w2.operand(), d, set, da.as_mut_slice());
        if let Some(l) = &mut m.fc2.lora {
            l.backward(a, dy, &mut da, n, t);
        }
        let b2 = bias(&mut m.fc2);
        if b2.trainable {
            bias_grad_rows(dy.as_slice(), b2.grad_mut().as_mut_slice());
        }
        if m.fc2.weight.trainable {
            let dw2 = m.fc2.weight.grad_mut().as_mut_slice();
            slabs(a.as_slice(), dy.as_slice(), rows, d, set, dw2);
        }
        let dz = m.activate_backward(&da, z);
        let mut dx = Tensor::scratch(&[rows, d]);
        let w1 = m.fc1.weight.b_ref();
        sum(dz.as_slice(), rows, w1.operand(), d, set, dx.as_mut_slice());
        let b1 = bias(&mut m.fc1);
        if b1.trainable {
            let db1 = b1.grad_mut().as_mut_slice();
            for dz_row in dz.as_slice().chunks_exact(width.max(1)) {
                for (dz_blk, &i) in dz_row.chunks_exact(blk).zip(&set.active) {
                    let db = &mut db1[i as usize * blk..][..blk];
                    db.iter_mut().zip(dz_blk).for_each(|(g, &v)| *g += v);
                }
            }
        }
        if m.fc1.weight.trainable {
            let dw1 = m.fc1.weight.grad_mut().as_mut_slice();
            slabs(dz.as_slice(), x.as_slice(), rows, d, set, dw1);
        }
        if let Some(l) = &mut m.fc1.lora {
            l.backward(x, &dz, &mut dx, t, n);
        }
        dx
    }

    /// The two-`Linear` block against [`composed_forward`] /
    /// [`composed_backward`], bitwise: `y`, `z`, `a`, `dx` and every
    /// gradient, over the dense plan, a partial set and an empty one, on
    /// f32, f16 and NF4 weights, under LoRA on both FCs (nonzero `B`,
    /// scale 3/2) and BitFit; full fine-tuning (trainable weights stay f32)
    /// on f32. FC2's k = 512 spans two kc blocks on the dense plan.
    #[test]
    fn linears_equal_the_composed_neuron_operators_bitwise() {
        use lx_tensor::Dtype::{Nf4Block, F16, F32};
        let (d, ff, blk, rows) = (64, 512, 16, 24);
        let x = Tensor::randn(&[rows, d], 1.0, 90);
        let dy = Tensor::randn(&[rows, d], 1.0, 91);
        let partial = Arc::new(NeuronBlockSet::from_indices(
            vec![0, 3, 4, 5, 9, 17, 31],
            ff / blk,
            blk,
        ));
        let empty = Arc::new(NeuronBlockSet::from_indices(vec![], ff / blk, blk));
        let full = NeuronBlockSet::all(1, ff);
        let cells = [("lora", F32), ("lora", F16), ("lora", Nf4Block)]
            .into_iter()
            .chain([("bitfit", F32), ("bitfit", F16), ("bitfit", Nf4Block)])
            .chain([("full", F32)]);
        for (method, dtype) in cells {
            let build = || {
                let mut m = MlpBlock::new("mlp", d, ff, Activation::Relu, 92);
                match method {
                    "lora" => {
                        m.fc1.attach_lora(2, 3.0, 93);
                        m.fc2.attach_lora(2, 3.0, 94);
                    }
                    "bitfit" => {
                        for fc in [&mut m.fc1, &mut m.fc2] {
                            bias(fc).trainable = true;
                        }
                    }
                    _ => m.for_each_param(&mut |p| p.trainable = true),
                }
                perturb(&mut m, 95);
                for fc in [&mut m.fc1, &mut m.fc2] {
                    fc.weight.demote(dtype);
                }
                m
            };
            for (plan, set) in [
                ("dense", None),
                ("partial", Some(&partial)),
                ("empty", Some(&empty)),
            ] {
                let cell = format!("{method} {dtype} {plan}");
                let (mut m, mut oracle) = (build(), build());
                let y = m.forward(x.clone(), set);
                let cache = m.cache.as_ref().expect("cache");
                let (z, a) = (cache.z.clone(), cache.a.clone());
                let oracle_set = set.map_or(&full, |s| &**s);
                let [y_want, z_want, a_want] = composed_forward(&mut oracle, &x, oracle_set);
                let dx = m.backward(&dy);
                let dx_want =
                    composed_backward(&mut oracle, [&x, &z_want, &a_want, &dy], oracle_set);
                for (what, got, want) in [
                    ("y", &y, &y_want),
                    ("z", &z, &z_want),
                    ("a", &a, &a_want),
                    ("dx", &dx, &dx_want),
                ] {
                    assert_eq!(got.shape(), want.shape(), "{cell} {what}");
                    assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{cell} {what}");
                }
                let grads = |m: &mut MlpBlock| {
                    let mut out = Vec::new();
                    m.for_each_param(&mut |p| {
                        let g = p.grad.as_ref().map(|g| bits(g.as_slice()));
                        out.push((p.name.clone(), p.trainable, g))
                    });
                    out
                };
                for ((name, trainable, g), (_, _, g_want)) in
                    grads(&mut m).into_iter().zip(grads(&mut oracle))
                {
                    assert_eq!(g.is_some(), trainable, "{cell} {name} grad present");
                    assert_eq!(g, g_want, "{cell} {name}");
                }
            }
        }
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
        assert_eq!(a.len(), b.len(), "{what} length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "{what}[{i}]: {x} vs {y}"
            );
        }
    }

    #[test]
    fn sparse_all_blocks_matches_dense() {
        // Every block of a BLK-wide grid active: the same neurons as the
        // dense plan's one full-width block, in `BLK`-deep pieces.
        let x = Tensor::randn(&[ROWS, D], 1.0, 1);
        let dy = Tensor::randn(&[ROWS, D], 1.0, 2);
        let build = || {
            let mut m = mlp();
            perturb(&mut m, 3);
            // Trainable biases (BitFit-style).
            bias(&mut m.fc1).trainable = true;
            bias(&mut m.fc2).trainable = true;
            m
        };
        let (mut sparse, mut dense) = (build(), build());
        let ys = sparse.forward(x.clone(), Some(&all_set()));
        let (yd, oracle) = DenseOracle::forward(&mut dense, &x);
        assert_close(ys.as_slice(), yd.as_slice(), 1e-4, "y");
        let dxs = sparse.backward(&dy);
        let dxd = oracle.backward(&mut dense, &dy);
        assert_close(dxs.as_slice(), dxd.as_slice(), 1e-3, "dx");
        for (s, d) in [
            (
                sparse.fc1.bias.as_ref().unwrap(),
                dense.fc1.bias.as_ref().unwrap(),
            ),
            (
                sparse.fc2.bias.as_ref().unwrap(),
                dense.fc2.bias.as_ref().unwrap(),
            ),
        ] {
            let (gs, gd) = (s.grad.as_ref().unwrap(), d.grad.as_ref().unwrap());
            assert_close(gs.as_slice(), gd.as_slice(), 1e-3, &s.name);
        }
    }

    /// `[dA1, dB1, dA2, dB2]` of a block with LoRA on both FCs.
    fn lora_grads(m: &MlpBlock) -> [&[f32]; 4] {
        let (l1, l2) = (m.fc1.lora.as_ref().unwrap(), m.fc2.lora.as_ref().unwrap());
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
            m.fc1.attach_lora(R, 4.0, 21);
            m.fc2.attach_lora(R, 4.0, 22);
            for (l, seed) in [(&mut m.fc1.lora, 23), (&mut m.fc2.lora, 24)] {
                let b = &mut l.as_mut().unwrap().b.value;
                let vals = lx_tensor::rng::randn_vec(b.len(), 0.3, seed);
                b.as_mut_slice().copy_from_slice(&vals);
            }
            m
        };
        let mut sparse = with_lora();
        let ys = sparse.forward(x.clone(), Some(&set));
        let dxs = sparse.backward(&dy);
        let mut dense = with_lora();
        for n in (0..FF).filter(|&n| !active(n)) {
            dense.fc2.weight.value.as_mut_slice()[n * D..(n + 1) * D].fill(0.0);
            let a2 = &mut dense.fc2.lora.as_mut().unwrap().a.value;
            a2.as_mut_slice()[n * R..(n + 1) * R].fill(0.0);
        }
        let (yd, oracle) = DenseOracle::forward(&mut dense, &x);
        let dxd = oracle.backward(&mut dense, &dy);
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
        m.fc1.attach_lora(2, 4.0, 6);
        let _ = m.forward(x.clone(), Some(&set));
        let _ = m.backward(&dy);
        let db = m.fc1.lora.as_ref().unwrap().b.grad.as_ref().unwrap();
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
        m.fc1.attach_lora(2, 2.0, 8);
        m.fc2.attach_lora(2, 2.0, 9);
        // Non-zero B so the A-grads are informative.
        for l in [m.fc1.lora.as_mut().unwrap(), m.fc2.lora.as_mut().unwrap()] {
            let vals = lx_tensor::rng::randn_vec(l.b.value.len(), 0.2, 10);
            l.b.value.as_mut_slice().copy_from_slice(&vals);
        }
        let x = Tensor::randn(&[4, D], 0.8, 11);
        let dy = Tensor::randn(&[4, D], 1.0, 12);
        let _ = m.forward(x.clone(), None);
        let _ = m.backward(&dy);
        let loss = |m: &mut MlpBlock, x: &Tensor| -> f32 {
            let y = m.forward(x.clone(), None);
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
                0 => m
                    .fc1
                    .lora
                    .as_ref()
                    .unwrap()
                    .a
                    .grad
                    .as_ref()
                    .unwrap()
                    .clone(),
                1 => m
                    .fc1
                    .lora
                    .as_ref()
                    .unwrap()
                    .b
                    .grad
                    .as_ref()
                    .unwrap()
                    .clone(),
                2 => m
                    .fc2
                    .lora
                    .as_ref()
                    .unwrap()
                    .a
                    .grad
                    .as_ref()
                    .unwrap()
                    .clone(),
                _ => m
                    .fc2
                    .lora
                    .as_ref()
                    .unwrap()
                    .b
                    .grad
                    .as_ref()
                    .unwrap()
                    .clone(),
            };
            for idx in [0usize, 3] {
                let read = |m: &MlpBlock| match which {
                    0 => m.fc1.lora.as_ref().unwrap().a.value.as_slice()[idx],
                    1 => m.fc1.lora.as_ref().unwrap().b.value.as_slice()[idx],
                    2 => m.fc2.lora.as_ref().unwrap().a.value.as_slice()[idx],
                    _ => m.fc2.lora.as_ref().unwrap().b.value.as_slice()[idx],
                };
                let write = |m: &mut MlpBlock, v: f32| match which {
                    0 => m.fc1.lora.as_mut().unwrap().a.value.as_mut_slice()[idx] = v,
                    1 => m.fc1.lora.as_mut().unwrap().b.value.as_mut_slice()[idx] = v,
                    2 => m.fc2.lora.as_mut().unwrap().a.value.as_mut_slice()[idx] = v,
                    _ => m.fc2.lora.as_mut().unwrap().b.value.as_mut_slice()[idx] = v,
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

    /// `[dA1, dB1, dA2, dB2, db1]`: [`lora_grads`] plus the BitFit bias.
    fn lora_and_bias_grads(m: &MlpBlock) -> [&[f32]; 5] {
        let [a1, b1, a2, b2] = lora_grads(m);
        [
            a1,
            b1,
            a2,
            b2,
            m.fc1
                .bias
                .as_ref()
                .unwrap()
                .grad
                .as_ref()
                .unwrap()
                .as_slice(),
        ]
    }

    /// A block whose FC weights are re-stored through `stores` in order,
    /// with LoRA (nonzero B) on both FCs and a trainable `b1` (BitFit).
    fn stored(stores: &[lx_tensor::Dtype]) -> MlpBlock {
        let mut m = mlp();
        m.fc1.attach_lora(2, 4.0, 36);
        m.fc2.attach_lora(2, 4.0, 37);
        for (l, seed) in [(&mut m.fc1.lora, 38), (&mut m.fc2.lora, 39)] {
            let b = &mut l.as_mut().unwrap().b.value;
            let vals = lx_tensor::rng::randn_vec(b.len(), 0.3, seed);
            b.as_mut_slice().copy_from_slice(&vals);
        }
        bias(&mut m.fc1).trainable = true;
        for &dtype in stores {
            m.fc1.weight.demote(dtype);
            m.fc2.weight.demote(dtype);
        }
        m
    }

    #[test]
    fn reduced_sparse_path_matches_prerounded_dense() {
        // The exactness contract behind the reduced-storage sparse path:
        // running the neuron kernels over f16 / NF4 weights read in place
        // must equal running them over a *pre-rounded* f32 model (demote →
        // promote up front: rounded for f16, dequantized for NF4) bit for
        // bit, forward and backward, because the slab decode is exact.
        let x = Tensor::randn(&[ROWS, D], 1.0, 35);
        let dy = Tensor::randn(&[ROWS, D], 1.0, 40);
        let set = Arc::new(NeuronBlockSet::from_indices(vec![0, 2, 3], FF / BLK, BLK));
        for dtype in REDUCED {
            let mut q = stored(&[dtype]);
            let mut pre = stored(&[dtype, lx_tensor::Dtype::F32]);
            let yq = q.forward(x.clone(), Some(&set));
            let yp = pre.forward(x.clone(), Some(&set));
            assert_eq!(yq.as_slice(), yp.as_slice(), "{dtype} y");
            let dxq = q.backward(&dy);
            let dxp = pre.backward(&dy);
            assert_eq!(dxq.as_slice(), dxp.as_slice(), "{dtype} dx");
            let (gq, gp) = (lora_and_bias_grads(&q), lora_and_bias_grads(&pre));
            for (which, (a, b)) in gq.iter().zip(gp).enumerate() {
                assert_eq!(*a, b, "{dtype} grad {which}");
            }
        }
    }

    #[test]
    fn sparse_reduced_path_serves_the_current_trainable_bias() {
        // BitFit on the reduced-precision sparse path: the weight bits are
        // frozen, but b1 is trainable and moves between steps. A repeated
        // plan must serve the *current* bias: the moved block equals a fresh
        // block built with the moved bias.
        let x = Tensor::randn(&[ROWS, D], 1.0, 32);
        let set = Arc::new(NeuronBlockSet::from_indices(vec![0, 2], FF / BLK, BLK));
        let nf4 = [lx_tensor::Dtype::Nf4Block];
        let mut m = stored(&nf4);
        let _ = m.forward(x.clone(), Some(&set));
        let moved = |m: &mut MlpBlock| {
            for v in bias(&mut m.fc1).value.as_mut_slice() {
                *v += 0.5; // an optimizer step moved the bias
            }
        };
        moved(&mut m);
        let mut fresh = stored(&nf4);
        moved(&mut fresh);
        let y = m.forward(x.clone(), Some(&set));
        let y_fresh = fresh.forward(x.clone(), Some(&set));
        assert_eq!(
            y.as_slice(),
            y_fresh.as_slice(),
            "must serve the moved bias"
        );
    }

    #[test]
    fn re_stored_weights_are_read_by_the_next_same_plan_forward() {
        // `w1` / `w2` are public: re-storing them between two steps over the
        // same plan (what `merge_all` plus a re-demote does) must change
        // what the next forward reads. Oracle: a fresh block stored the
        // same way.
        use lx_tensor::Dtype::{Nf4Block, F16, F32};
        let x = Tensor::randn(&[ROWS, D], 1.0, 33);
        let set = Arc::new(NeuronBlockSet::from_indices(vec![0, 2], FF / BLK, BLK));
        // f16 → NF4 directly, without `set_precision`.
        let mut m = stored(&[F16]);
        let _ = m.forward(x.clone(), Some(&set));
        m.fc1.weight.demote(Nf4Block);
        m.fc2.weight.demote(Nf4Block);
        let y = m.forward(x.clone(), Some(&set));
        let y_fresh = stored(&[F16, Nf4Block]).forward(x.clone(), Some(&set));
        assert_eq!(y.as_slice(), y_fresh.as_slice(), "f16 → nf4");
        // Promote, edit an active slab in place, re-demote.
        let edit = |m: &mut MlpBlock| {
            for w in [&mut m.fc1.weight, &mut m.fc2.weight] {
                w.value.as_mut_slice()[0] += 1.0; // neuron 0: block 0, active
                w.demote(F16);
            }
        };
        let mut m = stored(&[F16]);
        let _ = m.forward(x.clone(), Some(&set));
        for w in [&mut m.fc1.weight, &mut m.fc2.weight] {
            w.demote(F32);
        }
        edit(&mut m);
        let y = m.forward(x.clone(), Some(&set));
        let mut fresh = stored(&[F16, F32]);
        edit(&mut fresh);
        let y_fresh = fresh.forward(x.clone(), Some(&set));
        assert_eq!(y.as_slice(), y_fresh.as_slice(), "promote, edit, re-demote");
    }

    #[test]
    fn gelu_model_rejects_sparse_set() {
        let mut m = MlpBlock::new("mlp", D, FF, Activation::Gelu, 13);
        let x = Tensor::randn(&[2, D], 1.0, 14);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.forward(x.clone(), Some(&all_set()))
        }));
        assert!(result.is_err(), "GeLU + neuron sparsity must be rejected");
    }

    #[test]
    fn full_ft_weight_grads_sparse_touch_only_active() {
        let x = Tensor::randn(&[ROWS, D], 1.0, 15);
        let dy = Tensor::randn(&[ROWS, D], 1.0, 16);
        let set = Arc::new(NeuronBlockSet::from_indices(vec![3], FF / BLK, BLK));
        let mut m = mlp();
        m.fc1.weight.trainable = true;
        m.fc2.weight.trainable = true;
        let _ = m.forward(x.clone(), Some(&set));
        let _ = m.backward(&dy);
        let dw1 = m.fc1.weight.grad.as_ref().unwrap();
        let dw2 = m.fc2.weight.grad.as_ref().unwrap();
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
