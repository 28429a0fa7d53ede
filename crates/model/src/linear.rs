//! [`Linear`] — every projection of the model: attention's q, k, v and o,
//! the adapters' down / up, and MLP FC1 and FC2 — and [`Lora`], the one
//! rank-r pair every LoRA site and the merge path use.
//!
//! The backbone weight is typically frozen under PEFT; gradients then flow
//! only into the low-rank pair `(A, B)` exactly as derived in the paper's
//! §II-C: `dW` is skipped, `dA`/`dB` are computed from the same upstream
//! gradient that the frozen path propagates to earlier layers.
//!
//! Every product here is one [`launch`] over the blocks of a
//! [`NeuronBlockSet`], through the tables the set built once. Each product
//! takes the [`Side`] of its input and of its output: token-major (one
//! block), `heads` head panels (`NeuronBlockSet::all(heads, width/heads)`,
//! head `h` one contiguous `[rows, width/heads]` panel: what the attention
//! core reads and writes), or the compact columns of the step's active
//! neuron blocks (the MLP's plan, which no construction can fix). The
//! caller owns the sets: attention's q/k/v write head panels and `wo` reads
//! them; FC1 writes the plan's columns and FC2 reads them. A split output is
//! one run per block, writing its window (with its bias window); a split
//! input is K-merged, one accumulation chain across the blocks in order.
//! Over head panels every element keeps the chain of the token-major
//! product, so results are bit for bit the same while the merged depth fits
//! one k-block (`d_in ≤ KC`, 256). A neuron dimension is the row dimension
//! of every matrix it indexes ([`Neurons`]), so an active neuron block is
//! one contiguous slab of the weight (§VI-B). Every weight gradient (`dW`,
//! LoRA's `dA` and `dB`) accumulates straight into its `Param::grad` with
//! beta 1, and a trainable bias takes its gradient over the active blocks
//! only.

use crate::param::Param;
use lx_kernels::{BOperand, Bias, GemmOp, Windows};
use lx_sparse::neuron::launch;
pub use lx_sparse::NeuronBlockSet;
use lx_tensor::gemm::Layout;
use lx_tensor::Tensor;

/// How one activation of a [`Linear`] or [`Lora`] product — its input or
/// its output — is stored over the blocks of a [`NeuronBlockSet`]: as head
/// panels (block `i` one contiguous `[rows, block]` panel; one panel is the
/// token-major matrix) or as compact columns (the active blocks side by side
/// in every row: the sparse MLP's `rows × active_neurons` buffers).
#[derive(Clone, Copy, Debug)]
pub struct Side<'s> {
    set: &'s NeuronBlockSet,
    panels: bool,
}

impl<'s> Side<'s> {
    /// Head panels over the blocks of `set`.
    pub fn panels(set: &'s NeuronBlockSet) -> Self {
        Side { set, panels: true }
    }

    /// Compact columns over the active blocks of `set`.
    pub fn columns(set: &'s NeuronBlockSet) -> Self {
        Side { set, panels: false }
    }

    fn block(self) -> usize {
        self.set.block_size
    }

    /// Stored width of one token's row.
    fn width(self) -> usize {
        self.set.active_neurons()
    }

    /// Token rows of an activation stored this way.
    fn rows(self, t: &Tensor) -> usize {
        match self.width() {
            0 => t.shape()[0],
            w => t.len() / w,
        }
    }

    /// Shape of an activation of `rows` token rows stored this way.
    fn shape(self, rows: usize) -> [usize; 2] {
        if self.panels {
            [rows * self.set.n_blocks_total, self.block()]
        } else {
            [rows, self.width()]
        }
    }

    /// Whether the side's blocks lie apart: all but one token-major panel.
    fn spans(self) -> bool {
        !self.panels || self.set.n_blocks_total > 1
    }

    /// Offset of block 1 in a buffer whose blocks lie `block · ld` apart;
    /// 0 for the one window of a token-major side.
    fn step(self, ld: usize) -> usize {
        if self.spans() {
            self.block() * ld
        } else {
            0
        }
    }

    /// `(ld, stride)` of an activation of `rows` token rows.
    fn act(self, rows: usize) -> (usize, usize) {
        if self.panels {
            (self.block(), self.step(rows))
        } else {
            (self.width(), self.step(1))
        }
    }
}

/// Windows over `data` stored as `layout` says, `ld` wide, window `i`
/// starting `i · stride` on — an A operand or a B operand.
fn windows<D>(data: impl Into<D>, layout: Layout, (ld, stride): (usize, usize)) -> Windows<D> {
    Windows {
        data: data.into(),
        ld: ld.max(1),
        stride,
        layout,
    }
}

/// LoRA low-rank pair: `y += s·(x·Ã)·Bᵀ` with `s = α/r`, `Ã` the `d_in × r`
/// down-projection and `B ∈ d_out×r`. `B` starts at zero so fine-tuning
/// begins from the pre-trained function.
///
/// `A` is stored `[r, d_in]` (`Layout::Transposed`: attention, adapters,
/// FC1) or `[d_in, r]` (`Layout::Normal`: FC2, whose row `n` then belongs to
/// input neuron `n`). The linear's [`Neurons`] fix the orientation; it is
/// part of the parameter's shape.
///
/// Each of the six products is one launch over the blocks of its side: the
/// input's for `x·Ã`, `dA` and `dx`, the output's for `y`, `d(ax)` and `dB`.
/// On the neuron-sparse MLP the compact side's factor — FC1's `B`, FC2's
/// `A` — is then read and given a gradient only in its active rows (§II-D).
#[derive(Debug)]
pub struct Lora {
    pub a: Param,
    pub b: Param,
    pub scale: f32,
    a_layout: Layout,
    /// `s·(x·Ã)` of the last forward, consumed by the backward.
    sax: Option<Tensor>,
}

/// The other storage orientation.
fn transposed(layout: Layout) -> Layout {
    match layout {
        Layout::Normal => Layout::Transposed,
        Layout::Transposed => Layout::Normal,
    }
}

impl Lora {
    pub fn new(
        name_prefix: &str,
        d_in: usize,
        d_out: usize,
        rank: usize,
        alpha: f32,
        seed: u64,
        a_layout: Layout,
    ) -> Self {
        let a_shape = match a_layout {
            Layout::Normal => [d_in, rank],
            Layout::Transposed => [rank, d_in],
        };
        Lora {
            a: Param::new(
                format!("{name_prefix}.lora_a"),
                Tensor::randn(&a_shape, 1.0 / rank as f32, seed),
                true,
            ),
            b: Param::new(
                format!("{name_prefix}.lora_b"),
                Tensor::zeros(&[d_out, rank]),
                true,
            ),
            scale: alpha / rank as f32,
            a_layout,
            sax: None,
        }
    }

    pub fn rank(&self) -> usize {
        self.b.value.shape()[1]
    }

    /// `y += s·(x·Ã)·Bᵀ`, `x` stored as `xs` says and `y` as `ys`. The
    /// rank-r update rides the frozen product: `y` takes `(s·ax)·Bᵀ` as a
    /// beta-1 accumulation, each element one `r`-long chain added once — no
    /// `rows × d_out` scratch, no second pass over `y`. For `s` a power of
    /// two, `s·ax` is exact and the sum is bit-identical to adding
    /// `s·((x·Ã)·Bᵀ)`.
    pub fn forward(&mut self, x: &Tensor, y: &mut Tensor, xs: Side<'_>, ys: Side<'_>) {
        let mut sax = self.ax(x, xs);
        sax.scale(self.scale);
        self.add_up(&sax, y, ys);
        self.sax = Some(sax);
    }

    /// Accumulates `dA` / `dB` into the trainable halves and adds the
    /// adapter's share of the input gradient, `d(ax)·Ãᵀ`, to `dx` as a
    /// beta-1 accumulation; `x`, `dy` and `dx` are stored as in the forward.
    pub fn backward(
        &mut self,
        x: &Tensor,
        dy: &Tensor,
        dx: &mut Tensor,
        xs: Side<'_>,
        ys: Side<'_>,
    ) {
        let sax = self.sax.take().expect("LoRA backward without forward");
        // d(ax) = s·dy·B
        let mut dax = self.dax(dy, ys);
        dax.scale(self.scale);
        if self.b.trainable {
            self.grad_b(dy, &sax, ys);
        }
        if self.a.trainable {
            self.grad_a(x, &dax, xs);
        }
        self.add_down(&dax, dx, xs);
    }

    /// `A`'s windows over the blocks of the input side `xs`, read as
    /// `op(Ã)` (`k` of `x·Ã`) or, `transpose`d, as `op(Ãᵀ)` (`n` of
    /// `d(ax)·Ãᵀ`).
    fn a_windows(&self, xs: Side<'_>, transpose: bool) -> Windows<BOperand<'_>> {
        let ld = self.a.value.cols();
        let step = match self.a_layout {
            Layout::Transposed => xs.step(1),
            Layout::Normal => xs.step(ld),
        };
        let layout = if transpose {
            transposed(self.a_layout)
        } else {
            self.a_layout
        };
        windows(self.a.value.as_slice(), layout, (ld, step))
    }

    /// `B`'s windows over the blocks of the output side `ys`.
    fn b_windows(&self, ys: Side<'_>, layout: Layout) -> Windows<BOperand<'_>> {
        let r = self.rank();
        windows(self.b.value.as_slice(), layout, (r, ys.step(r)))
    }

    /// `x·Ã`, K-merged over the blocks of `xs`.
    fn ax(&self, x: &Tensor, xs: Side<'_>) -> Tensor {
        let (rows, r) = (xs.rows(x), self.rank());
        let mut ax = Tensor::scratch(&[rows, r]);
        let x = windows(x.as_slice(), Layout::Normal, xs.act(rows));
        let mkn = (rows, xs.block(), r);
        let a = self.a_windows(xs, false);
        launch(xs.set, mkn, x, a, ax.as_mut_slice(), (r, 0), 0.0, None);
        ax
    }

    /// `y += sax·Bᵀ`, one run per block of `ys`.
    fn add_up(&self, sax: &Tensor, y: &mut Tensor, ys: Side<'_>) {
        let (rows, r) = (sax.rows(), self.rank());
        let sax = windows(sax.as_slice(), Layout::Normal, (r, 0));
        let bt = self.b_windows(ys, Layout::Transposed);
        let (mkn, c) = ((rows, r, ys.block()), ys.act(rows));
        launch(ys.set, mkn, sax, bt, y.as_mut_slice(), c, 1.0, None);
    }

    /// `dy·B`, K-merged over the blocks of `ys`.
    fn dax(&self, dy: &Tensor, ys: Side<'_>) -> Tensor {
        let (rows, r) = (ys.rows(dy), self.rank());
        let mut dax = Tensor::scratch(&[rows, r]);
        let dy = windows(dy.as_slice(), Layout::Normal, ys.act(rows));
        let b = self.b_windows(ys, Layout::Normal);
        let mkn = (rows, ys.block(), r);
        launch(ys.set, mkn, dy, b, dax.as_mut_slice(), (r, 0), 0.0, None);
        dax
    }

    /// `dB += dyᵀ·sax`, one run per block of `ys`.
    fn grad_b(&mut self, dy: &Tensor, sax: &Tensor, ys: Side<'_>) {
        let (rows, r) = (sax.rows(), self.rank());
        let dy = windows(dy.as_slice(), Layout::Transposed, ys.act(rows));
        let sax = windows(sax.as_slice(), Layout::Normal, (r, 0));
        let db = self.b.grad_mut().as_mut_slice();
        let c = (r, ys.step(r));
        launch(ys.set, (ys.block(), rows, r), dy, sax, db, c, 1.0, None);
    }

    /// `dA += d(ax)ᵀ·x` in A's storage orientation, one run per block of
    /// `xs`.
    fn grad_a(&mut self, x: &Tensor, dax: &Tensor, xs: Side<'_>) {
        let (rows, r, ld) = (dax.rows(), self.rank(), self.a.value.cols());
        let x_act = xs.act(rows);
        let da = self.a.grad_mut().as_mut_slice();
        match self.a_layout {
            // [r, d_in] = d(ax)ᵀ · x
            Layout::Transposed => {
                let dax = windows(dax.as_slice(), Layout::Transposed, (r, 0));
                let x = windows(x.as_slice(), Layout::Normal, x_act);
                let c = (ld.max(1), xs.step(1));
                launch(xs.set, (r, rows, xs.block()), dax, x, da, c, 1.0, None)
            }
            // [d_in, r] = xᵀ · d(ax)
            Layout::Normal => {
                let x = windows(x.as_slice(), Layout::Transposed, x_act);
                let dax = windows(dax.as_slice(), Layout::Normal, (r, 0));
                let c = (r.max(1), xs.step(r));
                launch(xs.set, (xs.block(), rows, r), x, dax, da, c, 1.0, None)
            }
        }
    }

    /// `dx += d(ax)·Ãᵀ`, one run per block of `xs`.
    fn add_down(&self, dax: &Tensor, dx: &mut Tensor, xs: Side<'_>) {
        let (rows, r) = (dax.rows(), self.rank());
        let dax = windows(dax.as_slice(), Layout::Normal, (r, 0));
        let at = self.a_windows(xs, true);
        let (mkn, c) = ((rows, r, xs.block()), xs.act(rows));
        launch(xs.set, mkn, dax, at, dx.as_mut_slice(), c, 1.0, None);
    }

    /// Fold `ΔW = s·Ã·Bᵀ` into the f32 weight `w` of the adapted linear,
    /// stored `[d_in, d_out]` (`Layout::Normal`) or `[d_out, d_in]`
    /// (`Layout::Transposed`: neuron-major FC1) — one GEMM accumulating into
    /// `w`.
    pub fn fold_into(&self, w: &mut Tensor, w_layout: Layout) {
        let (a, r, d_out) = (self.a.value.as_slice(), self.rank(), self.b.value.rows());
        let d_in = a.len() / r;
        let mut sb = match w_layout {
            Layout::Normal => self.b.value.transposed_2d(), // [r, d_out]
            Layout::Transposed => self.b.value.clone(),     // [d_out, r]
        };
        sb.scale(self.scale);
        let sb = sb.as_slice();
        let op = match w_layout {
            // W += Ã · (s·Bᵀ)
            Layout::Normal => {
                GemmOp::contiguous(d_in, r, d_out, a, self.a_layout, sb, Layout::Normal)
            }
            // W += (s·B) · Ãᵀ
            Layout::Transposed => GemmOp::contiguous(
                d_out,
                r,
                d_in,
                sb,
                Layout::Normal,
                a,
                transposed(self.a_layout),
            ),
        };
        lx_kernels::backend().gemm(&op, w.as_mut_slice(), op.n.max(1), 1.0);
    }
}

/// Which dimension of a [`Linear`] indexes MLP neurons, if either does. A
/// neuron dimension is the row dimension of every matrix it indexes (§VI-B):
/// an active neuron block is then one contiguous slab of the weight and of
/// the LoRA factor on that side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Neurons {
    /// Neither (attention, adapters): `W` is `[d_in, d_out]`, LoRA `A`
    /// `[r, d_in]`.
    None,
    /// The input (FC2): `W` is `[d_in, d_out]`, LoRA `A` `[d_in, r]`.
    Input,
    /// The output (FC1): `W` is `[d_out, d_in]`; LoRA `B` is `[d_out, r]`,
    /// as on every linear.
    Output,
}

impl Neurons {
    /// Storage of `W` relative to `x·W`.
    fn weight_layout(self) -> Layout {
        match self {
            Neurons::Output => Layout::Transposed,
            _ => Layout::Normal,
        }
    }

    /// Storage of LoRA's `A` relative to `x·Ã`.
    fn a_layout(self) -> Layout {
        match self {
            Neurons::Input => Layout::Normal,
            _ => Layout::Transposed,
        }
    }
}

/// `y = x·W (+ bias) (+ (α/r)·(x·Ã)·Bᵀ)`, `W` stored as its [`Neurons`]
/// say. Each product takes the [`Side`]s of its input and output, and runs
/// over the set of the side that spans blocks: head panels, the MLP's
/// compact neuron columns, or — both token-major — either one-block set.
#[derive(Debug)]
pub struct Linear {
    pub weight: Param,
    pub bias: Option<Param>,
    pub lora: Option<Lora>,
    neurons: Neurons,
    /// The input of the last [`forward`](Self::forward), consumed by the
    /// backward.
    cache_x: Option<Tensor>,
}

impl Linear {
    /// Xavier-ish init, bias zero, no LoRA: `{name}.weight` `[d_in, d_out]`
    /// and `{name}.bias`.
    pub fn new(name: &str, d_in: usize, d_out: usize, with_bias: bool, seed: u64) -> Self {
        let bias = with_bias.then(|| format!("{name}.bias"));
        Self::named(
            format!("{name}.weight"),
            bias,
            (d_in, d_out),
            Neurons::None,
            seed,
        )
    }

    /// [`new`](Self::new) with the parameter names given and `W` stored as
    /// `neurons` says (the MLP's `w1` / `b1` and `w2` / `b2`).
    pub fn named(
        weight: String,
        bias: Option<String>,
        (d_in, d_out): (usize, usize),
        neurons: Neurons,
        seed: u64,
    ) -> Self {
        let std = (2.0 / (d_in + d_out) as f32).sqrt();
        let shape = match neurons.weight_layout() {
            Layout::Normal => [d_in, d_out],
            Layout::Transposed => [d_out, d_in],
        };
        Linear {
            weight: Param::frozen(weight, Tensor::randn(&shape, std, seed)),
            bias: bias.map(|name| Param::frozen(name, Tensor::zeros(&[d_out]))),
            lora: None,
            neurons,
            cache_x: None,
        }
    }

    /// Storage of the weight relative to `x·W`: `Normal` is `[d_in, d_out]`.
    pub fn weight_layout(&self) -> Layout {
        self.neurons.weight_layout()
    }

    pub fn d_in(&self) -> usize {
        match self.weight_layout() {
            Layout::Normal => self.weight.shape()[0],
            Layout::Transposed => self.weight.shape()[1],
        }
    }

    pub fn d_out(&self) -> usize {
        match self.weight_layout() {
            Layout::Normal => self.weight.shape()[1],
            Layout::Transposed => self.weight.shape()[0],
        }
    }

    /// Attach a LoRA adapter (marks it trainable; backbone stays as-is),
    /// named after the weight less its `.weight` suffix.
    pub fn attach_lora(&mut self, rank: usize, alpha: f32, seed: u64) {
        let name = self.weight.name.trim_end_matches(".weight").to_string();
        self.lora = Some(Lora::new(
            &name,
            self.d_in(),
            self.d_out(),
            rank,
            alpha,
            seed,
            self.neurons.a_layout(),
        ));
    }

    /// `(ld, offset of block 1)` of `W` and `dW` over the blocks of `xs`
    /// and `ys`: a block of the row dimension steps `ld`, one of the column
    /// dimension 1, and a token-major side 0.
    fn w_act(&self, xs: Side<'_>, ys: Side<'_>) -> (usize, usize) {
        let ld = self.weight.shape()[1];
        let (row, col) = match self.weight_layout() {
            Layout::Normal => (xs, ys),
            Layout::Transposed => (ys, xs),
        };
        (ld, row.step(ld) + col.step(1))
    }

    /// [`project`](Self::project), caching `x` — taken by value, so without
    /// a copy — for [`backward`](Self::backward).
    pub fn forward(&mut self, x: Tensor, xs: Side<'_>, ys: Side<'_>) -> Tensor {
        let y = self.project(&x, xs, ys);
        self.cache_x = Some(x);
        y
    }

    /// `x · W + bias (+ LoRA)` without caching `x`, `x` stored as `xs` says
    /// and `y` as `ys`, for a caller that keeps `x` itself and hands it back
    /// to [`backward_into`](Self::backward_into) (attention's q/k/v
    /// projections of one input, the MLP). The weight is read in whatever
    /// storage it lives in (decoded as it is packed), and each run adds its
    /// window of the bias in the launch's write-back.
    pub fn project(&mut self, x: &Tensor, xs: Side<'_>, ys: Side<'_>) -> Tensor {
        let rows = xs.rows(x);
        assert_eq!(x.len(), rows * xs.width(), "Linear::project: x");
        let mut y = Tensor::scratch(&ys.shape(rows));
        let xw = windows(x.as_slice(), Layout::Normal, xs.act(rows));
        let w = self.weight.b_ref();
        let w = windows(w.operand(), self.weight_layout(), self.w_act(xs, ys));
        let bias = self.bias.as_ref().map(|b| Bias {
            data: b.value.as_slice(),
            stride: ys.step(1),
        });
        let (mkn, c) = ((rows, xs.block(), ys.block()), ys.act(rows));
        launch(spanned(xs, ys), mkn, xw, w, y.as_mut_slice(), c, 0.0, bias);
        if let Some(lora) = &mut self.lora {
            lora.forward(x, &mut y, xs, ys);
        }
        y
    }

    /// Backward: returns `dx`, stored as the cached input was;
    /// accumulates grads into trainable params.
    pub fn backward(&mut self, dy: &Tensor, xs: Side<'_>, ys: Side<'_>) -> Tensor {
        let x = self
            .cache_x
            .take()
            .expect("Linear::backward without forward");
        let mut dx = Tensor::scratch(x.shape());
        self.backward_into(&x, dy, &mut dx, 0.0, xs, ys);
        dx
    }

    /// Backward of [`project`](Self::project)`(x, xs, ys)`: accumulates
    /// grads into trainable params and writes `dx = beta·dx + dy·Wᵀ` plus
    /// the adapter's share — `beta = 1` sums the input gradients of several
    /// projections of one input in one buffer.
    pub fn backward_into(
        &mut self,
        x: &Tensor,
        dy: &Tensor,
        dx: &mut Tensor,
        beta: f32,
        xs: Side<'_>,
        ys: Side<'_>,
    ) {
        let rows = ys.rows(dy);
        assert_eq!(dx.len(), rows * xs.width(), "Linear::backward: dx");
        let (set, x_act, dy_act) = (spanned(xs, ys), xs.act(rows), ys.act(rows));
        // dx = beta·dx + dy · Wᵀ
        let (w, w_act) = (self.weight.b_ref(), self.w_act(xs, ys));
        let wt = windows(w.operand(), transposed(self.weight_layout()), w_act);
        let dyw = windows(dy.as_slice(), Layout::Normal, dy_act);
        let mkn = (rows, ys.block(), xs.block());
        launch(set, mkn, dyw, wt, dx.as_mut_slice(), x_act, beta, None);
        if self.weight.trainable {
            // dW += (row side)ᵀ · (column side), block by block of W
            let ((ra, rs), (ca, cs)) = match self.weight_layout() {
                Layout::Normal => ((x, xs), (dy, ys)),
                Layout::Transposed => ((dy, ys), (x, xs)),
            };
            let at = windows(ra.as_slice(), Layout::Transposed, rs.act(rows));
            let b = windows(ca.as_slice(), Layout::Normal, cs.act(rows));
            let dw = self.weight.grad_mut().as_mut_slice();
            launch(
                set,
                (rs.block(), rows, cs.block()),
                at,
                b,
                dw,
                w_act,
                1.0,
                None,
            );
        }
        if let Some(bias) = &mut self.bias {
            if bias.trainable {
                bias_grad(dy.as_slice(), ys, rows, bias.grad_mut().as_mut_slice());
            }
        }
        if let Some(lora) = &mut self.lora {
            lora.backward(x, dy, dx, xs, ys);
        }
    }

    /// Visit every parameter (weight, bias, LoRA pair).
    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
        if let Some(l) = &mut self.lora {
            f(&mut l.a);
            f(&mut l.b);
        }
    }
}

/// The set a product of `xs` and `ys` launches over: the input's if it spans
/// blocks (head panels or neuron columns), else the output's. At most one
/// side spans blocks.
fn spanned<'s>(xs: Side<'s>, ys: Side<'s>) -> &'s NeuronBlockSet {
    assert!(!(xs.spans() && ys.spans()), "one side of a linear is split");
    if xs.spans() {
        xs.set
    } else {
        ys.set
    }
}

/// Add the bias gradient — the column sums of `dy`, `rows` token rows stored
/// as `ys` says — to the active blocks of `dbias`, row by row.
fn bias_grad(dy: &[f32], ys: Side<'_>, rows: usize, dbias: &mut [f32]) {
    let ((ld, stride), b) = (ys.act(rows), ys.block());
    for r in 0..rows {
        for (ai, &blk) in ys.set.active.iter().enumerate() {
            let g = &mut dbias[blk as usize * b..][..b];
            for (g, &v) in g.iter_mut().zip(&dy[r * ld + ai * stride..][..b]) {
                *g += v;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lx_sparse::neuron::{fc1_forward, fc2_forward};
    use lx_tensor::gemm::{matmul, matmul_tn};

    /// The neuron operators the MLP ran before it was two `Linear`s, one
    /// launch each, kept as oracles. `cols`: the active columns of `x·wᵀ`
    /// for a neuron-major `w` (`total_neurons × d`) over a compact output.
    pub(crate) fn cols<'w>(
        x: &[f32],
        rows: usize,
        w: impl Into<BOperand<'w>>,
        d: usize,
        set: &NeuronBlockSet,
        out: &mut [f32],
    ) {
        let (b, width) = (set.block_size, set.active_neurons());
        let (x, w) = (Windows::normal(x, d, 0), Windows::transposed(w, d, b * d));
        launch(set, (rows, d, b), x, w, out, (width, b), 0.0, None);
    }

    /// `out = Σ_active g[:, ai] · w_blk` over a compact `g` and a row-major
    /// `w` (`total_neurons × d`).
    pub(crate) fn sum<'w>(
        g: &[f32],
        rows: usize,
        w: impl Into<BOperand<'w>>,
        d: usize,
        set: &NeuronBlockSet,
        out: &mut [f32],
    ) {
        let b = set.block_size;
        let g = Windows::normal(g, set.active_neurons(), b);
        launch(
            set,
            (rows, b, d),
            g,
            Windows::normal(w, d, b * d),
            out,
            (d, 0),
            0.0,
            None,
        );
    }

    /// `dw_blk += g_blkᵀ · x` for every active block of a compact `g`, each
    /// block owning the contiguous `b × d` slab of `dw`.
    pub(crate) fn slabs(
        g: &[f32],
        x: &[f32],
        rows: usize,
        d: usize,
        set: &NeuronBlockSet,
        dw: &mut [f32],
    ) {
        let b = set.block_size;
        let g = Windows::transposed(g, set.active_neurons(), b);
        let x = Windows::normal(x, d, 0);
        launch(set, (b, rows, d), g, x, dw, (d, b * d), 1.0, None);
    }

    /// `d` as one token-major block.
    pub(crate) fn tokens(d: usize) -> NeuronBlockSet {
        NeuronBlockSet::all(1, d)
    }

    /// [`Linear::project`] with both sides token-major.
    fn project(lin: &mut Linear, x: &Tensor) -> Tensor {
        let (i, o) = (tokens(lin.d_in()), tokens(lin.d_out()));
        lin.project(x, Side::panels(&i), Side::panels(&o))
    }

    /// [`Linear::forward`] with both sides token-major.
    fn forward(lin: &mut Linear, x: Tensor) -> Tensor {
        let (i, o) = (tokens(lin.d_in()), tokens(lin.d_out()));
        lin.forward(x, Side::panels(&i), Side::panels(&o))
    }

    /// [`Linear::backward`] with both sides token-major.
    fn backward(lin: &mut Linear, dy: &Tensor) -> Tensor {
        let (i, o) = (tokens(lin.d_in()), tokens(lin.d_out()));
        lin.backward(dy, Side::panels(&i), Side::panels(&o))
    }

    fn finite_diff_loss(lin: &mut Linear, x: &Tensor, dy: &Tensor) -> f32 {
        let y = project(lin, x);
        y.as_slice()
            .iter()
            .zip(dy.as_slice())
            .map(|(a, b)| a * b)
            .sum()
    }

    #[test]
    fn forward_shapes_and_bias() {
        let mut lin = Linear::new("l", 4, 3, true, 1);
        lin.bias.as_mut().unwrap().value.as_mut_slice()[2] = 7.0;
        let x = Tensor::zeros(&[2, 4]);
        let y = forward(&mut lin, x);
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(y.as_slice()[2], 7.0);
    }

    #[test]
    fn frozen_weight_gets_no_grad() {
        let mut lin = Linear::new("l", 4, 3, true, 2);
        let x = Tensor::randn(&[5, 4], 1.0, 3);
        let y = forward(&mut lin, x);
        let dy = Tensor::randn(y.shape(), 1.0, 4);
        let _ = backward(&mut lin, &dy);
        assert!(
            lin.weight.grad.is_none(),
            "frozen weight must not allocate grads"
        );
    }

    #[test]
    fn trainable_weight_grad_matches_finite_difference() {
        let mut lin = Linear::new("l", 3, 2, false, 5);
        lin.weight.trainable = true;
        let x = Tensor::randn(&[4, 3], 1.0, 6);
        let dy = Tensor::randn(&[4, 2], 1.0, 7);
        let _ = forward(&mut lin, x.clone());
        let _ = backward(&mut lin, &dy);
        let analytic = lin.weight.grad.as_ref().unwrap().clone();
        let h = 1e-3;
        for idx in [0usize, 3, 5] {
            let orig = lin.weight.value.as_slice()[idx];
            lin.weight.value.as_mut_slice()[idx] = orig + h;
            let lp = finite_diff_loss(&mut lin, &x, &dy);
            lin.weight.value.as_mut_slice()[idx] = orig - h;
            let lm = finite_diff_loss(&mut lin, &x, &dy);
            lin.weight.value.as_mut_slice()[idx] = orig;
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (analytic.as_slice()[idx] - fd).abs() < 1e-2,
                "idx {idx}: {} vs {fd}",
                analytic.as_slice()[idx]
            );
        }
    }

    #[test]
    fn lora_starts_as_identity_delta() {
        let mut plain = Linear::new("l", 6, 6, true, 8);
        let x = Tensor::randn(&[3, 6], 1.0, 9);
        let y0 = project(&mut plain, &x);
        plain.attach_lora(2, 4.0, 10);
        let y1 = project(&mut plain, &x);
        assert_eq!(y0, y1, "B=0 means LoRA is a no-op at init");
    }

    #[test]
    fn lora_grads_match_finite_difference() {
        let mut lin = Linear::new("l", 4, 4, false, 11);
        lin.attach_lora(2, 2.0, 12);
        // Give B nonzero values so dA is informative.
        {
            let lora = lin.lora.as_mut().unwrap();
            let vals = lx_tensor::rng::randn_vec(lora.b.value.len(), 0.3, 13);
            lora.b.value.as_mut_slice().copy_from_slice(&vals);
        }
        let x = Tensor::randn(&[5, 4], 1.0, 14);
        let dy = Tensor::randn(&[5, 4], 1.0, 15);
        let _ = forward(&mut lin, x.clone());
        let _ = backward(&mut lin, &dy);
        let da = lin.lora.as_ref().unwrap().a.grad.as_ref().unwrap().clone();
        let db = lin.lora.as_ref().unwrap().b.grad.as_ref().unwrap().clone();
        let h = 1e-3;
        for idx in [0usize, 3, 7] {
            let orig = lin.lora.as_ref().unwrap().a.value.as_slice()[idx];
            lin.lora.as_mut().unwrap().a.value.as_mut_slice()[idx] = orig + h;
            let lp = finite_diff_loss(&mut lin, &x, &dy);
            lin.lora.as_mut().unwrap().a.value.as_mut_slice()[idx] = orig - h;
            let lm = finite_diff_loss(&mut lin, &x, &dy);
            lin.lora.as_mut().unwrap().a.value.as_mut_slice()[idx] = orig;
            let fd = (lp - lm) / (2.0 * h);
            assert!((da.as_slice()[idx] - fd).abs() < 1e-2, "dA[{idx}]");
        }
        for idx in [0usize, 2, 5] {
            let orig = lin.lora.as_ref().unwrap().b.value.as_slice()[idx];
            lin.lora.as_mut().unwrap().b.value.as_mut_slice()[idx] = orig + h;
            let lp = finite_diff_loss(&mut lin, &x, &dy);
            lin.lora.as_mut().unwrap().b.value.as_mut_slice()[idx] = orig - h;
            let lm = finite_diff_loss(&mut lin, &x, &dy);
            lin.lora.as_mut().unwrap().b.value.as_mut_slice()[idx] = orig;
            let fd = (lp - lm) / (2.0 * h);
            assert!((db.as_slice()[idx] - fd).abs() < 1e-2, "dB[{idx}]");
        }
    }

    #[test]
    fn dx_includes_lora_path() {
        let mut lin = Linear::new("l", 4, 4, false, 16);
        lin.attach_lora(2, 2.0, 17);
        {
            let lora = lin.lora.as_mut().unwrap();
            let vals = lx_tensor::rng::randn_vec(lora.b.value.len(), 0.5, 18);
            lora.b.value.as_mut_slice().copy_from_slice(&vals);
        }
        let x = Tensor::randn(&[2, 4], 1.0, 19);
        let dy = Tensor::randn(&[2, 4], 1.0, 20);
        let _ = forward(&mut lin, x.clone());
        let dx = backward(&mut lin, &dy);
        // Finite difference on x itself.
        let h = 1e-3;
        for idx in [0usize, 5] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += h;
            let lp = finite_diff_loss(&mut lin, &xp, &dy);
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= h;
            let lm = finite_diff_loss(&mut lin, &xm, &dy);
            let fd = (lp - lm) / (2.0 * h);
            assert!((dx.as_slice()[idx] - fd).abs() < 1e-2, "dx[{idx}]");
        }
    }

    /// A `shape` tensor written in full by `kernel`.
    fn filled(shape: &[usize], kernel: impl FnOnce(&mut [f32])) -> Tensor {
        let mut t = Tensor::zeros(shape);
        kernel(t.as_mut_slice());
        t
    }

    /// The neuron-major factor `set` restricts: `A` when stored `[d_in, r]`
    /// (FC2, compact input `x`), else `B` (FC1, compact output `y`). Returns
    /// `(set for A, set for B)`.
    fn split<'s>(
        l: &Lora,
        set: Option<&'s NeuronBlockSet>,
    ) -> (Option<&'s NeuronBlockSet>, Option<&'s NeuronBlockSet>) {
        match l.a_layout {
            Layout::Normal => (set, None),
            Layout::Transposed => (None, set),
        }
    }

    /// The composition the fused operator replaced, kept as its oracle:
    /// `y += s·((x·Ã)·Bᵀ)` through a `rows × d_out` scratch and an axpy,
    /// `dx += d(ax)·Ãᵀ` through a `rows × d_in` scratch and an add, over
    /// token-major or compact neuron activations.
    fn composed_forward(l: &Lora, x: &Tensor, y: &mut Tensor, set: Option<&NeuronBlockSet>) {
        let (a_set, b_set) = split(l, set);
        let (rows, r) = (x.rows(), l.rank());
        let (a, b) = (l.a.value.as_slice(), l.b.value.as_slice());
        let ax = match a_set {
            Some(set) => filled(&[rows, r], |ax| {
                fc2_forward(x.as_slice(), rows, a, r, None, set, ax)
            }),
            None => matmul(x, &l.a.value, l.a_layout),
        };
        let delta = match b_set {
            Some(set) => filled(y.shape(), |d| {
                fc1_forward(ax.as_slice(), rows, b, r, None, set, d)
            }),
            None => matmul(&ax, &l.b.value, Layout::Transposed),
        };
        y.axpy(l.scale, &delta);
    }

    /// The composed backward: `(dA, dB)` and the adapter's share of `dx`
    /// added to `dx`. `dB` is `dyᵀ·(s·ax)`, `ax` scaled first.
    fn composed_backward(
        l: &Lora,
        x: &Tensor,
        dy: &Tensor,
        dx: &mut Tensor,
        set: Option<&NeuronBlockSet>,
    ) -> (Tensor, Tensor) {
        let (a_set, b_set) = split(l, set);
        let (rows, r) = (dy.rows(), l.rank());
        let (a, b) = (l.a.value.as_slice(), l.b.value.as_slice());
        let mut ax = match a_set {
            Some(set) => filled(&[rows, r], |ax| {
                fc2_forward(x.as_slice(), rows, a, r, None, set, ax)
            }),
            None => matmul(x, &l.a.value, l.a_layout),
        };
        let mut dax = match b_set {
            Some(set) => filled(&[rows, r], |dax| sum(dy.as_slice(), rows, b, r, set, dax)),
            None => matmul(dy, &l.b.value, Layout::Normal),
        };
        dax.scale(l.scale);
        ax.scale(l.scale);
        let db = match b_set {
            Some(set) => filled(l.b.value.shape(), |db| {
                slabs(dy.as_slice(), ax.as_slice(), rows, r, set, db)
            }),
            None => matmul_tn(dy, &ax),
        };
        let da = match (a_set, l.a_layout) {
            (Some(set), _) => filled(l.a.value.shape(), |da| {
                slabs(x.as_slice(), dax.as_slice(), rows, r, set, da)
            }),
            (None, Layout::Transposed) => matmul_tn(&dax, x),
            (None, Layout::Normal) => matmul_tn(x, &dax),
        };
        let dx_lora = match a_set {
            Some(set) => filled(dx.shape(), |d| cols(dax.as_slice(), rows, a, r, set, d)),
            None => matmul(&dax, &l.a.value, transposed(l.a_layout)),
        };
        dx.add_assign(&dx_lora);
        (da, db)
    }

    /// A trainable pair with a nonzero `B`, built the same way every call.
    fn lora(a_layout: Layout, d_in: usize, d_out: usize, alpha: f32) -> Lora {
        let mut l = Lora::new("l", d_in, d_out, 8, alpha, 31, a_layout);
        let vals = lx_tensor::rng::randn_vec(l.b.value.len(), 0.3, 32);
        l.b.value.as_mut_slice().copy_from_slice(&vals);
        l
    }

    fn assert_bits(what: &str, got: &Tensor, want: &Tensor) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: idx {i}: {x} vs {y}");
        }
    }

    fn assert_rel(what: &str, got: &Tensor, want: &Tensor, tol: f32) {
        let scale = want.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!((x - y).abs() <= tol * scale, "{what}: idx {i}: {x} vs {y}");
        }
    }

    /// The fused rank-r operator against the composition it replaced, on
    /// both `A` orientations and every kind of side: token-major, the
    /// neuron-sparse MLP's compact columns (FC1's output, FC2's input), and
    /// head panels on the input (as attention's `wo` reads them) or on the
    /// output (as q/v write them), the oracle running over the token-major
    /// matrices. `y`, `dx`, `dA` and `dB` are bit-identical at `s = 2`
    /// (power-of-two scaling is exact), and at `s = 1.7` only `y` moves, by
    /// ≤ 1e-6 relative. Every product runs on the packed backend, whose
    /// beta-1 write-back adds each chain once, so `dx` is bit-identical at
    /// both scales; `dB` is `dyᵀ·(s·ax)` on both sides. The head panels'
    /// K-merged reads keep the token-major chain because `d ≤ KC`.
    #[test]
    fn fused_lora_matches_the_composition() {
        let (rows, d, blk, heads) = (128, 256, 16, 4);
        assert!(d <= lx_kernels::current_policy().tiles.kc, "d ≤ KC");
        let set = NeuronBlockSet::from_indices(vec![0, 3, 4, 5, 9, 15], d / blk, blk);
        let width = set.active_neurons();
        let token_set = tokens(d);
        let panels = NeuronBlockSet::all(heads, d / heads);
        let side = |kind: &str| match kind {
            "tokens" => Side::panels(&token_set),
            "neurons" => Side::columns(&set),
            _ => Side::panels(&panels),
        };
        // A token-major matrix as the fused operator stores it.
        let stored = |t: &Tensor, kind: &str| match kind {
            "panels" => to_panels(t, heads),
            _ => t.clone(),
        };
        for (alpha, exact_y) in [(16.0, true), (13.6, false)] {
            for (a_layout, xk, yk) in [
                (Layout::Transposed, "tokens", "tokens"),
                (Layout::Normal, "tokens", "tokens"),
                (Layout::Transposed, "tokens", "neurons"),
                (Layout::Normal, "neurons", "tokens"),
                (Layout::Transposed, "panels", "tokens"),
                (Layout::Transposed, "tokens", "panels"),
            ] {
                let what = format!("s={} {a_layout:?} x={xk} y={yk}", alpha / 8.0);
                let set = (xk == "neurons" || yk == "neurons").then_some(&set);
                let x_cols = if xk == "neurons" { width } else { d };
                let y_cols = if yk == "neurons" { width } else { d };
                let x = Tensor::randn(&[rows, x_cols], 1.0, 40);
                let y0 = Tensor::randn(&[rows, y_cols], 1.0, 41);
                let dy = Tensor::randn(&[rows, y_cols], 1.0, 42);
                let dx0 = Tensor::randn(&[rows, x_cols], 1.0, 43);

                let mut fused = lora(a_layout, d, d, alpha);
                let (xs, ys) = (side(xk), side(yk));
                let (x_in, dy_in) = (stored(&x, xk), stored(&dy, yk));
                let (mut y, mut dx) = (stored(&y0, yk), stored(&dx0, xk));
                fused.forward(&x_in, &mut y, xs, ys);
                fused.backward(&x_in, &dy_in, &mut dx, xs, ys);

                let oracle = lora(a_layout, d, d, alpha);
                let (mut y_want, mut dx_want) = (y0, dx0);
                composed_forward(&oracle, &x, &mut y_want, set);
                let (da, db) = composed_backward(&oracle, &x, &dy, &mut dx_want, set);
                let (y_want, dx_want) = (stored(&y_want, yk), stored(&dx_want, xk));

                if exact_y {
                    assert_bits(&format!("{what} y"), &y, &y_want);
                } else {
                    assert_rel(&format!("{what} y"), &y, &y_want, 1e-6);
                }
                assert_bits(&format!("{what} dx"), &dx, &dx_want);
                assert_bits(&format!("{what} dA"), fused.a.grad.as_ref().unwrap(), &da);
                assert_bits(&format!("{what} dB"), fused.b.grad.as_ref().unwrap(), &db);
            }
        }
    }

    /// `Linear` with the fused adapter over f32, f16 and NF4 backbones
    /// against the frozen product plus the composed adapter, bitwise at
    /// `s = 2`.
    #[test]
    fn fused_lora_linear_matches_the_composition_on_every_backbone() {
        use lx_tensor::Dtype;
        let (rows, d) = (128, 256);
        for dtype in [Dtype::F32, Dtype::F16, Dtype::Nf4Block] {
            let mut lin = Linear::new("l", d, d, true, 50);
            lin.weight.demote(dtype);
            lin.lora = Some(lora(Layout::Transposed, d, d, 16.0));
            let x = Tensor::randn(&[rows, d], 1.0, 51);
            let dy = Tensor::randn(&[rows, d], 1.0, 52);
            let y = forward(&mut lin, x.clone());
            let dx = backward(&mut lin, &dy);

            let oracle = lora(Layout::Transposed, d, d, 16.0);
            let bias = lin.bias.as_ref().unwrap().value.as_slice();
            let mut y_want = lin.weight.matmul(&x, Layout::Normal);
            lx_tensor::ops::add_bias_rows(&mut y_want, bias);
            composed_forward(&oracle, &x, &mut y_want, None);
            let mut dx_want = lin.weight.matmul(&dy, Layout::Transposed);
            let (da, db) = composed_backward(&oracle, &x, &dy, &mut dx_want, None);

            let fused = lin.lora.as_ref().unwrap();
            assert_bits(&format!("{dtype:?} y"), &y, &y_want);
            assert_bits(&format!("{dtype:?} dx"), &dx, &dx_want);
            assert_bits(
                &format!("{dtype:?} dA"),
                fused.a.grad.as_ref().unwrap(),
                &da,
            );
            assert_bits(
                &format!("{dtype:?} dB"),
                fused.b.grad.as_ref().unwrap(),
                &db,
            );
        }
    }

    /// `[rows, h·w] → [h, rows, w]`: the head panels.
    fn to_panels(x: &Tensor, heads: usize) -> Tensor {
        let (rows, w) = (x.rows(), x.cols() / heads);
        let mut out = Tensor::zeros(&[heads * rows, w]);
        for h in 0..heads {
            for r in 0..rows {
                let src = &x.row(r)[h * w..][..w];
                out.as_mut_slice()[(h * rows + r) * w..][..w].copy_from_slice(src);
            }
        }
        out
    }

    /// Every gradient a linear holds, in visit order.
    fn grads(lin: &mut Linear) -> Vec<Option<Tensor>> {
        let mut out = Vec::new();
        lin.for_each_param(&mut |p| out.push(p.grad.clone()));
        out
    }

    /// A head-major output (attention's q/k/v) and a head-major input
    /// (attention's `wo`) against the token-major products, bitwise: `y`,
    /// `dx`, `dW` (full fine-tuning, f32), the bias gradient (trainable on
    /// every backbone, as under BitFit) and LoRA's `dA` / `dB`, on f32, f16
    /// and NF4 weights, on one thread and on the pool. The K-merged reads
    /// keep the token-major chain because `d ≤ KC`.
    #[test]
    fn head_major_sides_equal_the_token_major_products_bitwise() {
        use lx_tensor::Dtype;
        let (rows, d, heads) = (48, 64, 4);
        assert!(d <= lx_kernels::current_policy().tiles.kc, "d_model ≤ KC");
        let x = Tensor::randn(&[rows, d], 1.0, 60);
        let dy = Tensor::randn(&[rows, d], 1.0, 61);
        let dx0 = Tensor::randn(&[rows, d], 1.0, 62);
        let build = |dtype: Dtype| {
            let mut lin = Linear::new("l", d, d, true, 63);
            if dtype == Dtype::F32 {
                lin.weight.trainable = true;
            } else {
                lin.weight.demote(dtype);
            }
            lin.bias.as_mut().unwrap().trainable = true;
            let bias = lx_tensor::rng::randn_vec(d, 0.5, 64);
            lin.bias
                .as_mut()
                .unwrap()
                .value
                .as_mut_slice()
                .copy_from_slice(&bias);
            lin.lora = Some(lora(Layout::Transposed, d, d, 16.0));
            lin
        };
        let (token_set, head_set) = (tokens(d), NeuronBlockSet::all(heads, d / heads));
        let (t, h) = (Side::panels(&token_set), Side::panels(&head_set));
        for dtype in [Dtype::F32, Dtype::F16, Dtype::Nf4Block] {
            for sequential in [true, false] {
                let what = |part: &str| format!("{dtype:?} sequential={sequential}: {part}");
                let run = |f: &mut dyn FnMut()| {
                    if sequential {
                        lx_kernels::with_sequential(f)
                    } else {
                        f()
                    }
                };
                // Head-major output, as q/k/v write it.
                let (mut token, mut split) = (build(dtype), build(dtype));
                run(&mut || {
                    let y = token.project(&x, t, t);
                    let yh = split.project(&x, t, h);
                    assert_bits(&what("q/k/v y"), &yh, &to_panels(&y, heads));
                    let (mut dx, mut dxh) = (dx0.clone(), dx0.clone());
                    token.backward_into(&x, &dy, &mut dx, 1.0, t, t);
                    split.backward_into(&x, &to_panels(&dy, heads), &mut dxh, 1.0, t, h);
                    assert_bits(&what("q/k/v dx"), &dxh, &dx);
                });
                for (i, (g, gh)) in grads(&mut token).iter().zip(grads(&mut split)).enumerate() {
                    let gh = gh.as_ref();
                    assert_eq!(g.is_some(), gh.is_some(), "{}", what("grads present"));
                    if let (Some(g), Some(gh)) = (g, gh) {
                        assert_bits(&what(&format!("q/k/v grad {i}")), gh, g);
                    }
                }
                // Head-major input, as `wo` reads it.
                let (mut token, mut split) = (build(dtype), build(dtype));
                run(&mut || {
                    let y = token.forward(x.clone(), t, t);
                    let yh = split.forward(to_panels(&x, heads), h, t);
                    assert_bits(&what("wo y"), &yh, &y);
                    let dx = token.backward(&dy, t, t);
                    let dxh = split.backward(&dy, h, t);
                    assert_bits(&what("wo dx"), &dxh, &to_panels(&dx, heads));
                });
                for (i, (g, gh)) in grads(&mut token).iter().zip(grads(&mut split)).enumerate() {
                    let gh = gh.as_ref();
                    assert_eq!(g.is_some(), gh.is_some(), "{}", what("grads present"));
                    if let (Some(g), Some(gh)) = (g, gh) {
                        assert_bits(&what(&format!("wo grad {i}")), gh, g);
                    }
                }
            }
        }
    }

    /// The neuron-side grid of the ported operator tests: 4 blocks of 4.
    const ROWS: usize = 6;
    const D_IN: usize = 10;
    const H: usize = 16;
    const D_OUT: usize = 12;
    const B: usize = 4;

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "idx {i}: {x} vs {y}"
            );
        }
    }

    /// FC1 (`D_IN → H`, neuron-major `[H, D_IN]`) and FC2 (`H → D_OUT`,
    /// `[H, D_OUT]`), as the MLP builds them.
    fn fc_pair(seed: u64) -> (Linear, Linear) {
        let fc = |w: &str, b: &str, dims, neurons, seed| {
            Linear::named(w.into(), Some(b.into()), dims, neurons, seed)
        };
        (
            fc("w1", "b1", (D_IN, H), Neurons::Output, seed),
            fc("w2", "b2", (H, D_OUT), Neurons::Input, seed + 1),
        )
    }

    #[test]
    fn backward_input_paths_match_dense() {
        let set = NeuronBlockSet::from_indices(vec![0, 3], H / B, B);
        let (width, cols) = (set.active_neurons(), Side::columns(&set));
        let (t_in, t_out) = (tokens(D_IN), tokens(D_OUT));
        let (mut fc1, mut fc2) = fc_pair(12);
        let dy = Tensor::randn(&[ROWS, D_OUT], 1.0, 14);
        let dz = Tensor::randn(&[ROWS, width], 1.0, 15);

        // FC2's input gradient: compact dA = dY · W2_activeᵀ.
        let a = Tensor::zeros(&[ROWS, width]);
        let mut da = Tensor::zeros(&[ROWS, width]);
        fc2.backward_into(&a, &dy, &mut da, 0.0, cols, Side::panels(&t_out));
        let (w2, dy_s, da) = (fc2.weight.value.as_slice(), dy.as_slice(), da.as_slice());
        // Oracle: dY · W2ᵀ then gather active columns.
        let mut da_full = vec![0.0; ROWS * H];
        for r in 0..ROWS {
            for n in 0..H {
                let mut acc = 0.0;
                for c in 0..D_OUT {
                    acc += dy_s[r * D_OUT + c] * w2[n * D_OUT + c];
                }
                da_full[r * H + n] = acc;
            }
        }
        for r in 0..ROWS {
            for (ai, &blk) in set.active.iter().enumerate() {
                for t in 0..B {
                    assert!(
                        (da[r * width + ai * B + t] - da_full[r * H + blk as usize * B + t]).abs()
                            < 1e-4
                    );
                }
            }
        }

        // FC1's input gradient: dX = Σ_active dZ_blk · W1_blk.
        let x = Tensor::zeros(&[ROWS, D_IN]);
        let mut dx = Tensor::zeros(&[ROWS, D_IN]);
        fc1.backward_into(&x, &dz, &mut dx, 0.0, Side::panels(&t_in), cols);
        let (w1t, dz_s) = (fc1.weight.value.as_slice(), dz.as_slice());
        // Oracle: scatter dz to full width then dZ · W1ᵀ.
        let mut dz_full = vec![0.0; ROWS * H];
        for r in 0..ROWS {
            for (ai, &blk) in set.active.iter().enumerate() {
                for t in 0..B {
                    dz_full[r * H + blk as usize * B + t] = dz_s[r * width + ai * B + t];
                }
            }
        }
        let mut expect = vec![0.0; ROWS * D_IN];
        for r in 0..ROWS {
            for n in 0..H {
                let g = dz_full[r * H + n];
                for i in 0..D_IN {
                    expect[r * D_IN + i] += g * w1t[n * D_IN + i];
                }
            }
        }
        assert_close(dx.as_slice(), &expect, 1e-4);
    }

    #[test]
    fn weight_gradients_touch_only_active_blocks() {
        let set = NeuronBlockSet::from_indices(vec![2], H / B, B);
        let (width, cols) = (set.active_neurons(), Side::columns(&set));
        let (t_in, t_out) = (tokens(D_IN), tokens(D_OUT));
        let (mut fc1, mut fc2) = fc_pair(16);
        fc1.for_each_param(&mut |p| p.trainable = true);
        fc2.weight.trainable = true;
        let x = Tensor::randn(&[ROWS, D_IN], 1.0, 16);
        let dz = Tensor::randn(&[ROWS, width], 1.0, 17);
        let mut dx = Tensor::zeros(&[ROWS, D_IN]);
        fc1.backward_into(&x, &dz, &mut dx, 0.0, Side::panels(&t_in), cols);
        let dw1t = fc1.weight.grad.as_ref().unwrap().as_slice();
        let dbias = fc1.bias.as_ref().unwrap().grad.as_ref().unwrap().as_slice();
        let slab = |n: usize| &dw1t[n * D_IN..(n + 1) * D_IN];
        #[allow(clippy::needless_range_loop)]
        for n in 0..H {
            let in_active = (8..12).contains(&n);
            let col_nonzero = slab(n).iter().any(|&v| v != 0.0);
            assert_eq!(col_nonzero, in_active, "neuron {n}");
            assert_eq!(dbias[n] != 0.0, in_active, "bias {n}");
        }
        // Check one value against the naive sum.
        let (n, x, dz) = (9, x.as_slice(), dz.as_slice());
        let t = n - 8;
        let mut expect = vec![0.0; D_IN];
        for r in 0..ROWS {
            let g = dz[r * width + t];
            for i in 0..D_IN {
                expect[i] += g * x[r * D_IN + i];
            }
        }
        assert_close(slab(n), &expect, 1e-4);

        let dy = Tensor::randn(&[ROWS, D_OUT], 1.0, 18);
        let a = Tensor::randn(&[ROWS, width], 1.0, 19);
        let mut da = Tensor::zeros(&[ROWS, width]);
        fc2.backward_into(&a, &dy, &mut da, 0.0, cols, Side::panels(&t_out));
        let dw2 = fc2.weight.grad.as_ref().unwrap().as_slice();
        for n in 0..H {
            let in_active = (8..12).contains(&n);
            let row_nonzero = dw2[n * D_OUT..(n + 1) * D_OUT].iter().any(|&v| v != 0.0);
            assert_eq!(row_nonzero, in_active, "w2 row {n}");
        }
    }

    #[test]
    fn empty_active_set_is_harmless() {
        let set = NeuronBlockSet::from_indices(vec![], H / B, B);
        let cols = Side::columns(&set);
        let (t_in, t_out) = (tokens(D_IN), tokens(D_OUT));
        let (mut fc1, mut fc2) = fc_pair(22);
        fc1.weight.trainable = true;
        let x = Tensor::randn(&[ROWS, D_IN], 1.0, 22);
        let z = fc1.forward(x, Side::panels(&t_in), cols);
        assert_eq!(z.shape(), &[ROWS, 0]);
        let bias = lx_tensor::rng::randn_vec(D_OUT, 1.0, 23);
        let b2 = &mut fc2.bias.as_mut().unwrap().value;
        b2.as_mut_slice().copy_from_slice(&bias);
        let y = fc2.project(&z, cols, Side::panels(&t_out));
        for r in 0..ROWS {
            assert_close(y.row(r), &bias, 1e-6);
        }
        let dx = fc1.backward(&z, Side::panels(&t_in), cols);
        assert!(dx.as_slice().iter().all(|&v| v == 0.0));
        let dw1 = fc1.weight.grad.as_ref().unwrap();
        assert!(dw1.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn param_visitor_sees_all() {
        let mut lin = Linear::new("l", 4, 4, true, 21);
        lin.attach_lora(2, 2.0, 22);
        let mut names = Vec::new();
        lin.for_each_param(&mut |p| names.push(p.name.clone()));
        assert_eq!(names, vec!["l.weight", "l.bias", "l.lora_a", "l.lora_b"]);
    }
}
