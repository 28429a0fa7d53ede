//! Dense linear layer with optional LoRA adapter, and [`Lora`] — the one
//! rank-r pair every LoRA site in the model (`Linear`, MLP FC1 and FC2) and
//! the merge path use.
//!
//! The backbone weight is typically frozen under PEFT; gradients then flow
//! only into the low-rank pair `(A, B)` exactly as derived in the paper's
//! §II-C: `dW` is skipped, `dA`/`dB` are computed from the same upstream
//! gradient that the frozen path propagates to earlier layers.
//!
//! Either side of a `Linear` may be **head-major** (`Split`): the
//! `[rows, width]` activation stored as `heads` contiguous `[rows, width/heads]`
//! panels, head `h` holding columns `h·width/heads ..` — the layout the
//! attention core reads and writes. Attention's q/k/v projections write
//! their output that way and its output projection reads its input that way.
//! Each product is then one grouped launch over the heads (`launch`): a
//! head-major output is one run per head, writing its panel (with its bias
//! slice); a head-major input is K-merged, one accumulation chain across the
//! heads in head order. Every element keeps the chain of the token-major
//! product, so results are bit for bit the same while the merged depth fits
//! one k-block (`d_in ≤ KC`, 256).

use crate::param::Param;
use lx_kernels::{BOperand, Bias, GemmGroup, GemmOp, GemmTable, Windows};
use lx_sparse::neuron::{
    active_cols, fc1_backward_input, fc1_grad_weights, fc2_forward, fc2_grad_weights,
};
use lx_sparse::NeuronBlockSet;
use lx_tensor::gemm::Layout;
use lx_tensor::ops::bias_grad_rows;
use lx_tensor::Tensor;

/// How the input and output activations of a [`Linear`] (or its [`Lora`])
/// are stored: `x` heads on the input, `y` on the output, one head being the
/// token-major matrix. At most one side is split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Split {
    x: usize,
    y: usize,
}

impl Split {
    /// Token-major on both sides.
    const NONE: Split = Split { x: 1, y: 1 };

    /// A head-major output of `heads` panels (attention's q/k/v).
    fn output(heads: usize) -> Self {
        Split { x: 1, y: heads }
    }

    /// A head-major input of `heads` panels (attention's output projection).
    fn input(heads: usize) -> Self {
        Split { x: heads, y: 1 }
    }

    fn check(self, d_in: usize, d_out: usize) {
        assert!(self.x == 1 || self.y == 1, "one side of a linear is split");
        assert!(
            d_in.is_multiple_of(self.x) && d_out.is_multiple_of(self.y),
            "heads divide the width"
        );
    }
}

/// `(ld, stride)` of an activation of `width` columns over `rows` tokens
/// stored as `heads` panels: head `h` starts `h·stride` on, rows `ld` apart.
/// One head is the token-major matrix, whose one window has stride 0.
fn panels(heads: usize, rows: usize, width: usize) -> (usize, usize) {
    if heads > 1 {
        (width / heads, rows * width / heads)
    } else {
        (width, 0)
    }
}

/// `C = beta·C + op(A)·op(B)`, then the bias, over `heads` equal windows of
/// each operand: `m`, `k`, `n` are one window's extents, and an operand's
/// window `h` starts `h·stride` on — a stride of 0 is the same window for
/// every head. When C spans the heads (a non-zero `c_stride`) each head is
/// its own run, writing its own C window; otherwise the heads cut `k` and
/// form one run, which the kernel computes as one accumulation chain per C
/// element across the heads in order — bit for bit the uncut product while
/// its whole depth fits one k-block. One head is the plain product.
#[allow(clippy::too_many_arguments)]
fn launch(
    heads: usize,
    (m, k, n): (usize, usize, usize),
    a: Windows<&[f32]>,
    b: Windows<BOperand<'_>>,
    c: &mut [f32],
    (ldc, c_stride): (usize, usize),
    beta: f32,
    bias: Option<Bias<'_>>,
) {
    let spans = |stride: usize| u32::from(stride > 0);
    let (sa, sb, sc) = (spans(a.stride), spans(b.stride), spans(c_stride));
    let tasks = (0..heads as u32).map(|h| (h * sa, h * sb, h * sc));
    let table = if sc == 1 {
        GemmTable::each(tasks)
    } else {
        GemmTable::new(tasks, vec![0, heads as u32])
    };
    let g = GemmGroup {
        m,
        k,
        n,
        a,
        b,
        ldc,
        c_stride,
        beta,
        table: &table,
        bias,
    };
    lx_kernels::backend().gemm_grouped(&g, c);
}

/// A B operand's windows for a launch over heads: `ld` its stored width,
/// `block` the offset of window 1 (0 when it does not span the heads).
fn stored(data: BOperand<'_>, layout: Layout, ld: usize, block: usize) -> Windows<BOperand<'_>> {
    Windows {
        data,
        ld: ld.max(1),
        stride: block,
        layout,
    }
}

/// Add the bias gradient, the column sums of `dy`, to `dbias`; `dy` is
/// stored as `heads` panels of `dbias.len() / heads` columns.
fn bias_grad(dy: &[f32], heads: usize, dbias: &mut [f32]) {
    let panel = dy.len() / heads;
    if panel == 0 {
        return;
    }
    for (dy, dbias) in dy
        .chunks_exact(panel)
        .zip(dbias.chunks_exact_mut(dbias.len() / heads))
    {
        bias_grad_rows(dy, dbias);
    }
}

/// LoRA low-rank pair: `y += s·(x·Ã)·Bᵀ` with `s = α/r`, `Ã` the `d_in × r`
/// down-projection and `B ∈ d_out×r`. `B` starts at zero so fine-tuning
/// begins from the pre-trained function.
///
/// `A` is stored `[r, d_in]` (`Layout::Transposed`: `Linear` and MLP FC1) or
/// `[d_in, r]` (`Layout::Normal`: MLP FC2, whose row `n` then belongs to
/// input neuron `n`). The attach site fixes the orientation; it is part of
/// the parameter's shape.
///
/// On the neuron-sparse MLP path the neuron-major factor — FC1's `B`, FC2's
/// `A` — runs on the grouped `lx_sparse::neuron` kernels with `d = r`, so an
/// inactive neuron's row is neither read nor given a gradient (§II-D).
#[derive(Debug)]
pub struct Lora {
    pub a: Param,
    pub b: Param,
    pub scale: f32,
    a_layout: Layout,
    /// `x·Ã` of the last forward, consumed by the backward.
    ax: Option<Tensor>,
}

/// The other storage orientation.
fn transposed(layout: Layout) -> Layout {
    match layout {
        Layout::Normal => Layout::Transposed,
        Layout::Transposed => Layout::Normal,
    }
}

/// A `shape` tensor written in full by `kernel`.
fn filled(shape: &[usize], kernel: impl FnOnce(&mut [f32])) -> Tensor {
    let mut t = Tensor::scratch(shape);
    kernel(t.as_mut_slice());
    t
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
            ax: None,
        }
    }

    pub fn rank(&self) -> usize {
        self.b.value.shape()[1]
    }

    /// `y += s·(x·Ã)·Bᵀ`.
    pub fn forward(&mut self, x: &Tensor, y: &mut Tensor) {
        self.forward_over(x, y, None);
    }

    /// Accumulates `dA` / `dB` into the trainable halves and adds the
    /// adapter's share of the input gradient to `dx`.
    pub fn backward(&mut self, x: &Tensor, dy: &Tensor, dx: &mut Tensor) {
        self.backward_over(x, dy, dx, None);
    }

    /// The neuron-major factor `set` restricts: `A` when stored `[d_in, r]`
    /// (FC2, compact input `x`), else `B` (FC1, compact output `y`). Returns
    /// `(set for A, set for B)`.
    fn split<'s>(
        &self,
        set: Option<&'s NeuronBlockSet>,
    ) -> (Option<&'s NeuronBlockSet>, Option<&'s NeuronBlockSet>) {
        match self.a_layout {
            Layout::Normal => (set, None),
            Layout::Transposed => (None, set),
        }
    }

    /// `(d_in, d_out)` of the adapted product.
    fn dims(&self) -> (usize, usize) {
        (self.a.value.len() / self.rank().max(1), self.b.value.rows())
    }

    /// `A`'s windows over `heads` blocks of its `d_in` side, read as
    /// `op(Ã)` (`k` of `x·Ã`) or, `transpose`d, as `op(Ãᵀ)` (`n` of
    /// `d(ax)·Ãᵀ`).
    fn a_windows(&self, heads: usize, transpose: bool) -> Windows<BOperand<'_>> {
        let (d_in, r) = (self.dims().0, self.rank());
        let block = match (heads, self.a_layout) {
            (1, _) => 0,
            (_, Layout::Transposed) => d_in / heads,
            (_, Layout::Normal) => d_in / heads * r,
        };
        let layout = if transpose {
            transposed(self.a_layout)
        } else {
            self.a_layout
        };
        let ld = self.a.value.cols();
        stored(self.a.value.as_slice().into(), layout, ld, block)
    }

    /// [`forward`](Self::forward) over the active neuron blocks of `set`
    /// (every neuron when `None`). The rank-r update rides the frozen
    /// product: `y` takes `(s·ax)·Bᵀ` as a beta-1 accumulation, each element
    /// one `r`-long chain added once — no `rows × d_out` scratch, no second
    /// pass over `y`. For `s` a power of two, `s·ax` is exact and the sum is
    /// bit-identical to adding `s·((x·Ã)·Bᵀ)`.
    pub(crate) fn forward_over(
        &mut self,
        x: &Tensor,
        y: &mut Tensor,
        set: Option<&NeuronBlockSet>,
    ) {
        let (a_set, b_set) = self.split(set);
        if a_set.is_none() && b_set.is_none() {
            return self.forward_split(x, y, Split::NONE);
        }
        let (rows, r) = (x.rows(), self.rank());
        let (a, b) = (self.a.value.as_slice(), self.b.value.as_slice());
        let ax = match a_set {
            Some(set) => filled(&[rows, r], |ax| {
                fc2_forward(x.as_slice(), rows, a, r, None, set, ax)
            }),
            None => self.ax(x, 1),
        };
        let sax = self.scaled(&ax);
        match b_set {
            Some(set) => active_cols(sax.as_slice(), rows, b, r, set, 1.0, y.as_mut_slice()),
            None => self.add_up(&sax, y, 1),
        }
        self.ax = Some(ax);
    }

    /// `x·Ã`, `x` stored as `heads` panels (K-merged over them).
    fn ax(&self, x: &Tensor, heads: usize) -> Tensor {
        let (d_in, r) = (self.dims().0, self.rank());
        let rows = x.len() / d_in.max(1);
        filled(&[rows, r], |ax| {
            let (ld, stride) = panels(heads, rows, d_in);
            let x = Windows::normal(x.as_slice(), ld, stride);
            let a = self.a_windows(heads, false);
            launch(heads, (rows, d_in / heads, r), x, a, ax, (r, 0), 0.0, None)
        })
    }

    /// `s·ax`.
    fn scaled(&self, ax: &Tensor) -> Tensor {
        filled(ax.shape(), |sax| {
            for (o, &v) in sax.iter_mut().zip(ax.as_slice()) {
                *o = self.scale * v;
            }
        })
    }

    /// `y += sax·Bᵀ`, `y` stored as `heads` panels (one run per head).
    fn add_up(&self, sax: &Tensor, y: &mut Tensor, heads: usize) {
        let (rows, r, d_out) = (sax.rows(), self.rank(), self.dims().1);
        let block = if heads > 1 { d_out / heads * r } else { 0 };
        let bt = stored(self.b.value.as_slice().into(), Layout::Transposed, r, block);
        let sax = Windows::normal(sax.as_slice(), r.max(1), 0);
        let c = panels(heads, rows, d_out);
        let mkn = (rows, r, d_out / heads);
        launch(heads, mkn, sax, bt, y.as_mut_slice(), c, 1.0, None);
    }

    /// [`backward`](Self::backward) over the active neuron blocks of `set`,
    /// compact on the same side as [`forward_over`](Self::forward_over).
    /// Inactive rows of the neuron-major factor receive no gradient. The
    /// adapter's share of `dx` is a beta-1 accumulation of `d(ax)·Ãᵀ`.
    pub(crate) fn backward_over(
        &mut self,
        x: &Tensor,
        dy: &Tensor,
        dx: &mut Tensor,
        set: Option<&NeuronBlockSet>,
    ) {
        let (a_set, b_set) = self.split(set);
        if a_set.is_none() && b_set.is_none() {
            return self.backward_split(x, dy, dx, Split::NONE);
        }
        let (rows, r) = (dy.rows(), self.rank());
        let mut ax = self.ax.take().expect("LoRA backward without forward");
        // d(ax) = s·dy·B
        let b = self.b.value.as_slice();
        let mut dax = match b_set {
            Some(set) => filled(&[rows, r], |dax| {
                fc1_backward_input(dy.as_slice(), rows, b, r, set, dax)
            }),
            None => self.dax(dy, 1),
        };
        dax.scale(self.scale);
        // dB += s·dyᵀ·ax
        if self.b.trainable {
            match b_set {
                Some(set) => {
                    ax.scale(self.scale);
                    let db = self.b.grad_mut().as_mut_slice();
                    fc1_grad_weights(ax.as_slice(), dy.as_slice(), rows, r, set, db);
                }
                None => self.grad_b(dy, &ax, 1),
            }
        }
        // dA += d(ax)ᵀ·x, in A's storage orientation
        if self.a.trainable {
            match a_set {
                Some(set) => {
                    let da = self.a.grad_mut().as_mut_slice();
                    fc2_grad_weights(x.as_slice(), dax.as_slice(), rows, r, set, da);
                }
                None => self.grad_a(x, &dax, 1),
            }
        }
        // dx += d(ax)·Ãᵀ
        match a_set {
            Some(set) => {
                let (a, out) = (self.a.value.as_slice(), dx.as_mut_slice());
                active_cols(dax.as_slice(), rows, a, r, set, 1.0, out)
            }
            None => self.add_down(&dax, dx, 1),
        }
    }

    /// The dense forward with `x` / `y` stored as `split` says.
    fn forward_split(&mut self, x: &Tensor, y: &mut Tensor, split: Split) {
        let ax = self.ax(x, split.x);
        self.add_up(&self.scaled(&ax), y, split.y);
        self.ax = Some(ax);
    }

    /// The dense backward with `x`, `dy` and `dx` stored as `split` says.
    fn backward_split(&mut self, x: &Tensor, dy: &Tensor, dx: &mut Tensor, split: Split) {
        let ax = self.ax.take().expect("LoRA backward without forward");
        let mut dax = self.dax(dy, split.y);
        dax.scale(self.scale);
        if self.b.trainable {
            self.grad_b(dy, &ax, split.y);
        }
        if self.a.trainable {
            self.grad_a(x, &dax, split.x);
        }
        self.add_down(&dax, dx, split.x);
    }

    /// `dy·B`, `dy` stored as `heads` panels (K-merged over them).
    fn dax(&self, dy: &Tensor, heads: usize) -> Tensor {
        let (r, d_out) = (self.rank(), self.dims().1);
        let rows = dy.len() / d_out.max(1);
        filled(&[rows, r], |dax| {
            let block = if heads > 1 { d_out / heads * r } else { 0 };
            let b = stored(self.b.value.as_slice().into(), Layout::Normal, r, block);
            let (ld, stride) = panels(heads, rows, d_out);
            let dy = Windows::normal(dy.as_slice(), ld, stride);
            launch(
                heads,
                (rows, d_out / heads, r),
                dy,
                b,
                dax,
                (r, 0),
                0.0,
                None,
            )
        })
    }

    /// `dB += s·dyᵀ·ax`, `dy` stored as `heads` panels (one run per head).
    fn grad_b(&mut self, dy: &Tensor, ax: &Tensor, heads: usize) {
        let (rows, r, d_out) = (ax.rows(), self.rank(), self.dims().1);
        let mut db = filled(&[d_out, r], |db| {
            let (ld, stride) = panels(heads, rows, d_out);
            let dy = Windows::transposed(dy.as_slice(), ld, stride);
            let ax = stored(ax.as_slice().into(), Layout::Normal, r, 0);
            let c_stride = if heads > 1 { d_out / heads * r } else { 0 };
            launch(
                heads,
                (d_out / heads, rows, r),
                dy,
                ax,
                db,
                (r, c_stride),
                0.0,
                None,
            )
        });
        db.scale(self.scale);
        self.b.accumulate_grad(&db);
    }

    /// `dA += d(ax)ᵀ·x` in A's storage orientation, `x` stored as `heads`
    /// panels (one run per head).
    fn grad_a(&mut self, x: &Tensor, dax: &Tensor, heads: usize) {
        let (rows, r, d_in) = (dax.rows(), self.rank(), self.dims().0);
        let (ld, stride) = panels(heads, rows, d_in);
        let w = d_in / heads;
        let da = filled(self.a.value.shape(), |da| match self.a_layout {
            // [r, d_in] = d(ax)ᵀ · x
            Layout::Transposed => {
                let dax = Windows::transposed(dax.as_slice(), r.max(1), 0);
                let x = stored(x.as_slice().into(), Layout::Normal, ld, stride);
                let c = (d_in.max(1), if heads > 1 { w } else { 0 });
                launch(heads, (r, rows, w), dax, x, da, c, 0.0, None)
            }
            // [d_in, r] = xᵀ · d(ax)
            Layout::Normal => {
                let x = Windows::transposed(x.as_slice(), ld, stride);
                let dax = stored(dax.as_slice().into(), Layout::Normal, r, 0);
                let c = (r.max(1), if heads > 1 { w * r } else { 0 });
                launch(heads, (w, rows, r), x, dax, da, c, 0.0, None)
            }
        });
        self.a.accumulate_grad(&da);
    }

    /// `dx += d(ax)·Ãᵀ`, `dx` stored as `heads` panels (one run per head).
    fn add_down(&self, dax: &Tensor, dx: &mut Tensor, heads: usize) {
        let (rows, r, d_in) = (dax.rows(), self.rank(), self.dims().0);
        let at = self.a_windows(heads, true);
        let dax = Windows::normal(dax.as_slice(), r.max(1), 0);
        let c = panels(heads, rows, d_in);
        launch(
            heads,
            (rows, r, d_in / heads),
            dax,
            at,
            dx.as_mut_slice(),
            c,
            1.0,
            None,
        );
    }

    /// Fold `ΔW = s·Ã·Bᵀ` into the f32 weight `w` of the adapted linear,
    /// stored `[d_in, d_out]` (`Layout::Normal`: `Linear`, FC2) or
    /// `[d_out, d_in]` (`Layout::Transposed`: neuron-major FC1) — one GEMM
    /// accumulating into `w`.
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

/// `y = x·W (+ bias) (+ (α/r)·(x·Aᵀ)·Bᵀ)` with weight stored `d_in × d_out`.
#[derive(Debug)]
pub struct Linear {
    pub weight: Param,
    pub bias: Option<Param>,
    pub lora: Option<Lora>,
    /// The input of the last [`forward`](Self::forward) and how it is
    /// stored, consumed by the backward.
    cache_x: Option<(Tensor, Split)>,
}

impl Linear {
    /// Xavier-ish init, bias zero, no LoRA.
    pub fn new(name: &str, d_in: usize, d_out: usize, with_bias: bool, seed: u64) -> Self {
        let std = (2.0 / (d_in + d_out) as f32).sqrt();
        Linear {
            weight: Param::frozen(
                format!("{name}.weight"),
                Tensor::randn(&[d_in, d_out], std, seed),
            ),
            bias: with_bias.then(|| Param::frozen(format!("{name}.bias"), Tensor::zeros(&[d_out]))),
            lora: None,
            cache_x: None,
        }
    }

    pub fn d_in(&self) -> usize {
        self.weight.shape()[0]
    }

    pub fn d_out(&self) -> usize {
        self.weight.shape()[1]
    }

    /// Attach a LoRA adapter (marks it trainable; backbone stays as-is).
    pub fn attach_lora(&mut self, rank: usize, alpha: f32, seed: u64) {
        let name = self.weight.name.trim_end_matches(".weight").to_string();
        self.lora = Some(Lora::new(
            &name,
            self.d_in(),
            self.d_out(),
            rank,
            alpha,
            seed,
            Layout::Transposed,
        ));
    }

    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = self.project(x);
        self.cache_x = Some((x.clone(), Split::NONE));
        y
    }

    /// [`forward`](Self::forward) of an `x` stored as `heads` head panels
    /// (`[heads·rows, d_in/heads]`), taken by value: the cache keeps it
    /// without a copy, and [`backward`](Self::backward) returns `dx` stored
    /// the same way.
    pub fn forward_heads(&mut self, x: Tensor, heads: usize) -> Tensor {
        let split = Split::input(heads);
        let y = self.project_split(&x, split);
        self.cache_x = Some((x, split));
        y
    }

    /// The forward product without caching `x`, for a caller that keeps `x`
    /// itself and hands it back to [`backward_into`](Self::backward_into)
    /// (attention's q/k/v projections of one input).
    pub fn project(&mut self, x: &Tensor) -> Tensor {
        self.project_split(x, Split::NONE)
    }

    /// [`project`](Self::project) into `heads` head panels:
    /// `[heads·rows, d_out/heads]`, run `h` of one launch writing panel `h`
    /// with its slice of the bias.
    pub fn project_heads(&mut self, x: &Tensor, heads: usize) -> Tensor {
        self.project_split(x, Split::output(heads))
    }

    /// `x · W + bias (+ LoRA)` with `x` and `y` stored as `split` says, the
    /// weight in whatever storage it lives in (decoded as it is packed) and
    /// the bias added in the launch's write-back.
    fn project_split(&mut self, x: &Tensor, split: Split) -> Tensor {
        let (d_in, d_out) = (self.d_in(), self.d_out());
        split.check(d_in, d_out);
        assert_eq!(x.len() % d_in.max(1), 0, "Linear::project: x");
        let rows = x.len() / d_in.max(1);
        let heads = split.x * split.y;
        let (dhi, dho) = (d_in / split.x, d_out / split.y);
        let mut y = Tensor::scratch(&[rows * split.y, dho]);
        let (ld, stride) = panels(split.x, rows, d_in);
        let xw = Windows::normal(x.as_slice(), ld, stride);
        let w = self.weight.b_ref();
        let w = stored(w.operand(), Layout::Normal, d_out, self.w_block(split));
        // Run `h` of a split output adds its own slice.
        let bias = self.bias.as_ref().map(|b| Bias {
            data: b.value.as_slice(),
            stride: if split.y > 1 { dho } else { 0 },
        });
        let c = panels(split.y, rows, d_out);
        launch(
            heads,
            (rows, dhi, dho),
            xw,
            w,
            y.as_mut_slice(),
            c,
            0.0,
            bias,
        );
        if let Some(lora) = &mut self.lora {
            lora.forward_split(x, &mut y, split);
        }
        y
    }

    /// Offset of block 1 of W (and of dW) under `split`: row blocks of a
    /// split input, column blocks of a split output, 0 for none.
    fn w_block(&self, split: Split) -> usize {
        let (d_in, d_out) = (self.d_in(), self.d_out());
        if split.x > 1 {
            d_in / split.x * d_out
        } else if split.y > 1 {
            d_out / split.y
        } else {
            0
        }
    }

    /// Backward: returns `dx`, stored as the cached input was;
    /// accumulates grads into trainable params.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (x, split) = self
            .cache_x
            .take()
            .expect("Linear::backward without forward");
        let mut dx = Tensor::scratch(x.shape());
        self.backward_split(&x, dy, &mut dx, 0.0, split);
        dx
    }

    /// Backward of [`project`](Self::project)`(x)`: accumulates grads into
    /// trainable params and writes `dx = beta·dx + dy·Wᵀ` plus the adapter's
    /// share — `beta = 1` sums the input gradients of several projections of
    /// one input in one buffer.
    pub fn backward_into(&mut self, x: &Tensor, dy: &Tensor, dx: &mut Tensor, beta: f32) {
        self.backward_split(x, dy, dx, beta, Split::NONE)
    }

    /// [`backward_into`](Self::backward_into) of
    /// [`project_heads`](Self::project_heads)`(x, heads)`: `dy` is stored as
    /// `heads` head panels, `x` and `dx` token-major.
    pub fn backward_heads_into(
        &mut self,
        x: &Tensor,
        dy: &Tensor,
        heads: usize,
        dx: &mut Tensor,
        beta: f32,
    ) {
        self.backward_split(x, dy, dx, beta, Split::output(heads))
    }

    fn backward_split(
        &mut self,
        x: &Tensor,
        dy: &Tensor,
        dx: &mut Tensor,
        beta: f32,
        split: Split,
    ) {
        let (d_in, d_out) = (self.d_in(), self.d_out());
        split.check(d_in, d_out);
        let rows = dy.len() / d_out.max(1);
        assert_eq!(dx.len(), rows * d_in, "Linear::backward: dx");
        let heads = split.x * split.y;
        let (dhi, dho) = (d_in / split.x, d_out / split.y);
        let (x_ld, x_stride) = panels(split.x, rows, d_in);
        let (dy_ld, dy_stride) = panels(split.y, rows, d_out);
        let block = self.w_block(split);
        // dx = beta·dx + dy · Wᵀ
        let w = self.weight.b_ref();
        let wt = stored(w.operand(), Layout::Transposed, d_out, block);
        let dyw = Windows::normal(dy.as_slice(), dy_ld, dy_stride);
        let c = (x_ld, x_stride);
        launch(
            heads,
            (rows, dho, dhi),
            dyw,
            wt,
            dx.as_mut_slice(),
            c,
            beta,
            None,
        );
        if self.weight.trainable {
            // dW = xᵀ · dy, block by block of W
            let dw = filled(&[d_in, d_out], |dw| {
                let xt = Windows::transposed(x.as_slice(), x_ld, x_stride);
                let dy = stored(dy.as_slice().into(), Layout::Normal, dy_ld, dy_stride);
                launch(
                    heads,
                    (dhi, rows, dho),
                    xt,
                    dy,
                    dw,
                    (d_out, block),
                    0.0,
                    None,
                )
            });
            self.weight.accumulate_grad(&dw);
        }
        if let Some(bias) = &mut self.bias {
            if bias.trainable {
                bias_grad(dy.as_slice(), split.y, bias.grad_mut().as_mut_slice());
            }
        }
        if let Some(lora) = &mut self.lora {
            lora.backward_split(x, dy, dx, split);
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

#[cfg(test)]
mod tests {
    use super::*;
    use lx_tensor::gemm::{matmul, matmul_tn};

    fn finite_diff_loss(lin: &mut Linear, x: &Tensor, dy: &Tensor) -> f32 {
        let y = lin.forward(x);
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
        let y = lin.forward(&x);
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(y.as_slice()[2], 7.0);
    }

    #[test]
    fn frozen_weight_gets_no_grad() {
        let mut lin = Linear::new("l", 4, 3, true, 2);
        let x = Tensor::randn(&[5, 4], 1.0, 3);
        let y = lin.forward(&x);
        let dy = Tensor::randn(y.shape(), 1.0, 4);
        let _ = lin.backward(&dy);
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
        let _ = lin.forward(&x);
        let _ = lin.backward(&dy);
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
        let y0 = plain.forward(&x);
        plain.attach_lora(2, 4.0, 10);
        let y1 = plain.forward(&x);
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
        let _ = lin.forward(&x);
        let _ = lin.backward(&dy);
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
        let _ = lin.forward(&x);
        let dx = lin.backward(&dy);
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

    /// The composition the fused operator replaced, kept as its oracle:
    /// `y += s·((x·Ã)·Bᵀ)` through a `rows × d_out` scratch and an axpy,
    /// `dx += d(ax)·Ãᵀ` through a `rows × d_in` scratch and an add.
    fn composed_forward(l: &Lora, x: &Tensor, y: &mut Tensor, set: Option<&NeuronBlockSet>) {
        let (a_set, b_set) = l.split(set);
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
                lx_sparse::neuron::fc1_forward(ax.as_slice(), rows, b, r, None, set, d)
            }),
            None => matmul(&ax, &l.b.value, Layout::Transposed),
        };
        y.axpy(l.scale, &delta);
    }

    /// The composed backward: `(dA, dB)` and the adapter's share of `dx`
    /// added to `dx`.
    fn composed_backward(
        l: &Lora,
        x: &Tensor,
        dy: &Tensor,
        dx: &mut Tensor,
        set: Option<&NeuronBlockSet>,
    ) -> (Tensor, Tensor) {
        let (a_set, b_set) = l.split(set);
        let (rows, r) = (dy.rows(), l.rank());
        let (a, b) = (l.a.value.as_slice(), l.b.value.as_slice());
        let mut ax = match a_set {
            Some(set) => filled(&[rows, r], |ax| {
                fc2_forward(x.as_slice(), rows, a, r, None, set, ax)
            }),
            None => matmul(x, &l.a.value, l.a_layout),
        };
        let mut dax = match b_set {
            Some(set) => filled(&[rows, r], |dax| {
                fc1_backward_input(dy.as_slice(), rows, b, r, set, dax)
            }),
            None => matmul(dy, &l.b.value, Layout::Normal),
        };
        dax.scale(l.scale);
        let mut db = Tensor::zeros(l.b.value.shape());
        match b_set {
            Some(set) => {
                ax.scale(l.scale);
                let db = db.as_mut_slice();
                fc1_grad_weights(ax.as_slice(), dy.as_slice(), rows, r, set, db);
            }
            None => {
                db = matmul_tn(dy, &ax);
                db.scale(l.scale);
            }
        }
        let da = match (a_set, l.a_layout) {
            (Some(set), _) => filled(l.a.value.shape(), |da| {
                da.fill(0.0);
                fc2_grad_weights(x.as_slice(), dax.as_slice(), rows, r, set, da)
            }),
            (None, Layout::Transposed) => matmul_tn(&dax, x),
            (None, Layout::Normal) => matmul_tn(x, &dax),
        };
        let dx_lora = match a_set {
            Some(set) => filled(dx.shape(), |d| {
                active_cols(dax.as_slice(), rows, a, r, set, 0.0, d)
            }),
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
    /// both `A` orientations, the dense and the neuron-sparse paths: `y`,
    /// `dx`, `dA` and `dB` are bit-identical at `s = 2` (power-of-two scaling
    /// is exact), and at `s = 1.7` only `y` moves, by ≤ 1e-6 relative. Every
    /// product runs on the packed backend, whose beta-1 write-back adds each
    /// chain once, so `dx` is bit-identical at both scales.
    #[test]
    fn fused_lora_matches_the_composition() {
        let (rows, d, blk) = (128, 256, 16);
        let set = NeuronBlockSet::from_indices(vec![0, 3, 4, 5, 9, 15], d / blk, blk);
        let width = set.active_neurons();
        for (alpha, exact_y) in [(16.0, true), (13.6, false)] {
            for (a_layout, sparse) in [
                (Layout::Transposed, false),
                (Layout::Normal, false),
                (Layout::Transposed, true),
                (Layout::Normal, true),
            ] {
                let what = format!("s={} {a_layout:?} sparse={sparse}", alpha / 8.0);
                let set = sparse.then_some(&set);
                // FC1 (`A` transposed) is compact on its output, FC2 on its
                // input.
                let compact_in = sparse && a_layout == Layout::Normal;
                let compact_out = sparse && a_layout == Layout::Transposed;
                let x_cols = if compact_in { width } else { d };
                let y_cols = if compact_out { width } else { d };
                let x = Tensor::randn(&[rows, x_cols], 1.0, 40);
                let y0 = Tensor::randn(&[rows, y_cols], 1.0, 41);
                let dy = Tensor::randn(&[rows, y_cols], 1.0, 42);
                let dx0 = Tensor::randn(&[rows, x_cols], 1.0, 43);

                let mut fused = lora(a_layout, d, d, alpha);
                let (mut y, mut dx) = (y0.clone(), dx0.clone());
                fused.forward_over(&x, &mut y, set);
                fused.backward_over(&x, &dy, &mut dx, set);

                let oracle = lora(a_layout, d, d, alpha);
                let (mut y_want, mut dx_want) = (y0, dx0);
                composed_forward(&oracle, &x, &mut y_want, set);
                let (da, db) = composed_backward(&oracle, &x, &dy, &mut dx_want, set);

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
            let y = lin.forward(&x);
            let dx = lin.backward(&dy);

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
                    let y = token.project(&x);
                    let yh = split.project_heads(&x, heads);
                    assert_bits(&what("q/k/v y"), &yh, &to_panels(&y, heads));
                    let (mut dx, mut dxh) = (dx0.clone(), dx0.clone());
                    token.backward_into(&x, &dy, &mut dx, 1.0);
                    split.backward_heads_into(&x, &to_panels(&dy, heads), heads, &mut dxh, 1.0);
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
                    let y = token.forward(&x);
                    let yh = split.forward_heads(to_panels(&x, heads), heads);
                    assert_bits(&what("wo y"), &yh, &y);
                    let dx = token.backward(&dy);
                    let dxh = split.backward(&dy);
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

    #[test]
    fn param_visitor_sees_all() {
        let mut lin = Linear::new("l", 4, 4, true, 21);
        lin.attach_lora(2, 2.0, 22);
        let mut names = Vec::new();
        lin.for_each_param(&mut |p| names.push(p.name.clone()));
        assert_eq!(names, vec!["l.weight", "l.bias", "l.lora_a", "l.lora_b"]);
    }
}
