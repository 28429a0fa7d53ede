//! The predictors' whole-matrix layouts against the formulations they
//! replaced, which are kept here as test-only oracles.
//!
//! * **Stacked attention heads.** `Ŵq, Ŵk: [d, H·r]` projects every head in
//!   one product. The oracle is the per-head step: `[n,d]·[d,r]`
//!   projections, logits, recall-weighted BCE and `X̂ᵀ·dQ̂_h` products, one
//!   head at a time. Logits, `dŴq`, `dŴk`, the bias step and `predict_masks`
//!   must agree for n ∈ {1, 4, 32} and H ∈ {1, 8}. At H = 1 the stacked and
//!   per-head shapes are the same, so they must agree bitwise. At H = 8 the
//!   stacked product is wider, the packed kernels may round it differently,
//!   and the tolerance is 1e-5 of the compared tensor's largest magnitude.
//! * **Neuron-major MLP predictor.** The stage-two reduction is one vector
//!   log-sum-exp per block row. It is checked against the scalar libm
//!   `reduce_logits` over `X·Ŵa` and its scalar softmax-gradient loop. The
//!   reduction agrees to 1e-6. `dŴa` agrees to 1e-6 up to 64 rows and to
//!   5e-6 at 512 rows, where the oracle's own rounding is the larger error.
//!   `dŴa` also matches finite differences of the loss.
//! * **Calibration's cheap paths.** `block_logits` runs `X·Ŵaᵀ` and
//!   transposes; it equals the `Ŵa·Xᵀ` product bitwise on every arm and at
//!   1, 2 and 4 threads. The attention step reads each head through strided
//!   column windows and takes one BCE logarithm per term; it equals a copy
//!   of the copying, two-log step bitwise. The Irwin–Hall noise generator
//!   is seeded, centred, scaled and bounded.

use long_exposure::predictor::{pool_blocks, AttnPredictor, AttnSample, MlpPredictor};
use lx_kernels::{GemmGroup, GemmOp, GemmTable, Isa, Packed, Windows};
use lx_parallel::ThreadPool;
use lx_sparse::{BlockMask, NeuronBlockSet};
use lx_tensor::gemm::{matmul, matmul_tn, Layout};
use lx_tensor::rng::{irwin_hall_into, uniform_vec};
use lx_tensor::Tensor;

const D: usize = 256;
const RANK: usize = 8;

/// `got == want` bitwise when `exact`, else within `tol` of `want`'s largest
/// magnitude.
fn assert_agree(what: &str, got: &[f32], want: &[f32], exact: bool, tol: f32) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    let scale = want.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if exact {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs {w}");
        } else {
            assert!((g - w).abs() <= tol * scale, "{what}[{i}]: {g} vs {w}");
        }
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Columns `h·r..(h+1)·r` of a head-stacked matrix.
fn head_cols(stacked: &Tensor, h: usize, r: usize) -> Vec<f32> {
    (0..stacked.rows())
        .flat_map(|i| stacked.row(i)[h * r..(h + 1) * r].to_vec())
        .collect()
}

/// One head of the per-head step calibration ran before the heads were
/// stacked.
struct HeadStep {
    logits: Tensor,
    dwq: Tensor,
    dwk: Tensor,
    dbias: f32,
}

/// The per-head oracle: head `h`'s `[n,r]` projections, its logits with bias
/// and distance penalty, recall-weighted BCE, and `X̂ᵀ·dQ̂_h`, `X̂ᵀ·dK̂_h`.
fn per_head_oracle(
    p: &AttnPredictor,
    x: &Tensor,
    targets: &[BlockMask],
    pos_weight: f32,
) -> Vec<HeadStep> {
    let n = x.rows();
    (0..p.n_heads())
        .map(|h| {
            let (wq, wk) = p.head(h);
            let q = matmul(x, &wq, Layout::Normal);
            let k = matmul(x, &wk, Layout::Normal);
            let mut logits = matmul(&q, &k, Layout::Transposed);
            let slope = p.distance_slopes[h] * p.block_size as f32;
            for i in 0..n {
                for j in 0..=i {
                    logits.row_mut(i)[j] += p.bias[h];
                    if slope != 0.0 && j < i {
                        logits.row_mut(i)[j] -= slope * (i - j) as f32;
                    }
                }
            }
            let m = (n * (n + 1) / 2) as f32;
            let t = |i: usize, j: usize| if targets[h].get(i, j) { 1.0 } else { 0.0 };
            let mut weight_sum = 0.0f32;
            for i in 0..n {
                for j in 0..=i {
                    weight_sum += if t(i, j) > 0.5 { pos_weight } else { 1.0 };
                }
            }
            let mean_w = (weight_sum / m).max(1e-6);
            let mut dlogits = Tensor::zeros(&[n, n]);
            for i in 0..n {
                for j in 0..=i {
                    let p = sigmoid(logits.row(i)[j]);
                    let w = (if t(i, j) > 0.5 { pos_weight } else { 1.0 }) / mean_w;
                    dlogits.row_mut(i)[j] = w * (p - t(i, j)) / m;
                }
            }
            let dq = matmul(&dlogits, &k, Layout::Normal);
            let dk = matmul_tn(&dlogits, &q);
            HeadStep {
                dwq: matmul_tn(x, &dq),
                dwk: matmul_tn(x, &dk),
                dbias: dlogits.as_slice().iter().sum(),
                logits,
            }
        })
        .collect()
}

/// Random causal target masks, about a third of the blocks on.
fn targets(heads: usize, n: usize, seed: u64) -> Vec<BlockMask> {
    (0..heads)
        .map(|h| {
            let u = uniform_vec(n * n, 0.0, 1.0, seed + h as u64);
            let mut mask = BlockMask::square(n);
            for i in 0..n {
                for j in 0..=i {
                    mask.set(i, j, u[i * n + j] < 0.35);
                }
            }
            mask
        })
        .collect()
}

fn predictor(heads: usize, seed: u64) -> AttnPredictor {
    let mut p = AttnPredictor::new(D, heads, RANK, seed);
    let slopes = (0..heads).map(|h| 0.5f32.powi(h as i32 + 3)).collect();
    p.set_distance_slopes(slopes, 4);
    p.bias = (0..heads).map(|h| 0.1 * h as f32 - 0.3).collect();
    p
}

#[test]
fn stacked_attention_step_matches_the_per_head_oracle() {
    let pos_weight = 4.0;
    for heads in [1, 8] {
        for n in [1, 4, 32] {
            let exact = heads == 1;
            let p = predictor(heads, 3 + n as u64);
            let x = Tensor::randn(&[n, D], 1.0, 50 + n as u64);
            let targets = targets(heads, n, 70);
            let oracle = per_head_oracle(&p, &x, &targets, pos_weight);
            let logits = p.logits(&x);
            let grads = p.gradients(&x, &targets, pos_weight);
            assert_eq!(grads.dwq.shape(), &[D, heads * RANK]);
            assert_eq!(grads.count, heads * n * (n + 1) / 2);
            for (h, want) in oracle.iter().enumerate() {
                let at = format!("H={heads} n={n} head {h}");
                let tol = 1e-5;
                let (got, want_l) = (logits[h].as_slice(), want.logits.as_slice());
                assert_agree(&format!("{at} logits"), got, want_l, exact, tol);
                let dwq = head_cols(&grads.dwq, h, RANK);
                assert_agree(&format!("{at} dWq"), &dwq, want.dwq.as_slice(), exact, tol);
                let dwk = head_cols(&grads.dwk, h, RANK);
                assert_agree(&format!("{at} dWk"), &dwk, want.dwk.as_slice(), exact, tol);
                assert_agree(
                    &format!("{at} dbias"),
                    &[grads.dbias[h]],
                    &[want.dbias],
                    exact,
                    tol,
                );
            }
            // One SGD step on the one sample applies exactly these.
            let (lr, mut stepped) = (0.5, predictor(heads, 3 + n as u64));
            let sample = AttnSample {
                pooled: x.clone(),
                targets: targets.clone(),
            };
            stepped.train_epoch(std::slice::from_ref(&sample), &[], lr, pos_weight);
            let bias: Vec<f32> = (p.bias.iter().zip(&oracle))
                .map(|(b, o)| b - lr * o.dbias)
                .collect();
            assert_agree("bias step", &stepped.bias, &bias, exact, 1e-5);
            let mut wq = p.wq.clone();
            wq.axpy(-lr, &grads.dwq);
            assert_eq!(stepped.wq.as_slice(), wq.as_slice(), "wq step");
        }
    }
}

#[test]
fn stacked_predict_masks_match_the_per_head_oracle() {
    let (block, batch) = (4, 2);
    for heads in [1, 8] {
        for n in [1, 4, 32] {
            let exact = heads == 1;
            let p = predictor(heads, 9 + n as u64);
            let seq = n * block;
            let x = Tensor::randn(&[batch * seq, D], 1.0, 90 + n as u64);
            let got = p.predict_masks(&x, batch, seq, block);
            // Oracle: union over the batch of every per-head logit ≥ 0, and
            // the diagonal.
            let no_targets = targets(heads, n, 0);
            let logits: Vec<Vec<HeadStep>> = pool_blocks(&x, batch, seq, block)
                .iter()
                .map(|s| per_head_oracle(&p, s, &no_targets, 1.0))
                .collect();
            let scale = logits
                .iter()
                .flatten()
                .fold(0.0f32, |m, h| m.max(h.logits.max_abs()));
            for (h, mask) in got.iter().enumerate() {
                for i in 0..n {
                    for j in 0..n {
                        let on = j <= i
                            && (i == j || logits.iter().any(|s| s[h].logits.row(i)[j] >= 0.0));
                        if mask.get(i, j) == on {
                            continue;
                        }
                        // Only a logit within rounding of the threshold may
                        // land on the other side of it.
                        let near = logits
                            .iter()
                            .any(|s| s[h].logits.row(i)[j].abs() <= 1e-5 * scale);
                        assert!(
                            !exact && j <= i && near,
                            "H={heads} n={n} head {h} block ({i},{j}): {} vs oracle {on}",
                            mask.get(i, j)
                        );
                    }
                }
            }
        }
    }
}

/// The scalar stage-two reduction calibration used before the vector
/// log-sum-exp: per block, max over rows, libm `exp` of every shifted logit,
/// `max + ln Σ − ln rows`.
fn reduce_logits(logits: &Tensor) -> Vec<f32> {
    let (rows, n_blk) = (logits.rows(), logits.cols());
    let mut max = vec![f32::NEG_INFINITY; n_blk];
    for r in 0..rows {
        for (blk, &v) in logits.row(r).iter().enumerate() {
            if v > max[blk] {
                max[blk] = v;
            }
        }
    }
    let mut sum = vec![0.0f32; n_blk];
    for r in 0..rows {
        for (blk, &v) in logits.row(r).iter().enumerate() {
            sum[blk] += (v - max[blk]).exp();
        }
    }
    (0..n_blk)
        .map(|b| max[b] + sum[b].ln() - (rows as f32).ln())
        .collect()
}

/// The scalar MLP step: row-major logits `X·Ŵa` (`[rows, n_blk]`), the
/// scalar reduction, the softmax weight of every (row, block) from libm
/// `exp`, and `dŴa = Xᵀ·dS` stored `[d, n_blk]`.
fn scalar_mlp_oracle(
    p: &MlpPredictor,
    x: &Tensor,
    target: &NeuronBlockSet,
    pos_weight: f32,
) -> (Vec<f32>, Tensor) {
    let rows = x.rows();
    let wa = p.wa.transposed_2d(); // the old `[d, n_blk]` storage
    let logits = matmul(x, &wa, Layout::Normal);
    let reduced = reduce_logits(&logits);
    let m = p.n_blocks as f32;
    let pos = target.active.len() as f32;
    let mean_w = ((pos * pos_weight + (m - pos)) / m).max(1e-6);
    let mut dlogits = Tensor::zeros(&[rows, p.n_blocks]);
    for (blk, &red) in reduced.iter().enumerate() {
        let on = target.active.contains(&(blk as u32));
        let t = if on { 1.0 } else { 0.0 };
        let prob = sigmoid(red);
        let w = (if on { pos_weight } else { 1.0 }) / mean_w;
        let dreduced = w * (prob - t) / m;
        for r in 0..rows {
            let weight = (logits.row(r)[blk] - red).exp() / rows as f32;
            dlogits.row_mut(r)[blk] = dreduced * weight;
        }
    }
    (reduced, matmul_tn(x, &dlogits))
}

fn mlp_case(
    rows: usize,
    d: usize,
    n_blk: usize,
    seed: u64,
) -> (MlpPredictor, Tensor, NeuronBlockSet) {
    let p = MlpPredictor::new(d, 4 * n_blk, 4, seed);
    let x = Tensor::randn(&[rows, d], 1.0, seed + 1);
    let on: Vec<bool> = uniform_vec(n_blk, 0.0, 1.0, seed + 2)
        .iter()
        .map(|&u| u < 0.4)
        .collect();
    (p, x, NeuronBlockSet::from_mask(&on, 4))
}

#[test]
fn vector_mlp_reduction_matches_the_scalar_oracle() {
    // At 512 rows the oracle itself is the less accurate side: its weight
    // `exp(s − reduced)/rows` carries the rounding of `reduced` into every
    // row. Against an f64 evaluation, its dŴa is off by 3.4e-6 of the largest
    // magnitude and the vector path's by 7e-7 (reference backend). So the two
    // are held to 5e-6 there and to 1e-6 everywhere else.
    let cases = [
        (1, 8, 4, 1e-6),
        (6, 8, 4, 1e-6),
        (64, D, 64, 1e-6),
        (512, D, 64, 5e-6),
    ];
    for (rows, d, n_blk, dwa_tol) in cases {
        let (p, x, target) = mlp_case(rows, d, n_blk, rows as u64);
        let (reduced, dwa) = scalar_mlp_oracle(&p, &x, &target, 4.0);
        let at = format!("rows={rows} d={d} n_blk={n_blk}");
        let got = p.block_scores(&x);
        assert_agree(&format!("{at} reduction"), &got, &reduced, false, 1e-6);
        let (got_dwa, _) = p.gradients(&x, &target, 4.0);
        assert_eq!(got_dwa.shape(), &[n_blk, d], "neuron-major dWa");
        let want = dwa.transposed_2d();
        assert_agree(
            &format!("{at} dWa"),
            got_dwa.as_slice(),
            want.as_slice(),
            false,
            dwa_tol,
        );
    }
}

#[test]
fn mlp_gradient_matches_finite_differences() {
    let (mut p, x, target) = mlp_case(6, 8, 4, 21);
    let pos_weight = 3.0;
    let (dwa, _) = p.gradients(&x, &target, pos_weight);
    // `dŴa` is the gradient of the mean of the n_blk loss terms.
    let m = p.n_blocks as f64;
    let h = 1e-2f32;
    for idx in 0..p.wa.len() {
        let base = p.wa.as_slice()[idx];
        p.wa.as_mut_slice()[idx] = base + h;
        let up = p.gradients(&x, &target, pos_weight).1;
        p.wa.as_mut_slice()[idx] = base - h;
        let down = p.gradients(&x, &target, pos_weight).1;
        p.wa.as_mut_slice()[idx] = base;
        let fd = ((up - down) / (2.0 * h as f64) / m) as f32;
        let g = dwa.as_slice()[idx];
        assert!(
            (g - fd).abs() <= 2e-3 * (1.0 + g.abs()),
            "dWa[{idx}]: {g} vs finite difference {fd}"
        );
    }
}

/// `op` as the one-task grouped launch `Packed::gemm_on` runs, on an
/// explicit pool and microkernel arm (`None`: the launch's own choice).
fn one_task_launch(pool: &ThreadPool, isa: Option<Isa>, op: &GemmOp<'_>) -> Vec<f32> {
    let table = GemmTable::each([(0, 0, 0)]);
    let group = GemmGroup {
        m: op.m,
        k: op.k,
        n: op.n,
        a: Windows {
            data: op.a,
            ld: op.lda,
            stride: 0,
            layout: op.a_layout,
        },
        b: Windows {
            data: op.b,
            ld: op.ldb,
            stride: 0,
            layout: op.b_layout,
        },
        ldc: op.n,
        c_stride: 0,
        beta: 0.0,
        table: &table,
        bias: None,
    };
    let mut c = vec![f32::NAN; op.m * op.n];
    Packed.gemm_grouped_on(pool, isa, &group, &mut c);
    c
}

/// `MlpPredictor::block_logits` runs `X·Ŵaᵀ` and transposes the result.
/// That equals the block-major product it replaced, `Ŵa·Xᵀ`, bit for bit:
/// on every microkernel arm this host has, at 1, 2 and 4 threads, for the
/// calibration shape (512 rows, d 256, 64 blocks) and for ragged ones.
#[test]
fn row_major_block_logits_equal_the_block_major_product_bitwise() {
    let arms = [
        None,
        Some(Isa::Scalar),
        Some(Isa::Avx2),
        Some(Isa::Avx512),
        Some(Isa::Neon),
    ];
    let arms: Vec<Option<Isa>> = arms
        .into_iter()
        .filter(|isa| isa.is_none_or(Isa::supported))
        .collect();
    let pools: Vec<ThreadPool> = [1, 2, 4].into_iter().map(ThreadPool::new).collect();
    for (rows, d, n_blk) in [(512, D, 64), (37, 40, 9), (1, 8, 4), (64, D, 16)] {
        let (p, x, _) = mlp_case(rows, d, n_blk, 40 + rows as u64);
        let at = format!("rows={rows} d={d} n_blk={n_blk}");
        // The public path, on the process-wide pool and active arm.
        let old = matmul(&p.wa, &x, Layout::Transposed);
        let got = p.block_logits(&x);
        assert_eq!(got.shape(), &[n_blk, rows]);
        assert_agree(
            &format!("{at} block_logits"),
            got.as_slice(),
            old.as_slice(),
            true,
            0.0,
        );
        // Both orientations as explicit launches.
        let block_major = GemmOp::nt(n_blk, d, rows, p.wa.as_slice(), d, x.as_slice(), d);
        let row_major = GemmOp::nt(rows, d, n_blk, x.as_slice(), d, p.wa.as_slice(), d);
        for pool in &pools {
            for &isa in &arms {
                let on = format!("{at} {isa:?} threads={}", pool.threads());
                let want = one_task_launch(pool, isa, &block_major);
                let by_row =
                    Tensor::from_vec(one_task_launch(pool, isa, &row_major), &[rows, n_blk]);
                let got = by_row.transposed_2d();
                assert_agree(&on, got.as_slice(), &want, true, 0.0);
            }
        }
    }
}

/// The attention step as it was before the heads were read in place:
/// each head's `[n, r]` columns copied out of `Q̂` / `K̂`, its `dQ̂_h` /
/// `dK̂_h` copied back into the stacked gradients, and both BCE logarithms
/// evaluated for every term.
fn copied_heads_two_log_gradients(
    p: &AttnPredictor,
    x: &Tensor,
    targets: &[BlockMask],
    pos_weight: f32,
) -> (Tensor, Tensor, Vec<f32>, f64) {
    let two_log_bce = |p: f32, t: f32, w: f32| {
        let eps = 1e-7f32;
        -(w * (t * (p + eps).ln() + (1.0 - t) * (1.0 - p + eps).ln())) as f64
    };
    let copy_cols = |stacked: &Tensor, h: usize| {
        Tensor::from_vec(head_cols(stacked, h, p.rank), &[stacked.rows(), p.rank])
    };
    let put_cols = |stacked: &mut Tensor, h: usize, part: &Tensor| {
        for i in 0..part.rows() {
            stacked.row_mut(i)[h * p.rank..(h + 1) * p.rank].copy_from_slice(part.row(i));
        }
    };
    let n = x.rows();
    let m = (n * (n + 1) / 2) as f32;
    let q_all = matmul(x, &p.wq, Layout::Normal);
    let k_all = matmul(x, &p.wk, Layout::Normal);
    let mut dq_all = Tensor::zeros(&[n, p.n_heads() * p.rank]);
    let mut dk_all = Tensor::zeros(&[n, p.n_heads() * p.rank]);
    let (mut dbias, mut loss) = (Vec::new(), 0.0f64);
    for (h, target) in targets.iter().enumerate() {
        let (q, k) = (copy_cols(&q_all, h), copy_cols(&k_all, h));
        let mut logits = matmul(&q, &k, Layout::Transposed);
        let slope = p.distance_slopes[h] * p.block_size as f32;
        for i in 0..n {
            for j in 0..=i {
                logits.row_mut(i)[j] += p.bias[h];
                if slope != 0.0 && j < i {
                    logits.row_mut(i)[j] -= slope * (i - j) as f32;
                }
            }
        }
        let target = |i: usize, j: usize| if target.get(i, j) { 1.0 } else { 0.0 };
        let mut weight_sum = 0.0f32;
        for i in 0..n {
            for j in 0..=i {
                weight_sum += if target(i, j) > 0.5 { pos_weight } else { 1.0 };
            }
        }
        let mean_w = (weight_sum / m).max(1e-6);
        let mut dlogits = Tensor::zeros(&[n, n]);
        for i in 0..n {
            for j in 0..=i {
                let t = target(i, j);
                let prob = sigmoid(logits.row(i)[j]);
                let w = (if t > 0.5 { pos_weight } else { 1.0 }) / mean_w;
                loss += two_log_bce(prob, t, w);
                dlogits.row_mut(i)[j] = w * (prob - t) / m;
            }
        }
        put_cols(&mut dq_all, h, &matmul(&dlogits, &k, Layout::Normal));
        put_cols(&mut dk_all, h, &matmul_tn(&dlogits, &q));
        dbias.push(dlogits.sum());
    }
    (matmul_tn(x, &dq_all), matmul_tn(x, &dk_all), dbias, loss)
}

/// `AttnPredictor::gradients` reads every head through strided column
/// windows and evaluates one logarithm per BCE term; it equals the copying,
/// two-log step bit for bit in `dŴq`, `dŴk`, `dbias` and the loss. The
/// biases push the probabilities to exactly 0, to ~2e-9 and to exactly 1,
/// each against all-negative, all-positive and mixed targets, beside heads
/// of ordinary logits.
#[test]
fn strided_single_log_attention_step_equals_the_copying_two_log_step_bitwise() {
    let pos_weight = 4.0;
    for heads in [1, 4] {
        for n in [1, 4, 32] {
            for (scale, bias) in [(0.01, -200.0), (0.01, -20.0), (0.01, 200.0), (1.0, -0.3)] {
                let mut p = predictor(heads, 5 + n as u64);
                p.bias = vec![bias; heads];
                let x = Tensor::randn(&[n, D], scale, 60 + n as u64);
                let all = |on: bool| {
                    let mut mask = BlockMask::square(n);
                    for i in 0..n {
                        for j in 0..=i {
                            mask.set(i, j, on);
                        }
                    }
                    vec![mask; heads]
                };
                for (fill, targets) in [
                    ("t=0", all(false)),
                    ("t=1", all(true)),
                    ("mixed", targets(heads, n, 80)),
                ] {
                    let at = format!("H={heads} n={n} bias={bias} {fill}");
                    let (dwq, dwk, dbias, loss) =
                        copied_heads_two_log_gradients(&p, &x, &targets, pos_weight);
                    let got = p.gradients(&x, &targets, pos_weight);
                    assert_agree(
                        &format!("{at} dWq"),
                        got.dwq.as_slice(),
                        dwq.as_slice(),
                        true,
                        0.0,
                    );
                    assert_agree(
                        &format!("{at} dWk"),
                        got.dwk.as_slice(),
                        dwk.as_slice(),
                        true,
                        0.0,
                    );
                    assert_agree(&format!("{at} dbias"), &got.dbias, &dbias, true, 0.0);
                    assert_eq!(
                        got.loss.to_bits(),
                        loss.to_bits(),
                        "{at} loss {} vs {loss}",
                        got.loss
                    );
                }
            }
        }
    }
}

/// Calibration's noise std (`NOISE_STD` in the engine).
const NOISE_STD: f32 = 0.02;

/// The calibration noise generator is a pure function of its seed (one
/// generator word per draw, so any length is a prefix of a longer draw),
/// zero-mean with the requested std, and bounded by `2√3·std`.
#[test]
fn irwin_hall_noise_is_seeded_centred_scaled_and_bounded() {
    let draw = |len: usize, seed: u64| {
        let mut buf = vec![f32::NAN; len];
        irwin_hall_into(&mut buf, NOISE_STD, seed);
        buf
    };
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let long = draw(1001, 7);
    assert_eq!(bits(&long), bits(&draw(1001, 7)), "same seed, same bits");
    assert_ne!(
        bits(&long),
        bits(&draw(1001, 8)),
        "another seed, another stream"
    );
    for len in [0, 1, 7, 63, 1000] {
        assert_eq!(bits(&draw(len, 7)), bits(&long[..len]), "length {len}");
    }
    let n = 1 << 20;
    let v = draw(n, 42);
    let mean = v.iter().map(|&x| f64::from(x)).sum::<f64>() / n as f64;
    let var = v
        .iter()
        .map(|&x| (f64::from(x) - mean).powi(2))
        .sum::<f64>()
        / n as f64;
    let std = f64::from(NOISE_STD);
    assert!(mean.abs() <= 0.01 * std, "mean {mean}");
    assert!((var.sqrt() - std).abs() <= 0.01 * std, "std {}", var.sqrt());
    let bound = (2.0 * 3f64.sqrt() * std) as f32;
    assert!(v.iter().all(|x| x.abs() <= bound), "support beyond 2√3·std");
    let widest = v.iter().fold(0.0f32, |m, x| m.max(x.abs()));
    assert!(widest > 2.5 * NOISE_STD, "the tails are reached: {widest}");
}
