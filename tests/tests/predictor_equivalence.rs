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

use long_exposure::predictor::{pool_blocks, AttnPredictor, AttnSample, MlpPredictor};
use lx_sparse::{BlockMask, NeuronBlockSet};
use lx_tensor::gemm::{matmul, matmul_tn, Layout};
use lx_tensor::rng::uniform_vec;
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
