//! Causal-LM cross-entropy with ignore-index support (prompt positions and
//! padding are excluded from the loss).

use lx_kernels::{active_isa, rows, Isa};
use lx_tensor::Tensor;

/// Target id meaning "do not score this position".
pub const IGNORE_INDEX: i32 = -1;

/// `−ln softmax(row)[t]` as `max + ln Σ exp(x − max) − x[t]`: no clamp on the
/// probability, so a confidently wrong token costs what it costs and a small
/// `p[t]` loses no precision. With `grad = (drow, coef)` the same pass writes
/// `drow = coef · (softmax(row) − onehot(t))` straight from the row.
fn token_nll(isa: Isa, row: &[f32], t: i32, grad: Option<(&mut [f32], f32)>) -> f64 {
    let t = t as usize;
    assert!(t < row.len(), "target {t} out of vocab {}", row.len());
    let (max, sum) = match grad {
        None => rows::log_sum_exp(isa, row, None),
        Some((drow, coef)) => {
            let stats = rows::log_sum_exp(isa, row, Some((&mut *drow, coef)));
            drow[t] -= coef;
            stats
        }
    };
    max as f64 + (sum as f64).ln() - row[t] as f64
}

/// Sum of [`token_nll`] over the non-ignored rows, and how many there were.
fn summed_nll(logits: &Tensor, targets: &[i32]) -> (f64, usize) {
    assert_eq!(targets.len(), logits.rows(), "one target per logit row");
    let isa = active_isa();
    let scored = targets
        .iter()
        .enumerate()
        .filter(|(_, &t)| t != IGNORE_INDEX);
    scored.fold((0.0, 0), |(sum, n), (r, &t)| {
        (sum + token_nll(isa, logits.row(r), t, None), n + 1)
    })
}

/// Mean cross-entropy over non-ignored positions.
///
/// Returns `(loss, dlogits)` where `dlogits = (softmax − onehot) / n_counted`
/// — ready to feed straight into the model's backward pass.
pub fn cross_entropy(logits: &Tensor, targets: &[i32]) -> (f32, Tensor) {
    assert_eq!(targets.len(), logits.rows(), "one target per logit row");
    let counted = targets.iter().filter(|&&t| t != IGNORE_INDEX).count();
    if counted == 0 {
        return (0.0, Tensor::zeros(logits.shape()));
    }
    let isa = active_isa();
    let inv = 1.0 / counted as f32;
    // Every row is written below: scored rows by the kernel, ignored rows
    // with explicit zeros.
    let mut dlogits = Tensor::scratch(logits.shape());
    let mut loss = 0.0f64;
    for (r, &t) in targets.iter().enumerate() {
        let drow = dlogits.row_mut(r);
        if t == IGNORE_INDEX {
            drow.fill(0.0);
        } else {
            loss += token_nll(isa, logits.row(r), t, Some((drow, inv)));
        }
    }
    ((loss / counted as f64) as f32, dlogits)
}

/// Mean cross-entropy over non-ignored positions *without* materialising the
/// gradient — the evaluation-path variant of [`cross_entropy`] (no
/// `[rows, vocab]` dlogits allocation for passes that never backprop).
pub fn cross_entropy_loss(logits: &Tensor, targets: &[i32]) -> f32 {
    match summed_nll(logits, targets) {
        (_, 0) => 0.0,
        (sum, counted) => (sum / counted as f64) as f32,
    }
}

/// Sum of log-probabilities of `targets` under `logits` at non-ignored rows
/// (the lm-eval-style candidate-scoring primitive used by Table IV).
pub fn sequence_logprob(logits: &Tensor, targets: &[i32]) -> f32 {
    -summed_nll(logits, targets).0 as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_vocab() {
        let logits = Tensor::zeros(&[3, 8]);
        let targets = vec![0, 3, 7];
        let (loss, _) = cross_entropy(&logits, &targets);
        assert!((loss - (8.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn perfect_prediction_gives_near_zero_loss() {
        let mut logits = Tensor::zeros(&[2, 4]);
        logits.row_mut(0)[1] = 50.0;
        logits.row_mut(1)[2] = 50.0;
        let (loss, _) = cross_entropy(&logits, &[1, 2]);
        assert!(loss < 1e-4, "loss {loss}");
    }

    #[test]
    fn confidently_wrong_tokens_cost_their_full_margin() {
        // A 60-nat margin for the wrong answer: the loss is the margin (the
        // old `ln(max(p, 1e-12))` clamp capped it at 27.6), identically on
        // all three entry points, and the gradient still pushes the right
        // way.
        let mut logits = Tensor::zeros(&[2, 8]);
        logits.row_mut(0)[3] = 60.0;
        logits.row_mut(1)[5] = 60.0;
        let targets = [0, 6];
        let (loss, grad) = cross_entropy(&logits, &targets);
        assert!((loss - 60.0).abs() < 1e-4, "loss {loss}");
        assert_eq!(
            cross_entropy_loss(&logits, &targets).to_bits(),
            loss.to_bits()
        );
        let logprob = sequence_logprob(&logits, &targets);
        assert!((logprob + 120.0).abs() < 1e-3, "logprob {logprob}");
        assert!((grad.row(0)[0] + 0.5).abs() < 1e-6 && (grad.row(0)[3] - 0.5).abs() < 1e-6);
        // A non-finite logit must surface as a non-finite loss (the loss
        // scaler's skip path keys on it).
        logits.row_mut(1)[2] = f32::NAN;
        assert!(!cross_entropy(&logits, &targets).0.is_finite());
        logits.row_mut(1)[2] = f32::INFINITY;
        assert!(!cross_entropy_loss(&logits, &targets).is_finite());
    }

    #[test]
    fn ignored_rows_contribute_nothing() {
        let mut logits = Tensor::zeros(&[3, 4]);
        logits.row_mut(2)[0] = 100.0; // would be terrible for target 3
        let (loss_a, grad) = cross_entropy(&logits, &[0, 1, IGNORE_INDEX]);
        let logits2 = Tensor::from_vec(logits.as_slice()[..8].to_vec(), &[2, 4]);
        let (loss_b, _) = cross_entropy(&logits2, &[0, 1]);
        assert!((loss_a - loss_b).abs() < 1e-6);
        assert!(grad.row(2).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Tensor::randn(&[2, 5], 1.0, 1);
        let targets = vec![3, 0];
        let (_, grad) = cross_entropy(&logits, &targets);
        let h = 1e-3;
        for idx in [0usize, 4, 8] {
            let mut lp = logits.clone();
            lp.as_mut_slice()[idx] += h;
            let mut lm = logits.clone();
            lm.as_mut_slice()[idx] -= h;
            let (fp, _) = cross_entropy(&lp, &targets);
            let (fm, _) = cross_entropy(&lm, &targets);
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (grad.as_slice()[idx] - fd).abs() < 1e-3,
                "idx {idx}: {} vs {fd}",
                grad.as_slice()[idx]
            );
        }
    }

    #[test]
    fn grad_rows_sum_to_zero() {
        let logits = Tensor::randn(&[4, 6], 1.0, 2);
        let (_, grad) = cross_entropy(&logits, &[0, 5, 2, 1]);
        for r in 0..4 {
            let sum: f32 = grad.row(r).iter().sum();
            assert!(sum.abs() < 1e-5, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn gradient_free_loss_matches_cross_entropy_bitwise() {
        let logits = Tensor::randn(&[5, 7], 1.0, 9);
        let targets = vec![0, IGNORE_INDEX, 3, 6, 2];
        let (with_grad, _) = cross_entropy(&logits, &targets);
        let without = cross_entropy_loss(&logits, &targets);
        assert_eq!(with_grad.to_bits(), without.to_bits());
        assert_eq!(cross_entropy_loss(&logits, &[IGNORE_INDEX; 5]), 0.0);
    }

    #[test]
    fn sequence_logprob_prefers_correct_tokens() {
        let mut logits = Tensor::zeros(&[2, 4]);
        logits.row_mut(0)[1] = 5.0;
        logits.row_mut(1)[2] = 5.0;
        let good = sequence_logprob(&logits, &[1, 2]);
        let bad = sequence_logprob(&logits, &[0, 3]);
        assert!(good > bad);
    }

    #[test]
    fn all_ignored_is_zero_loss() {
        let logits = Tensor::randn(&[2, 4], 1.0, 3);
        let (loss, grad) = cross_entropy(&logits, &[IGNORE_INDEX, IGNORE_INDEX]);
        assert_eq!(loss, 0.0);
        assert!(grad.as_slice().iter().all(|&v| v == 0.0));
    }
}
