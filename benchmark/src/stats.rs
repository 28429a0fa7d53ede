//! Order statistics for timing samples.

/// Fewest samples that must lie beyond a reported percentile (the
/// choosing-metrics rule: "the highest percentile that has at least ten
/// samples beyond it").
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile (`q` in 0..=100) — the same estimator as
/// numpy's default, so `percentile(v, 50.0)` is the textbook median.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&q), "percentile {q} out of range");
    let v = sorted(samples);
    let pos = q / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Mean, or `default` when nothing was sampled (a dense run has no plan
/// densities: it reads 1.0).
pub fn mean_or(samples: &[f64], default: f64) -> f64 {
    if samples.is_empty() {
        default
    } else {
        mean(samples)
    }
}

/// Samples strictly above the `q`-th percentile.
pub fn samples_beyond(samples: &[f64], q: f64) -> usize {
    let p = percentile(samples, q);
    samples.iter().filter(|&&s| s > p).count()
}

/// Whether `q` satisfies the "at least [`MIN_BEYOND`] samples beyond" rule.
pub fn percentile_supported(samples: &[f64], q: f64) -> bool {
    !samples.is_empty() && samples_beyond(samples, q) >= MIN_BEYOND
}

/// How much worse `b` is than `a` as a share of `a` (negative = better).
pub fn relative_worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sorted-oracle percentile: nearest ranks bracket the interpolated one.
    #[test]
    fn percentile_matches_sorted_oracle() {
        let samples: Vec<f64> = (0..137).map(|i| ((i * 7919) % 137) as f64).collect();
        let oracle = sorted(&samples);
        for q in [0.0, 10.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let p = percentile(&samples, q);
            let rank = q / 100.0 * 136.0;
            assert!(p >= oracle[rank.floor() as usize] && p <= oracle[rank.ceil() as usize]);
        }
        assert_eq!(median(&samples), 68.0);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(percentile(&[5.0], 90.0), 5.0);
    }

    #[test]
    fn ten_beyond_rule() {
        let v: Vec<f64> = (0..120).map(f64::from).collect();
        assert_eq!(samples_beyond(&v, 90.0), 12);
        assert!(percentile_supported(&v, 90.0));
        assert!(!percentile_supported(&v, 99.0));
        let short: Vec<f64> = (0..40).map(f64::from).collect();
        assert!(!percentile_supported(&short, 90.0), "4 beyond p90 of 40");
        assert!(percentile_supported(&short, 50.0));
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((relative_worsening(100.0, 90.0, true) - 0.1).abs() < 1e-12);
        assert!((relative_worsening(100.0, 90.0, false) + 0.1).abs() < 1e-12);
    }
}
