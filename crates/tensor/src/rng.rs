//! Seeded random buffer helpers. Every experiment in this repo is
//! deterministic given its seed; all randomness funnels through here or
//! through explicitly-seeded `StdRng` instances.

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Standard-normal samples scaled by `std`.
pub fn randn_vec(len: usize, std: f32, seed: u64) -> Vec<f32> {
    let mut out = vec![0.0; len];
    randn_into(&mut out, std, seed);
    out
}

/// Fill `out` with the sequence [`randn_vec`]`(out.len(), std, seed)`
/// returns, without allocating.
pub fn randn_into(out: &mut [f32], std: f32, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Box-Muller; avoids pulling in rand_distr just for gaussians.
    for pair in out.chunks_mut(2) {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        pair[0] = r * theta.cos() * std;
        if let Some(v) = pair.get_mut(1) {
            *v = r * theta.sin() * std;
        }
    }
}

/// Uniform samples in `[lo, hi)`.
pub fn uniform_vec(len: usize, lo: f32, hi: f32, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = Uniform::new(lo, hi);
    (0..len).map(|_| dist.sample(&mut rng)).collect()
}

/// A seeded RNG for ad-hoc sampling in experiments.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn randn_deterministic_and_centered() {
        let a = randn_vec(10_000, 1.0, 42);
        let b = randn_vec(10_000, 1.0, 42);
        assert_eq!(a, b);
        let mean: f32 = a.iter().sum::<f32>() / a.len() as f32;
        let var: f32 = a.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / a.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn randn_std_scales() {
        let a = randn_vec(10_000, 0.1, 1);
        let var: f32 = a.iter().map(|v| v * v).sum::<f32>() / a.len() as f32;
        assert!((var - 0.01).abs() < 0.005, "var {var}");
    }

    #[test]
    fn uniform_in_range() {
        let v = uniform_vec(1000, -2.0, 3.0, 9);
        assert!(v.iter().all(|&x| (-2.0..3.0).contains(&x)));
    }

    #[test]
    fn odd_length_randn() {
        assert_eq!(randn_vec(7, 1.0, 3).len(), 7);
    }

    /// The fill draws exactly the sequence the old push loop drew, odd
    /// lengths included, and overwrites whatever the buffer held.
    #[test]
    fn randn_into_matches_the_push_loop_bitwise() {
        let push_loop = |len: usize, std: f32, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut out = Vec::with_capacity(len);
            while out.len() < len {
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                let r = (-2.0 * u1.ln()).sqrt();
                let theta = 2.0 * std::f32::consts::PI * u2;
                out.push(r * theta.cos() * std);
                if out.len() < len {
                    out.push(r * theta.sin() * std);
                }
            }
            out
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (len, seed) in [(0, 1), (1, 2), (7, 3), (8, 4), (1001, 5)] {
            let want = push_loop(len, 0.02, seed);
            let mut buf = vec![f32::NAN; len];
            randn_into(&mut buf, 0.02, seed);
            assert_eq!(bits(&buf), bits(&want), "len {len}");
            assert_eq!(bits(&randn_vec(len, 0.02, seed)), bits(&want), "len {len}");
        }
    }
}
