//! The shared synthetic language: a deterministic token-pairing structure.
//!
//! Every "content" token `t` has a unique partner `partner(t)`. Well-formed
//! text consists of `(t, partner(t))` bigrams separated by filler; learning
//! the partner function is the planted signal that fine-tuning must pick up
//! and the downstream tasks test for.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Reserved special tokens at the bottom of the vocabulary (id 0 is
/// reserved but never emitted).
pub const TOK_BOS: u32 = 1;
pub const TOK_SEP: u32 = 2;
pub const TOK_YES: u32 = 3;
pub const TOK_NO: u32 = 4;
pub const N_SPECIAL: u32 = 8;

#[derive(Debug, Clone)]
pub struct SyntheticWorld {
    pub vocab_size: u32,
    /// `partner[t]` for content tokens (indexed from 0 = first content tok).
    partner: Vec<u32>,
    pub seed: u64,
}

impl SyntheticWorld {
    /// Build a world with a random (but seed-deterministic) pairing.
    pub fn new(vocab_size: u32, seed: u64) -> Self {
        assert!(vocab_size > N_SPECIAL + 16, "vocab too small");
        let n_content = vocab_size - N_SPECIAL;
        let mut rng = StdRng::seed_from_u64(seed);
        // A random involution-free permutation as the partner map.
        let mut perm: Vec<u32> = (0..n_content).collect();
        perm.shuffle(&mut rng);
        SyntheticWorld {
            vocab_size,
            partner: perm,
            seed,
        }
    }

    pub fn n_content(&self) -> u32 {
        self.vocab_size - N_SPECIAL
    }

    /// First content token id.
    pub fn content_base(&self) -> u32 {
        N_SPECIAL
    }

    /// The partner of content token `t` (panics on special tokens).
    pub fn partner(&self, t: u32) -> u32 {
        assert!(
            t >= N_SPECIAL && t < self.vocab_size,
            "not a content token: {t}"
        );
        self.partner[(t - N_SPECIAL) as usize] + N_SPECIAL
    }

    /// A random content token.
    pub fn sample_content(&self, rng: &mut StdRng) -> u32 {
        rng.gen_range(N_SPECIAL..self.vocab_size)
    }

    /// A random content token that is *not* `t`'s partner (a distractor).
    pub fn sample_distractor(&self, t: u32, rng: &mut StdRng) -> u32 {
        let p = self.partner(t);
        loop {
            let cand = self.sample_content(rng);
            if cand != p {
                return cand;
            }
        }
    }

    /// Emit a well-formed "sentence": `k` partner bigrams.
    pub fn sentence(&self, k: usize, rng: &mut StdRng) -> Vec<u32> {
        let mut out = Vec::with_capacity(2 * k);
        for _ in 0..k {
            let t = self.sample_content(rng);
            out.push(t);
            out.push(self.partner(t));
        }
        out
    }

    pub fn rng(&self, salt: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partner_is_a_bijection() {
        let w = SyntheticWorld::new(128, 1);
        let mut seen = std::collections::HashSet::new();
        for t in N_SPECIAL..128 {
            let p = w.partner(t);
            assert!((N_SPECIAL..128).contains(&p));
            assert!(seen.insert(p), "partner {p} repeated");
        }
    }

    #[test]
    fn world_is_seed_deterministic() {
        let a = SyntheticWorld::new(64, 7);
        let b = SyntheticWorld::new(64, 7);
        let c = SyntheticWorld::new(64, 8);
        for t in N_SPECIAL..64 {
            assert_eq!(a.partner(t), b.partner(t));
        }
        assert!((N_SPECIAL..64).any(|t| a.partner(t) != c.partner(t)));
    }

    #[test]
    fn sentences_are_partner_bigrams() {
        let w = SyntheticWorld::new(64, 2);
        let mut rng = w.rng(1);
        let s = w.sentence(5, &mut rng);
        assert_eq!(s.len(), 10);
        for pair in s.chunks(2) {
            assert_eq!(w.partner(pair[0]), pair[1]);
        }
    }

    #[test]
    fn distractor_never_partner() {
        let w = SyntheticWorld::new(64, 3);
        let mut rng = w.rng(2);
        for _ in 0..50 {
            let t = w.sample_content(&mut rng);
            let d = w.sample_distractor(t, &mut rng);
            assert_ne!(d, w.partner(t));
        }
    }

    #[test]
    #[should_panic(expected = "not a content token")]
    fn partner_of_special_panics() {
        let w = SyntheticWorld::new(64, 4);
        w.partner(TOK_SEP);
    }
}
