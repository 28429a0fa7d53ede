//! Property-style tests on the core data structures and kernel invariants.
//!
//! The original suite used `proptest`; the offline build has no crates.io
//! access, so each property is exercised over a deterministic seeded sweep of
//! random cases instead (24+ cases per property, mirroring the old
//! `ProptestConfig::with_cases(24)` budget). Failures print the seed so a
//! case can be replayed exactly.

use lx_kernels::half::round_f16;
use lx_sparse::attention::{
    block_data_to_dense, dense_to_block_data, dsd, dsd_tn, scores_to_probs, sdd_nt, CausalFill,
};
use lx_sparse::neuron::{fc1_forward, fc2_forward};
use lx_sparse::{BlockCsr, BlockMask, NeuronBlockSet, PatternSpec};
use lx_tensor::rng::randn_vec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 24;

/// Random lower-triangular mask with guaranteed diagonal, `2..=max_n` rows.
fn arb_mask(max_n: usize, seed: u64) -> BlockMask {
    let mut rng = StdRng::seed_from_u64(0xa5c3 ^ seed);
    let n = rng.gen_range(2..=max_n);
    let mut m = BlockMask::square(n);
    for i in 0..n {
        m.set(i, i, true); // keep rows alive for softmax invariants
        for j in 0..i {
            if rng.gen_bool(0.5) {
                m.set(i, j, true);
            }
        }
    }
    m
}

#[test]
fn block_csr_roundtrips_any_mask() {
    for seed in 0..CASES {
        let mask = arb_mask(8, seed);
        let csr = BlockCsr::from_mask(&mask, 4);
        assert_eq!(csr.to_mask(), mask, "seed {seed}");
        assert_eq!(csr.nnz_blocks(), mask.count(), "seed {seed}");
        // CSC view is a permutation of the CSR entries.
        let mut seen: Vec<bool> = vec![false; csr.nnz_blocks()];
        for bc in 0..csr.n_bcols {
            for e in csr.col_entries(bc) {
                let csr_e = csr.csc_to_csr[e] as usize;
                assert!(!seen[csr_e], "seed {seed}");
                seen[csr_e] = true;
                assert_eq!(csr.col_idx[csr_e] as usize, bc, "seed {seed}");
            }
        }
        assert!(seen.iter().all(|&s| s), "seed {seed}");
    }
}

#[test]
fn block_data_dense_roundtrip() {
    for seed in 0..CASES {
        let mask = arb_mask(6, seed);
        let csr = BlockCsr::from_mask(&mask, 4);
        let data = randn_vec(csr.data_len(), 1.0, seed);
        let dense = block_data_to_dense(&data, &csr);
        let back = dense_to_block_data(&dense, &csr);
        assert_eq!(back, data, "seed {seed}");
    }
}

#[test]
fn sparse_softmax_rows_are_distributions() {
    for seed in 0..CASES {
        let block = 4;
        let mask = arb_mask(6, seed);
        let csr = BlockCsr::from_mask(&mask, block);
        let s = csr.n_brows * block;
        let q = randn_vec(s * 8, 1.0, seed);
        let k = randn_vec(s * 8, 1.0, seed + 1);
        let mut p = vec![0.0f32; csr.data_len()];
        sdd_nt(&q, &k, s, 8, 1.0, &csr, CausalFill::None, &mut p);
        scores_to_probs(&mut p, &csr, 0.35, None);
        let dense = block_data_to_dense(&p, &csr);
        for i in 0..s {
            let row_sum: f32 = dense[i * s..(i + 1) * s].iter().sum();
            // Every row has its diagonal block, so sums to 1.
            assert!(
                (row_sum - 1.0).abs() < 1e-4,
                "seed {seed} row {i} sums {row_sum}"
            );
            // Causality.
            for j in (i + 1)..s {
                assert_eq!(dense[i * s + j], 0.0, "seed {seed} at ({i},{j})");
            }
        }
    }
}

#[test]
fn dsd_and_dsd_tn_are_adjoint() {
    // ⟨P·V, W⟩ == ⟨V, Pᵀ·W⟩ for any block data P and dense V, W.
    for seed in 0..CASES {
        let block = 4;
        let dh = 6;
        let mask = arb_mask(5, seed);
        let csr = BlockCsr::from_mask(&mask, block);
        let s = csr.n_brows * block;
        let p = randn_vec(csr.data_len(), 1.0, seed);
        let v = randn_vec(s * dh, 1.0, seed + 1);
        let w = randn_vec(s * dh, 1.0, seed + 2);
        let mut pv = vec![0.0f32; s * dh];
        dsd(&p, &v, s, dh, &csr, &mut pv);
        let mut ptw = vec![0.0f32; s * dh];
        dsd_tn(&p, &w, s, dh, &csr, &mut ptw);
        let lhs: f32 = pv.iter().zip(&w).map(|(a, b)| a * b).sum();
        let rhs: f32 = v.iter().zip(&ptw).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() <= 1e-3 * (1.0 + lhs.abs()),
            "seed {seed}: {lhs} vs {rhs}"
        );
    }
}

#[test]
fn pattern_specs_always_causal_with_diagonal() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xbeef ^ case);
        let w: u32 = rng.gen_range(1..5);
        let g: u32 = rng.gen_range(1..4);
        let r: u32 = rng.gen_range(0..3);
        let stride: u32 = rng.gen_range(1..6);
        let n: usize = rng.gen_range(2..10);
        let seed: u64 = rng.gen_range(0u64..100);
        for spec in [
            PatternSpec::LocalWindow { w },
            PatternSpec::GlobalStripe { g },
            PatternSpec::LocalGlobal { w, g },
            PatternSpec::BigBird { w, g, r, seed },
            PatternSpec::Strided { w, stride },
            PatternSpec::Causal,
        ] {
            let m = spec.mask(n);
            for i in 0..n {
                assert!(m.get(i, i), "case {case}: {spec:?} missing diag {i}");
                for j in (i + 1)..n {
                    assert!(!m.get(i, j), "case {case}: {spec:?} acausal at ({i},{j})");
                }
            }
        }
    }
}

#[test]
fn f16_roundtrip_error_bounded() {
    let mut rng = StdRng::seed_from_u64(0xf16);
    // More cases here: each is cheap and the domain (all f32 bit patterns)
    // is huge.
    for case in 0..4096 {
        let bits: u32 = rng.gen();
        let v = f32::from_bits(bits);
        if v.is_finite() && v.abs() < 60000.0 {
            let r = round_f16(v);
            if v.abs() >= 6.2e-5 {
                // Normal range: relative error < 2^-10.
                assert!((r - v).abs() <= v.abs() * 1.0e-3, "case {case}: {v} -> {r}");
            } else {
                // Subnormal range: absolute error < smallest subnormal step.
                assert!((r - v).abs() <= 6.0e-8, "case {case}: {v} -> {r}");
            }
        }
    }
}

#[test]
fn neuron_kernels_match_masked_dense() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1234 ^ seed);
        let block = 4;
        let n_blk = 4;
        let (rows, d) = (5usize, 6usize);
        let d_ff = n_blk * block;
        let mut mask: Vec<bool> = (0..n_blk).map(|_| rng.gen_bool(0.5)).collect();
        if !mask.iter().any(|&b| b) {
            mask[0] = true;
        }
        let set = NeuronBlockSet::from_mask(&mask, block);
        let x = randn_vec(rows * d, 1.0, seed);
        let w1t = randn_vec(d_ff * d, 0.5, seed + 1);
        let w2 = randn_vec(d_ff * d, 0.5, seed + 2);
        // Sparse path.
        let width = set.active_neurons();
        let mut z = vec![0.0f32; rows * width];
        fc1_forward(&x, rows, &w1t, d, None, &set, &mut z);
        for v in z.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        let mut y = vec![0.0f32; rows * d];
        fc2_forward(&z, rows, &w2, d, None, &set, &mut y);
        // Dense reference with inactive neurons zeroed.
        let all = NeuronBlockSet::all(n_blk, block);
        let mut zf = vec![0.0f32; rows * d_ff];
        fc1_forward(&x, rows, &w1t, d, None, &all, &mut zf);
        for r in 0..rows {
            for nrn in 0..d_ff {
                let blk = nrn / block;
                if !mask[blk] || zf[r * d_ff + nrn] < 0.0 {
                    zf[r * d_ff + nrn] = 0.0;
                }
            }
        }
        let mut yf = vec![0.0f32; rows * d];
        fc2_forward(&zf, rows, &w2, d, None, &all, &mut yf);
        for (a, b) in y.iter().zip(&yf) {
            assert!(
                (a - b).abs() <= 1e-3 * (1.0 + b.abs()),
                "seed {seed}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn mask_union_is_monotone() {
    for seed in 0..CASES {
        let m1 = arb_mask(6, seed);
        let n = m1.rows();
        let m2 = PatternSpec::LocalWindow { w: 2 }.mask(n);
        let mut u = m1.clone();
        u.union_with(&m2);
        assert!(u.count() >= m1.count(), "seed {seed}");
        assert!(u.count() >= m2.count(), "seed {seed}");
        assert_eq!(m1.covered_by(&u), m1.count(), "seed {seed}");
        assert_eq!(m2.covered_by(&u), m2.count(), "seed {seed}");
    }
}
