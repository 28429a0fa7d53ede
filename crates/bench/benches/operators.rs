//! Criterion micro-benchmarks backing the operator-level figures:
//! dense GEMM baselines, SDD/DSD block kernels at several sparsity levels
//! (Fig. 12a), neuron-wise MLP kernels (Fig. 12b), the two-stage pattern
//! pool's online combination vs from-scratch layout builds (the §VI-A
//! ablation), and predictor overhead (§V-C).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lx_sparse::attention::{dsd, scores_to_probs, sdd_nt, CausalFill};
use lx_sparse::neuron::{fc1_forward, fc2_forward};
use lx_sparse::{BlockCsr, BlockMask, NeuronBlockSet, PatternPool, PatternSpec};
use lx_tensor::gemm::{gemm, gemm_nt};
use lx_tensor::rng::randn_vec;
use std::hint::black_box;

const S: usize = 256;
const DH: usize = 64;
const BLOCK: usize = 32;

fn mask_with_density(n: usize, density: f64, seed: u64) -> BlockMask {
    use rand::Rng;
    let mut rng = lx_tensor::rng::seeded(seed);
    let mut m = BlockMask::square(n);
    for i in 0..n {
        m.set(i, i, true);
        for j in 0..i {
            if rng.gen::<f64>() < density {
                m.set(i, j, true);
            }
        }
    }
    m
}

fn bench_gemm(c: &mut Criterion) {
    let a = randn_vec(S * DH, 1.0, 1);
    let b = randn_vec(DH * S, 1.0, 2);
    c.bench_function("gemm_256x64x256", |bch| {
        bch.iter(|| {
            let mut out = vec![0.0f32; S * S];
            gemm(S, DH, S, black_box(&a), black_box(&b), &mut out, 0.0);
            black_box(out)
        })
    });
}

fn bench_attention_ops(c: &mut Criterion) {
    let n = S / BLOCK;
    let q = randn_vec(S * DH, 1.0, 3);
    let k = randn_vec(S * DH, 1.0, 4);
    let v = randn_vec(S * DH, 1.0, 5);
    let mut group = c.benchmark_group("sparse_attention");
    // Dense baseline.
    group.bench_function("dense", |bch| {
        bch.iter(|| {
            let mut p = vec![0.0f32; S * S];
            gemm_nt(S, DH, S, black_box(&q), black_box(&k), &mut p, 0.0);
            lx_tensor::ops::softmax_rows(&mut p, S);
            let mut o = vec![0.0f32; S * DH];
            gemm(S, S, DH, &p, &v, &mut o, 0.0);
            black_box(o)
        })
    });
    for sparsity in [0.5f64, 0.8, 0.95] {
        let layout = BlockCsr::from_mask(&mask_with_density(n, 1.0 - sparsity, 9), BLOCK);
        group.bench_with_input(
            BenchmarkId::new("sdd_softmax_dsd", format!("sparsity_{sparsity}")),
            &layout,
            |bch, layout| {
                bch.iter(|| {
                    let mut p = vec![0.0f32; layout.data_len()];
                    sdd_nt(&q, &k, S, DH, 1.0, layout, CausalFill::None, &mut p);
                    scores_to_probs(&mut p, layout, 0.125, None);
                    let mut o = vec![0.0f32; S * DH];
                    dsd(&p, &v, S, DH, layout, &mut o);
                    black_box(o)
                })
            },
        );
    }
    group.finish();
}

fn bench_neuron_ops(c: &mut Criterion) {
    let (rows, d, d_ff) = (256usize, 256usize, 1024usize);
    let x = randn_vec(rows * d, 1.0, 6);
    let w1t = randn_vec(d_ff * d, 0.05, 7);
    let w2 = randn_vec(d_ff * d, 0.05, 8);
    let n_blk = d_ff / BLOCK;
    let mut group = c.benchmark_group("neuron_mlp");
    for keep_frac in [1.0f64, 0.5, 0.25] {
        let keep = ((n_blk as f64 * keep_frac) as usize).max(1);
        let set = NeuronBlockSet::from_indices((0..keep as u32).collect(), n_blk, BLOCK);
        group.bench_with_input(
            BenchmarkId::new("fc1_relu_fc2", format!("density_{keep_frac}")),
            &set,
            |bch, set| {
                bch.iter(|| {
                    let width = set.active_neurons();
                    let mut z = vec![0.0f32; rows * width];
                    fc1_forward(&x, rows, &w1t, d, None, set, &mut z);
                    let mut a = vec![0.0f32; z.len()];
                    lx_tensor::ops::relu(&z, &mut a);
                    let mut y = vec![0.0f32; rows * d];
                    fc2_forward(&a, rows, &w2, d, None, set, &mut y);
                    black_box(y)
                })
            },
        );
    }
    group.finish();
}

fn bench_pattern_pool(c: &mut Criterion) {
    // The §VI-A ablation: online combination from the pooled LUTs vs
    // rebuilding every head's layout from its mask at runtime.
    let n = 32;
    let pool = PatternPool::default_pool(BLOCK, &[n]);
    let specs: Vec<PatternSpec> = (0..16)
        .map(|h| {
            if h % 2 == 0 {
                PatternSpec::LocalGlobal { w: 2, g: 1 }
            } else {
                PatternSpec::LocalWindow { w: 2 }
            }
        })
        .collect();
    let masks: Vec<BlockMask> = specs.iter().map(|s| s.mask(n)).collect();
    let mut group = c.benchmark_group("pattern_pool");
    group.bench_function("online_combine_pooled", |bch| {
        bch.iter(|| black_box(pool.combine(n, black_box(&specs))))
    });
    group.bench_function("rebuild_layouts_from_masks", |bch| {
        bch.iter(|| {
            let layouts: Vec<BlockCsr> = masks
                .iter()
                .map(|m| BlockCsr::from_mask(m, BLOCK))
                .collect();
            black_box(layouts)
        })
    });
    group.finish();
}

fn bench_predictor(c: &mut Criterion) {
    use long_exposure::predictor::{AttnPredictor, MlpPredictor};
    let (d, heads, rank) = (256usize, 8usize, 8usize);
    let attn = AttnPredictor::new(d, heads, rank, 1);
    let mlp = MlpPredictor::new(d, 1024, BLOCK, 2);
    let x = lx_tensor::Tensor::randn(&[S, d], 1.0, 3);
    let mut group = c.benchmark_group("predictor_overhead");
    group.bench_function("attn_predict_masks", |bch| {
        bch.iter(|| black_box(attn.predict_masks(black_box(&x), 1, S, BLOCK)))
    });
    group.bench_function("mlp_predict_set", |bch| {
        bch.iter(|| black_box(mlp.predict(black_box(&x))))
    });
    group.finish();
}

fn criterion_config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = bench_gemm, bench_attention_ops, bench_neuron_ops, bench_pattern_pool, bench_predictor
}
criterion_main!(benches);
