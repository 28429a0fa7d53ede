//! **Figure 12**: dynamic operator performance vs dense across sparsity
//! ratios — block-wise attention kernels and neuron-wise MLP kernels.
//!
//! Paper: up to 3–5× speedups at high sparsity; execution time nearly linear
//! in the sparsity ratio (that linearity is what makes the operators
//! "adaptable and efficient in scenarios with dynamic sparsity levels").

use lx_bench::{header, row};
use lx_sparse::attention::{dsd, scores_to_probs, sdd_nt, CausalFill};
use lx_sparse::neuron::{fc1_forward, fc2_forward};
use lx_sparse::{BlockCsr, BlockMask, NeuronBlockSet};
use lx_tensor::gemm::{gemm, gemm_nt};
use lx_tensor::ops::softmax_rows;
use lx_tensor::rng::randn_vec;
use std::time::Instant;

fn time_it(mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    let reps = 5;
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// A block mask with approximately the requested density, causal region.
fn mask_with_density(n: usize, density: f64, seed: u64) -> BlockMask {
    use rand::Rng;
    let mut rng = lx_tensor::rng::seeded(seed);
    let mut m = BlockMask::square(n);
    for i in 0..n {
        m.set(i, i, true); // keep softmax rows alive
        for j in 0..i {
            if rng.gen::<f64>() < density {
                m.set(i, j, true);
            }
        }
    }
    m
}

fn main() {
    let cli = lx_bench::BenchCli::parse("fig12_operators");
    let (s, dh, block) = (512, 64, 32);
    let n = s / block;
    println!(
        "== Fig. 12a: block-sparse attention vs dense (seq {s}, head dim {dh}, block {block}) ==\n"
    );
    let q = randn_vec(s * dh, 1.0, 1);
    let k = randn_vec(s * dh, 1.0, 2);
    let v = randn_vec(s * dh, 1.0, 3);
    let scale = 1.0 / (dh as f32).sqrt();
    let dense_t = time_it(|| {
        let mut p = vec![0.0f32; s * s];
        gemm_nt(s, dh, s, &q, &k, &mut p, 0.0);
        softmax_rows(&mut p, s);
        let mut o = vec![0.0f32; s * dh];
        gemm(s, s, dh, &p, &v, &mut o, 0.0);
    });
    header(&["sparsity", "blocks", "time ms", "dense ms", "speedup"]);
    for sparsity in [0.0f64, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95] {
        let mask = mask_with_density(n, 1.0 - sparsity, 7);
        let layout = BlockCsr::from_mask(&mask, block);
        let t = time_it(|| {
            let mut p = vec![0.0f32; layout.data_len()];
            sdd_nt(&q, &k, s, dh, 1.0, &layout, CausalFill::None, &mut p);
            scores_to_probs(&mut p, &layout, scale, None);
            let mut o = vec![0.0f32; s * dh];
            dsd(&p, &v, s, dh, &layout, &mut o);
        });
        row(&[
            format!("{sparsity:.2}"),
            layout.nnz_blocks().to_string(),
            format!("{:.2}", t * 1e3),
            format!("{:.2}", dense_t * 1e3),
            format!("{:.2}x", dense_t / t),
        ]);
    }

    println!("\n== Fig. 12b: neuron-wise MLP kernels vs dense (rows 512, d 256, d_ff 1024, block 32) ==\n");
    let (rows_n, d, d_ff) = (512usize, 256usize, 1024usize);
    let x = randn_vec(rows_n * d, 1.0, 4);
    let w1t = randn_vec(d_ff * d, 0.05, 5);
    let w2 = randn_vec(d_ff * d, 0.05, 6);
    let n_blk = d_ff / block;
    let run = |set: &NeuronBlockSet| {
        let width = set.active_neurons();
        let mut z = vec![0.0f32; rows_n * width];
        fc1_forward(&x, rows_n, &w1t, d, None, set, &mut z);
        for zv in z.iter_mut() {
            if *zv < 0.0 {
                *zv = 0.0;
            }
        }
        let mut y = vec![0.0f32; rows_n * d];
        fc2_forward(&z, rows_n, &w2, d, None, set, &mut y);
    };
    let dense_set = NeuronBlockSet::all(n_blk, block);
    let mlp_dense_t = time_it(|| run(&dense_set));
    header(&[
        "sparsity",
        "active blocks",
        "time ms",
        "dense ms",
        "speedup",
    ]);
    for sparsity in [0.0f64, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95] {
        let keep = (((1.0 - sparsity) * n_blk as f64).round() as usize).max(1);
        let set = NeuronBlockSet::from_indices(
            (0..keep as u32)
                .map(|i| i * (n_blk as u32 / keep.max(1) as u32).max(1) % n_blk as u32)
                .collect(),
            n_blk,
            block,
        );
        let t = time_it(|| run(&set));
        row(&[
            format!("{sparsity:.2}"),
            set.n_active().to_string(),
            format!("{:.2}", t * 1e3),
            format!("{:.2}", mlp_dense_t * 1e3),
            format!("{:.2}x", mlp_dense_t / t),
        ]);
    }
    println!("\nshape to check: time ≈ linear in (1 − sparsity); 3–5x speedups at ≥0.8 sparsity.");
    cli.finish();
}
