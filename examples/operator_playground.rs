//! Direct use of the dynamic-aware operators (paper §VI): build pooled
//! layouts, run SDD → block softmax → DSD against the dense equivalent, and
//! time both.
//!
//! ```sh
//! cargo run --release -p lx-examples --example operator_playground
//! ```

use lx_sparse::attention::{dsd, scores_to_probs, sdd_nt, CausalFill};
use lx_sparse::{PatternPool, PatternSpec};
use lx_tensor::gemm::gemm_nt;
use lx_tensor::ops::{apply_causal_mask, softmax_rows};
use lx_tensor::rng::randn_vec;
use std::time::Instant;

fn main() {
    let (s, dh, block) = (512, 64, 32);
    let n = s / block;
    println!("== dynamic-aware operator playground ==");
    println!("seq {s}, head dim {dh}, block {block} ({n}x{n} grid)\n");

    // Offline: build the pattern pool once.
    let t0 = Instant::now();
    let pool = PatternPool::default_pool(block, &[n]);
    println!("offline pool construction: {:?}", t0.elapsed());

    let q = randn_vec(s * dh, 1.0, 1);
    let k = randn_vec(s * dh, 1.0, 2);
    let v = randn_vec(s * dh, 1.0, 3);
    let scale = 1.0 / (dh as f32).sqrt();

    // Dense reference.
    let t0 = Instant::now();
    let mut scores = vec![0.0f32; s * s];
    gemm_nt(s, dh, s, &q, &k, &mut scores, 0.0);
    for v in scores.iter_mut() {
        *v *= scale;
    }
    apply_causal_mask(&mut scores, s);
    softmax_rows(&mut scores, s);
    let mut out_dense = vec![0.0f32; s * dh];
    lx_tensor::gemm::gemm(s, s, dh, &scores, &v, &mut out_dense, 0.0);
    let dense_time = t0.elapsed();
    println!("dense attention: {dense_time:?}");

    for spec in [
        PatternSpec::Causal,
        PatternSpec::LocalGlobal { w: 4, g: 2 },
        PatternSpec::LocalWindow { w: 2 },
        PatternSpec::Strided { w: 1, stride: 4 },
    ] {
        let layout = pool.layout(spec, n);
        let t0 = Instant::now();
        let mut p = vec![0.0f32; layout.data_len()];
        sdd_nt(&q, &k, s, dh, 1.0, &layout, CausalFill::None, &mut p);
        scores_to_probs(&mut p, &layout, scale, None);
        let mut out = vec![0.0f32; s * dh];
        dsd(&p, &v, s, dh, &layout, &mut out);
        let t = t0.elapsed();
        // Error vs dense on rows fully covered by the pattern (causal covers all).
        let err: f32 = if spec == PatternSpec::Causal {
            out.iter()
                .zip(&out_dense)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f32::max)
        } else {
            f32::NAN
        };
        println!(
            "{:<22} density {:.2}  time {:>9.2?}  speedup {:>5.2}x{}",
            spec.name(),
            layout.density(),
            t,
            dense_time.as_secs_f64() / t.as_secs_f64(),
            if err.is_nan() {
                String::new()
            } else {
                format!("  max|err| {err:.2e}")
            }
        );
    }

    // Online combination cost: assemble a 16-head layout from the pool.
    let specs: Vec<PatternSpec> = (0..16)
        .map(|h| {
            if h % 3 == 0 {
                PatternSpec::LocalGlobal { w: 2, g: 1 }
            } else {
                PatternSpec::LocalWindow { w: 2 }
            }
        })
        .collect();
    let t0 = Instant::now();
    let ml = pool.combine(n, &specs);
    println!(
        "\nonline combination of 16 heads: {:?} ({} blocks total) — offset arithmetic only",
        t0.elapsed(),
        ml.total_blocks()
    );
}
