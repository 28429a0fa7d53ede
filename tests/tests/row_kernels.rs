//! The row kernels of `lx_kernels::rows`: one polynomial `exp` and the
//! softmax / LayerNorm / ReLU / log-sum-exp passes built on it.
//!
//! * `exp` against an f64 reference (≤ 2 ulp over a dense sweep of
//!   `[−87.3, 0]`, exact at `0` / `−∞`, flushed below the underflow bound);
//! * every kernel **bitwise** equal across the scalar definition and the
//!   AVX2 / AVX-512 arms (arms the host lacks are skipped loudly), over widths
//!   `1..=67`, block sizes `{4, 8, 16, 32}`, empty block-rows, fully-masked
//!   rows and single-entry rows;
//! * bitwise independence of threads and partition: `with_sequential`, and
//!   private pools of 1 / 2 / 4 threads cutting the rows differently;
//! * the fused scores → probabilities pass against the composition it
//!   replaced — scale → ALiBi → causal mask → softmax, kept here as a
//!   test-only oracle on libm `exp` — within 1e-6, on both layouts, and the
//!   fused backward against finite differences;
//! * no subnormal leaves the softmax kernels: on a causal block-row spread
//!   over > 150 nats, the forward writes exact zeros where `v − max <
//!   −64·ln 2` and elsewhere the bits of the formula it ran before the floor,
//!   and the backward flushes every `dS` below `f32::MIN_POSITIVE`, on every
//!   arm;
//! * non-finite inputs stay visible: a NaN or `+∞` score makes its row NaN
//!   and the loss non-finite.

use lx_kernels::rows::{self, Band, Causal};
use lx_kernels::{active_isa, Isa};
use lx_parallel::ThreadPool;
use lx_sparse::attention::{
    block_data_to_dense, probs_backward, scores_to_probs, sdd_nt, CausalFill,
};
use lx_sparse::{BlockCsr, BlockMask, MultiHeadLayout, PatternSpec};
use lx_tensor::ops::{
    apply_causal_mask, causal_softmax_backward_rows, causal_softmax_rows, softmax_rows,
};
use lx_tensor::rng::randn_vec;
use std::sync::Arc;

/// The definition first, then every wider arm this host can run.
fn arms() -> Vec<Isa> {
    static SKIPS_REPORTED: std::sync::Once = std::sync::Once::new();
    let wide = [Isa::Avx2, Isa::Avx512];
    SKIPS_REPORTED.call_once(|| {
        for isa in wide.iter().filter(|isa| !isa.supported()) {
            eprintln!(
                "row_kernels: SKIPPING the {} arm — this CPU cannot execute it, so its \
                 bit-identity to the scalar definition is NOT checked in this run",
                isa.name()
            );
        }
    });
    let mut arms = vec![Isa::Scalar];
    arms.extend(wide.into_iter().filter(|isa| isa.supported()));
    arms
}

/// Run `kernel` on every arm and assert each result equals the scalar
/// definition's bit for bit; returns the definition's result.
fn same_on_every_arm(what: &str, kernel: impl Fn(Isa) -> Vec<f32>) -> Vec<f32> {
    let want = kernel(Isa::Scalar);
    for isa in arms() {
        assert_bits(&format!("{what} [{}]", isa.name()), &kernel(isa), &want);
    }
    want
}

fn assert_bits(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: idx {i}: {x} vs {y} (bitwise)"
        );
    }
}

fn assert_close(what: &str, got: &[f32], want: &[f32], tol: f32) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert!((x - y).abs() <= tol, "{what}: idx {i}: {x} vs {y}");
    }
}

// ---------------------------------------------------------------------------
// exp
// ---------------------------------------------------------------------------

#[test]
fn exp_is_within_two_ulp_of_an_f64_reference() {
    // Every 61st float from −0 down to −87.3 (~18 M values), on the active
    // arm; the arms are compared with each other below.
    let isa = active_isa();
    let lo = (-87.3f32).to_bits();
    let mut worst = (0.0f64, 0.0f32);
    let mut bits = (-0.0f32).to_bits();
    let mut batch = Vec::with_capacity(1 << 16);
    while bits <= lo {
        batch.clear();
        while batch.len() < batch.capacity() && bits <= lo {
            batch.push(f32::from_bits(bits));
            bits += 61;
        }
        let mut y = batch.clone();
        rows::exp(isa, &mut y);
        for (&x, &got) in batch.iter().zip(&y) {
            let want = (x as f64).exp();
            let ulp = (f32::from_bits((want as f32).to_bits() + 1) - want as f32) as f64;
            let err = (got as f64 - want).abs() / ulp;
            if err > worst.0 {
                worst = (err, x);
            }
        }
    }
    assert!(
        worst.0 <= 2.0,
        "exp({}) is {:.3} ulp from the f64 reference",
        worst.1,
        worst.0
    );
}

#[test]
fn exp_fixed_points_and_arm_identity() {
    let special = [
        0.0,
        -0.0,
        f32::NEG_INFINITY,
        -87.3,
        -87.4,
        -100.0,
        -1e30,
        f32::MIN,
        -f32::MIN_POSITIVE,
        -1e-30,
    ];
    let y = same_on_every_arm("exp specials", |isa| {
        let mut y = special.to_vec();
        rows::exp(isa, &mut y);
        y
    });
    assert_eq!(&y[..3], &[1.0, 1.0, 0.0]);
    assert!(y[3] > 0.0, "−87.3 is inside the normal range");
    assert_eq!(
        &y[4..8],
        &[0.0; 4],
        "below the underflow bound flushes to 0"
    );
    assert_eq!(&y[8..], &[1.0, 1.0]);
    for isa in arms() {
        let mut nan = [f32::NAN, -1.0];
        rows::exp(isa, &mut nan);
        assert!(nan[0].is_nan() && nan[1] > 0.36, "{}", isa.name());
    }
    // Every length (tails included) and a dense value sweep, bitwise.
    for n in 1..=67 {
        let x: Vec<f32> = randn_vec(n, 20.0, n as u64)
            .iter()
            .map(|v| -v.abs())
            .collect();
        same_on_every_arm(&format!("exp n={n}"), |isa| {
            let mut y = x.clone();
            rows::exp(isa, &mut y);
            y
        });
    }
    let sweep: Vec<f32> = (0..200_000).map(|i| -(i as f32) * 4.5e-4).collect();
    same_on_every_arm("exp sweep", |isa| {
        let mut y = sweep.clone();
        rows::exp(isa, &mut y);
        y
    });
}

// ---------------------------------------------------------------------------
// Arm identity of every kernel
// ---------------------------------------------------------------------------

#[test]
fn dense_rows_are_bit_identical_on_every_arm() {
    for width in 1..=67usize {
        let rows_n = 3;
        let x = randn_vec(rows_n * width, 2.0, width as u64);
        let dy = randn_vec(rows_n * width, 1.0, 100 + width as u64);
        let band = Band::dense(rows_n, width);
        // Plain, and causal from a query offset that leaves some rows partly
        // and (for narrow widths) fully visible.
        let cols = [0u32];
        let causal_at = |q0| {
            Some(Causal {
                q0,
                cols: &cols,
                slope: 0.03,
            })
        };
        for (name, causal) in [
            ("plain", None),
            ("causal q0=0", causal_at(0)),
            ("causal q0=30", causal_at(30)),
        ] {
            let p = same_on_every_arm(&format!("softmax fwd {name} w={width}"), |isa| {
                let mut p = x.clone();
                rows::softmax_forward(isa, &mut p, band, 0.7, causal);
                p
            });
            same_on_every_arm(&format!("softmax bwd {name} w={width}"), |isa| {
                let mut g = dy.clone();
                rows::softmax_backward(isa, &p, &mut g, band, 0.7, causal);
                g
            });
        }

        let gamma = randn_vec(width, 1.0, 200 + width as u64);
        let beta = randn_vec(width, 1.0, 300 + width as u64);
        let fwd = same_on_every_arm(&format!("layernorm fwd w={width}"), |isa| {
            let mut out = vec![0.0; rows_n * width + 2 * rows_n];
            let (y, stats) = out.split_at_mut(rows_n * width);
            let (mean, rstd) = stats.split_at_mut(rows_n);
            rows::layernorm_forward(isa, &x, &gamma, &beta, 1e-5, y, mean, rstd);
            out
        });
        let (mean, rstd) = fwd[rows_n * width..].split_at(rows_n);
        for train in [false, true] {
            same_on_every_arm(&format!("layernorm bwd train={train} w={width}"), |isa| {
                let mut out = vec![0.0; rows_n * width + 2 * width];
                let (dx, grads) = out.split_at_mut(rows_n * width);
                let (dg, db) = grads.split_at_mut(width);
                let grads = train.then_some((dg, db));
                rows::layernorm_backward(isa, &x, &dy, &gamma, mean, rstd, dx, grads);
                out
            });
        }

        same_on_every_arm(&format!("relu w={width}"), |isa| {
            let mut a = vec![9.0; x.len()];
            rows::relu(isa, &x, &mut a);
            a
        });
        same_on_every_arm(&format!("relu bwd w={width}"), |isa| {
            let mut dz = vec![9.0; x.len()];
            rows::relu_backward(isa, &dy, &x, &mut dz);
            dz
        });

        for with_grad in [false, true] {
            same_on_every_arm(&format!("log_sum_exp grad={with_grad} w={width}"), |isa| {
                let row = &x[..width];
                let mut out = vec![0.0; width + 2];
                let (grad, stats) = out.split_at_mut(width);
                let (max, sum) = rows::log_sum_exp(isa, row, with_grad.then_some((grad, 0.25)));
                stats.copy_from_slice(&[max, sum]);
                out
            });
        }
    }
}

/// A few block masks with the shapes that matter: full causal, a narrow
/// window (single-entry rows), an empty block-row, and a block above the
/// diagonal that leaves some rows fully masked.
fn block_masks(n: usize) -> Vec<BlockMask> {
    let mut holes = PatternSpec::Causal.mask(n);
    for bc in 0..n {
        holes.set(n / 2, bc, false); // an empty block-row
    }
    let mut upper = BlockMask::square(n);
    for br in 0..n {
        upper.set(br, (br + 1).min(n - 1), true); // only above/at the diagonal
    }
    vec![
        PatternSpec::Causal.mask(n),
        PatternSpec::LocalWindow { w: 1 }.mask(n),
        PatternSpec::LocalGlobal { w: 2, g: 1 }.mask(n),
        holes,
        upper,
    ]
}

#[test]
fn block_rows_are_bit_identical_on_every_arm() {
    for b in [4usize, 8, 16, 32] {
        let n = 5;
        for (m, mask) in block_masks(n).iter().enumerate() {
            let lay = BlockCsr::from_mask(mask, b);
            let scores = randn_vec(lay.data_len(), 2.0, (b * 10 + m) as u64);
            let dp = randn_vec(lay.data_len(), 1.0, (b * 10 + m + 500) as u64);
            let bb = b * b;
            let run = |isa: Isa, backward: Option<&[f32]>| {
                let mut data = match backward {
                    None => scores.clone(),
                    Some(_) => dp.clone(),
                };
                for br in 0..lay.n_brows {
                    let entries = lay.row_entries(br);
                    let band = Band::block_row(b, entries.len());
                    let causal = Some(Causal {
                        q0: br * b,
                        cols: &lay.col_idx[entries.clone()],
                        slope: 0.11,
                    });
                    let span = entries.start * bb..entries.end * bb;
                    match backward {
                        None => rows::softmax_forward(isa, &mut data[span], band, 0.3, causal),
                        Some(p) => rows::softmax_backward(
                            isa,
                            &p[span.clone()],
                            &mut data[span],
                            band,
                            0.3,
                            causal,
                        ),
                    }
                }
                data
            };
            let what = format!("b={b} mask#{m}");
            let p = same_on_every_arm(&format!("block fwd {what}"), |isa| run(isa, None));
            same_on_every_arm(&format!("block bwd {what}"), |isa| run(isa, Some(&p)));

            // Shape facts: causality, rows that see nothing are all zero,
            // every other row is a distribution.
            let dense = block_data_to_dense(&p, &lay);
            let s = n * b;
            for i in 0..s {
                let row = &dense[i * s..(i + 1) * s];
                assert!(row[i + 1..].iter().all(|&v| v == 0.0), "{what}: causality");
                let visible = (0..=i).any(|j| mask.get(i / b, j / b));
                let sum: f32 = row.iter().sum();
                if visible {
                    assert!((sum - 1.0).abs() < 1e-5, "{what}: row {i} sums to {sum}");
                } else {
                    assert_eq!(sum, 0.0, "{what}: masked row {i}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// No subnormal leaves the softmax kernels
// ---------------------------------------------------------------------------

/// `−64·ln 2`: the shifted score below which a probability is exactly 0.
const FLOOR: f32 = -64.0 * std::f32::consts::LN_2;

/// Sixteen lane partials folded through the kernels' tree.
fn tree_sum(mut lanes: [f32; 16]) -> f32 {
    for w in [8, 4, 2, 1] {
        for l in 0..w {
            lanes[l] += lanes[l + w];
        }
    }
    lanes[0]
}

/// The block-row geometry of the floor tests: query block-row `br` of a
/// full-causal layout at edge 16 — `br + 1` segments, the last one the
/// diagonal block, where row `r` sees `r + 1 < 16` keys for `r < 15`.
struct CausalRow {
    br: usize,
    cols: Vec<u32>,
}

impl CausalRow {
    const B: usize = 16;

    fn new(br: usize) -> Self {
        CausalRow {
            br,
            cols: (0..=br as u32).collect(),
        }
    }

    fn band(&self) -> Band {
        Band::block_row(Self::B, self.cols.len())
    }

    fn causal(&self, slope: f32) -> Option<Causal<'_>> {
        Some(Causal {
            q0: self.br * Self::B,
            cols: &self.cols,
            slope,
        })
    }

    /// `(index into the band's data, q − k)` of every key row `r` sees, in
    /// segment order.
    fn keys(&self, r: usize) -> Vec<(usize, usize)> {
        let (b, q) = (Self::B, self.br * Self::B + r);
        (0..=q)
            .map(|k| ((k / b) * b * b + r * b + k % b, q - k))
            .collect()
    }
}

/// The forward the kernels ran before the floor, on the definition's own
/// operation order: scaled and biased scores, max, `exp` (the module's own,
/// elementwise) into lane `key mod 16` in segment order, the lane tree,
/// `· 1/sum`. Returns the probabilities and each position's `v − max`
/// (`−∞` where masked).
fn old_block_row_forward(
    row: &CausalRow,
    scores: &[f32],
    scale: f32,
    slope: f32,
) -> (Vec<f32>, Vec<f32>) {
    let mut p = vec![0.0; scores.len()];
    let mut shifted = vec![f32::NEG_INFINITY; scores.len()];
    for r in 0..CausalRow::B {
        let keys = row.keys(r);
        let v: Vec<f32> = keys
            .iter()
            .map(|&(at, d)| scores[at] * scale - slope * d as f32)
            .collect();
        let max = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut e: Vec<f32> = v.iter().map(|&x| x - max).collect();
        for (&(at, _), &x) in keys.iter().zip(&e) {
            shifted[at] = x;
        }
        rows::exp(Isa::Scalar, &mut e);
        let mut lanes = [0.0f32; 16];
        for (k, &x) in e.iter().enumerate() {
            lanes[k % 16] += x;
        }
        let inv = 1.0 / tree_sum(lanes);
        for (&(at, _), &x) in keys.iter().zip(&e) {
            p[at] = x * inv;
        }
    }
    (p, shifted)
}

/// The backward the kernels ran before the flush: lane-ordered `⟨P, dP⟩`,
/// then `P·(dP − dot)·scale` on every visible key.
fn old_block_row_backward(row: &CausalRow, p: &[f32], dp: &[f32], scale: f32) -> Vec<f32> {
    let mut ds = vec![0.0; p.len()];
    for r in 0..CausalRow::B {
        let keys = row.keys(r);
        let mut lanes = [0.0f32; 16];
        for (k, &(at, _)) in keys.iter().enumerate() {
            lanes[k % 16] += p[at] * dp[at];
        }
        let dot = tree_sum(lanes);
        for &(at, _) in &keys {
            ds[at] = p[at] * (dp[at] - dot) * scale;
        }
    }
    ds
}

fn subnormals(x: &[f32]) -> usize {
    x.iter().filter(|v| v.is_subnormal()).count()
}

#[test]
fn softmax_never_emits_a_subnormal_on_any_arm() {
    // Query block-row 4: 5 segments, 65..=80 keys per row, a gentle ALiBi
    // slope. Half the scores sit within a few nats of the top, so a row's
    // sum is well above 1 and the old `exp / sum` fell below 2⁻¹²⁶ over a
    // band ~ln(sum) nats wide; the other half spread ~250 nats below.
    let row = CausalRow::new(4);
    let (scale, slope) = (1.0f32, 0.02f32);
    let n = row.band().segments * CausalRow::B * CausalRow::B;
    let scores: Vec<f32> = randn_vec(n, 1.0, 61)
        .iter()
        .enumerate()
        .map(|(i, v)| -v.abs() * if i % 2 == 0 { 1.0 } else { 90.0 })
        .collect();
    let (want, shifted) = old_block_row_forward(&row, &scores, scale, slope);
    for r in 0..CausalRow::B {
        let v: Vec<f32> = row.keys(r).iter().map(|&(at, _)| shifted[at]).collect();
        let low = v.iter().copied().fold(0.0, f32::min);
        assert!(low < -150.0, "row {r} spreads only {} nats", -low);
    }
    assert!(
        subnormals(&want) > 0,
        "the old formula must make subnormals here"
    );

    let p = same_on_every_arm("floored block fwd", |isa| {
        let mut p = scores.clone();
        rows::softmax_forward(isa, &mut p, row.band(), scale, row.causal(slope));
        p
    });
    assert_eq!(subnormals(&p), 0, "forward");
    let (mut zeroed, mut kept) = (0, 0);
    for (i, ((&got, &old), &v)) in p.iter().zip(&want).zip(&shifted).enumerate() {
        if v < FLOOR {
            assert_eq!(got.to_bits(), 0, "idx {i}: v − max = {v} must give +0");
            zeroed += usize::from(v.is_finite());
        } else {
            assert_eq!(got.to_bits(), old.to_bits(), "idx {i}: {got} vs {old}");
            kept += 1;
        }
    }
    assert!(zeroed > 100 && kept > 100, "zeroed {zeroed}, kept {kept}");

    // Backward on that P with gradients ~1e-6: the kernel stays normal.
    let dp = randn_vec(n, 1e-6, 62);
    let ds = same_on_every_arm("floored block bwd", |isa| {
        let mut g = dp.clone();
        rows::softmax_backward(isa, &p, &mut g, row.band(), 0.18, row.causal(slope));
        g
    });
    assert_eq!(subnormals(&ds), 0, "backward");

    // The flush itself: probabilities between 1e-36 and 1e-24 (normal, but
    // their products with 1e-6 gradients are not) against the old formula.
    let tiny: Vec<f32> = randn_vec(n, 6.0, 63)
        .iter()
        .map(|v| 10f32.powf(-30.0 + v.clamp(-6.0, 6.0)))
        .collect();
    let old = old_block_row_backward(&row, &tiny, &dp, 0.18);
    assert!(
        subnormals(&old) > 100,
        "the old formula must make subnormals here"
    );
    let ds = same_on_every_arm("flushed block bwd", |isa| {
        let mut g = dp.clone();
        rows::softmax_backward(isa, &tiny, &mut g, row.band(), 0.18, row.causal(slope));
        g
    });
    assert_eq!(subnormals(&ds), 0, "backward flush");
    for (i, (&got, &old)) in ds.iter().zip(&old).enumerate() {
        let want = if old.is_subnormal() { 0.0 } else { old };
        assert_eq!(got.to_bits(), want.to_bits(), "idx {i}: {got} vs {old}");
    }
}

// ---------------------------------------------------------------------------
// Thread and partition independence
// ---------------------------------------------------------------------------

#[test]
fn results_do_not_depend_on_threads_or_partition() {
    // Dense causal, large enough that the global pool really splits it.
    let s = 768;
    let x = randn_vec(s * s, 1.5, 7);
    let dy = randn_vec(s * s, 1.0, 8);
    let fused = |x: &[f32]| {
        let mut p = x.to_vec();
        causal_softmax_rows(&mut p, s, 0.2, 0.05);
        let mut g = dy.clone();
        causal_softmax_backward_rows(&p, &mut g, s, 0.2);
        let mut plain = x.to_vec();
        softmax_rows(&mut plain, s);
        [p, g, plain].concat()
    };
    let want = lx_kernels::with_sequential(|| fused(&x));
    assert_bits("global pool vs with_sequential (dense)", &fused(&x), &want);
    // Private pools cut the rows at different places; every cut agrees.
    let isa = active_isa();
    for threads in [1usize, 2, 4] {
        let pool = ThreadPool::new(threads);
        let mut p = x.clone();
        pool.par_rows(&mut p, s, s, 5, |rr, chunk| {
            let causal = Some(Causal {
                q0: rr.start,
                cols: &[0],
                slope: 0.05,
            });
            rows::softmax_forward(isa, chunk, Band::dense(rr.len(), s), 0.2, causal);
        });
        assert_bits(&format!("pool of {threads} (dense)"), &p, &want[..s * s]);
    }

    // Block-sparse over a stacked multi-head layout (the per-layer launch).
    let (b, n, heads) = (16usize, 32usize, 8usize);
    let per_head = Arc::new(BlockCsr::from_mask(&PatternSpec::Causal.mask(n), b));
    let layout = MultiHeadLayout::combine(vec![per_head; heads]);
    let stacked = layout.stacked().expect("equal heads stack");
    let slopes: Vec<f32> = (0..heads).map(|h| 0.5f32.powi(h as i32 + 1)).collect();
    let scores = randn_vec(stacked.data_len(), 2.0, 9);
    let dp = randn_vec(stacked.data_len(), 1.0, 10);
    let sparse = || {
        let mut p = scores.clone();
        scores_to_probs(&mut p, stacked, 0.18, Some(&slopes));
        let mut g = dp.clone();
        probs_backward(&p, &mut g, stacked, 0.18);
        [p, g].concat()
    };
    assert!(stacked.data_len() > 2 * rows::PAR_GRAIN, "must split");
    let want = lx_kernels::with_sequential(sparse);
    assert_bits("global pool vs with_sequential (sparse)", &sparse(), &want);
}

// ---------------------------------------------------------------------------
// Fused passes against the composition they replaced
// ---------------------------------------------------------------------------

/// The old row softmax: libm `exp`, one running sum.
fn oracle_softmax_row(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        row.fill(0.0);
        return;
    }
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in row.iter_mut() {
        *v *= 1.0 / sum;
    }
}

#[test]
fn fused_dense_probs_match_scale_alibi_mask_softmax() {
    for (s, scale, slope) in [
        (5usize, 0.5f32, 0.0f32),
        (48, 0.18, 0.25),
        (67, 1.0, 0.0078),
    ] {
        let x = randn_vec(s * s, 3.0, s as u64);
        let mut want = x.clone();
        for v in want.iter_mut() {
            *v *= scale;
        }
        for i in 0..s {
            for j in 0..=i {
                want[i * s + j] -= slope * (i - j) as f32;
            }
        }
        apply_causal_mask(&mut want, s);
        want.chunks_mut(s).for_each(oracle_softmax_row);
        let mut got = x;
        causal_softmax_rows(&mut got, s, scale, slope);
        assert_close(&format!("dense s={s}"), &got, &want, 1e-6);
    }
}

/// The old ALiBi pass over block data: `−slope·(i−j)` at causal positions.
fn oracle_alibi_blocks(data: &mut [f32], lay: &BlockCsr, slope: f32) {
    let b = lay.block_size;
    for br in 0..lay.n_brows {
        for e in lay.row_entries(br) {
            let bc = lay.col_idx[e] as usize;
            for i in 0..b {
                for j in 0..b {
                    let (gi, gj) = (br * b + i, bc * b + j);
                    if gj <= gi {
                        data[e * b * b + i * b + j] -= slope * (gi - gj) as f32;
                    }
                }
            }
        }
    }
}

/// The old block-row softmax: per row of a block-row, libm `exp` over the
/// row's segments.
fn oracle_block_row_softmax(data: &mut [f32], lay: &BlockCsr) {
    let b = lay.block_size;
    for br in 0..lay.n_brows {
        let entries = lay.row_entries(br);
        for i in 0..b {
            let at = |e: usize, j: usize| e * b * b + i * b + j;
            let mut row: Vec<f32> = entries
                .clone()
                .flat_map(|e| (0..b).map(move |j| (e, j)))
                .map(|(e, j)| data[at(e, j)])
                .collect();
            oracle_softmax_row(&mut row);
            for (k, (e, j)) in entries
                .clone()
                .flat_map(|e| (0..b).map(move |j| (e, j)))
                .enumerate()
            {
                data[at(e, j)] = row[k];
            }
        }
    }
}

#[test]
fn fused_block_probs_match_sdd_fill_alibi_softmax() {
    let dh = 8;
    for b in [4usize, 8, 16, 32] {
        let n = 5;
        let s = n * b;
        for (m, mask) in block_masks(n).iter().enumerate() {
            // Two heads with different patterns and slopes, stacked.
            let head_b = Arc::new(BlockCsr::from_mask(mask, b));
            let head_a = Arc::new(BlockCsr::from_mask(&PatternSpec::Causal.mask(n), b));
            let layout = MultiHeadLayout::combine(vec![head_a, head_b]);
            let stacked = layout.stacked().expect("equal grids stack");
            let slopes = [0.25f32, 0.0625];
            let q = randn_vec(2 * s * dh, 1.0, (b + m) as u64);
            let k = randn_vec(2 * s * dh, 1.0, (b + m + 50) as u64);
            let scale = 1.0 / (dh as f32).sqrt();

            // Old: SDD with its scale + −∞ fill, ALiBi per head, softmax.
            let mut want = vec![0.0; stacked.data_len()];
            let fill = CausalFill::NegInf;
            sdd_nt(&q, &k, 2 * s, dh, scale, stacked, fill, &mut want);
            for (h, &slope) in slopes.iter().enumerate() {
                let head = &mut want[layout.head_data_range(h)];
                oracle_alibi_blocks(head, &layout.heads[h], slope);
            }
            oracle_block_row_softmax(&mut want, stacked);

            // New: raw products, one fused pass.
            let mut got = vec![0.0; stacked.data_len()];
            let raw = CausalFill::None;
            sdd_nt(&q, &k, 2 * s, dh, 1.0, stacked, raw, &mut got);
            scores_to_probs(&mut got, stacked, scale, Some(&slopes));
            assert_close(&format!("b={b} mask#{m}"), &got, &want, 1e-6);
        }
    }
}

#[test]
fn fused_block_backward_matches_finite_differences() {
    let (b, n) = (4usize, 4usize);
    let lay = BlockCsr::from_mask(&PatternSpec::LocalGlobal { w: 2, g: 1 }.mask(n), b);
    let (scale, slopes) = (0.6f32, [0.2f32]);
    let scores = randn_vec(lay.data_len(), 1.0, 21);
    let g_out = randn_vec(lay.data_len(), 1.0, 22);
    let probs = |x: &[f32]| {
        let mut p = x.to_vec();
        scores_to_probs(&mut p, &lay, scale, Some(&slopes));
        p
    };
    let loss = |x: &[f32]| -> f64 {
        let p = probs(x);
        p.iter().zip(&g_out).map(|(p, g)| (p * g) as f64).sum()
    };
    let mut ds = g_out.clone();
    probs_backward(&probs(&scores), &mut ds, &lay, scale);
    let dense_ds = block_data_to_dense(&ds, &lay);
    let s = n * b;
    let h = 1e-2f32;
    for br in 0..n {
        for e in lay.row_entries(br) {
            let bc = lay.col_idx[e] as usize;
            for idx in 0..b * b {
                let (gi, gj) = (br * b + idx / b, bc * b + idx % b);
                let at = e * b * b + idx;
                if gj > gi {
                    assert_eq!(ds[at], 0.0, "masked gradient at ({gi},{gj})");
                    continue;
                }
                let (mut xp, mut xm) = (scores.clone(), scores.clone());
                xp[at] += h;
                xm[at] -= h;
                let fd = ((loss(&xp) - loss(&xm)) / (2.0 * h as f64)) as f32;
                let got = dense_ds[gi * s + gj];
                assert!((got - fd).abs() < 2e-3, "({gi},{gj}): {got} vs {fd}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// LayerNorm against a plain reference
// ---------------------------------------------------------------------------

#[test]
fn layernorm_matches_an_f64_reference_and_skips_frozen_grads_exactly() {
    let (rows_n, n) = (4usize, 37usize);
    let x = randn_vec(rows_n * n, 2.0, 31);
    let dy = randn_vec(rows_n * n, 1.0, 32);
    let gamma = randn_vec(n, 1.0, 33);
    let beta = randn_vec(n, 0.5, 34);
    let isa = active_isa();
    let (mut y, mut mean, mut rstd) = (vec![0.0; rows_n * n], vec![0.0; rows_n], vec![0.0; rows_n]);
    rows::layernorm_forward(isa, &x, &gamma, &beta, 1e-5, &mut y, &mut mean, &mut rstd);
    let mut dx = vec![0.0; rows_n * n];
    let (mut dgamma, mut dbeta) = (vec![0.0; n], vec![0.0; n]);
    let grads = Some((&mut dgamma[..], &mut dbeta[..]));
    rows::layernorm_backward(isa, &x, &dy, &gamma, &mean, &rstd, &mut dx, grads);
    let mut dx_frozen = vec![0.0; rows_n * n];
    rows::layernorm_backward(isa, &x, &dy, &gamma, &mean, &rstd, &mut dx_frozen, None);
    assert_bits("dx with and without param grads", &dx_frozen, &dx);

    let (mut want_dg, mut want_db) = (vec![0.0f64; n], vec![0.0f64; n]);
    for r in 0..rows_n {
        let xr: Vec<f64> = x[r * n..(r + 1) * n].iter().map(|&v| v as f64).collect();
        let mu = xr.iter().sum::<f64>() / n as f64;
        let var = xr.iter().map(|v| (v - mu) * (v - mu)).sum::<f64>() / n as f64;
        let rs = 1.0 / (var + 1e-5).sqrt();
        assert!((mean[r] as f64 - mu).abs() < 1e-6 && (rstd[r] as f64 - rs).abs() < 1e-5 * rs);
        let xhat: Vec<f64> = xr.iter().map(|v| (v - mu) * rs).collect();
        let dyg: Vec<f64> = (0..n)
            .map(|i| dy[r * n + i] as f64 * gamma[i] as f64)
            .collect();
        let m1 = dyg.iter().sum::<f64>() / n as f64;
        let m2 = dyg.iter().zip(&xhat).map(|(a, b)| a * b).sum::<f64>() / n as f64;
        for i in 0..n {
            let want_y = xhat[i] * gamma[i] as f64 + beta[i] as f64;
            assert!((y[r * n + i] as f64 - want_y).abs() < 1e-5, "y[{r},{i}]");
            let want_dx = rs * (dyg[i] - m1 - xhat[i] * m2);
            assert!((dx[r * n + i] as f64 - want_dx).abs() < 1e-4, "dx[{r},{i}]");
            want_dg[i] += dy[r * n + i] as f64 * xhat[i];
            want_db[i] += dy[r * n + i] as f64;
        }
    }
    for i in 0..n {
        assert!((dgamma[i] as f64 - want_dg[i]).abs() < 1e-4, "dgamma[{i}]");
        assert!((dbeta[i] as f64 - want_db[i]).abs() < 1e-5, "dbeta[{i}]");
    }
}

// ---------------------------------------------------------------------------
// Non-finite inputs stay visible
// ---------------------------------------------------------------------------

#[test]
fn nan_and_infinite_scores_poison_their_row_and_the_loss() {
    for isa in arms() {
        for bad in [f32::NAN, f32::INFINITY] {
            // Dense: row 2 is poisoned, its neighbours are untouched.
            let s = 20;
            let mut p = randn_vec(s * s, 1.0, 41);
            p[2 * s + 1] = bad;
            let cols = [0u32];
            let causal = Some(Causal {
                q0: 0,
                cols: &cols,
                slope: 0.1,
            });
            rows::softmax_forward(isa, &mut p, Band::dense(s, s), 0.5, causal);
            assert!(p[2 * s..2 * s + 3].iter().all(|v| v.is_nan()), "{bad}");
            assert!(p[..2 * s].iter().chain(&p[3 * s..]).all(|v| v.is_finite()));

            // Block rows: the poisoned score sits in the second segment.
            let (b, entries) = (16usize, 3usize);
            let mut blk = randn_vec(entries * b * b, 1.0, 42);
            blk[b * b + 5 * b + 3] = bad; // row 5 of entry 1
            let cols = [0u32, 1, 2];
            let causal = Some(Causal {
                q0: 2 * b,
                cols: &cols,
                slope: 0.0,
            });
            rows::softmax_forward(isa, &mut blk, Band::block_row(b, entries), 1.0, causal);
            for e in 0..entries {
                let live = if e < 2 { b } else { 6 };
                let row5 = &blk[e * b * b + 5 * b..][..live];
                assert!(row5.iter().all(|v| v.is_nan()), "{bad} entry {e}");
                let row4 = &blk[e * b * b + 4 * b..][..b];
                assert!(row4.iter().all(|v| v.is_finite()));
            }

            // The loss sees it too.
            let mut logits = randn_vec(33, 1.0, 43);
            logits[7] = bad;
            let mut grad = vec![0.0; 33];
            let (max, sum) = rows::log_sum_exp(isa, &logits, Some((&mut grad, 1.0)));
            assert!(!(max + sum.ln()).is_finite(), "{bad}");
            assert!(grad.iter().all(|v| v.is_nan()), "{bad}");
        }
        // A row of nothing but NaN stays NaN; nothing but −∞ becomes zeros.
        let mut rows2 = [[f32::NAN; 19], [f32::NEG_INFINITY; 19]].concat();
        rows::softmax_forward(isa, &mut rows2, Band::dense(2, 19), 1.0, None);
        assert!(rows2[..19].iter().all(|v| v.is_nan()));
        assert!(rows2[19..].iter().all(|&v| v == 0.0));
    }
}
