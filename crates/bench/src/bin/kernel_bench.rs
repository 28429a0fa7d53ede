//! Kernel backend comparison: `Reference` loops vs the `Packed` tiled
//! microkernels across Fig. 12-style operator shapes.
//!
//! Shapes cover the hot paths the backends serve: square training GEMMs, the
//! attention score/context products (`s×dh×s` / `s×s×dh`), the MLP FC1/FC2
//! shapes, and the `dW = Xᵀ·dY` gradient (`tn`) shape. Each shape is timed on
//! both backends and cross-checked numerically (≤1e-4 relative).
//!
//! A second "gates" table starts with two report-only rows: the parallel
//! macro-kernel (pooled vs single-worker packed GEMM on the large shape
//! class — `available_parallelism` cannot tell two cores from two vCPUs
//! sharing one) and the fused bias (an op carrying its bias into the
//! write-back, vs the unfused gemm-then-bias composition). Bit-identity between the compared variants
//! is asserted unconditionally.
//! Three more rows gate the grouped entry point the block-sparse operators
//! launch through: one `gemm_grouped` over the operator's offset table vs the
//! per-task `gemm` loop it replaced — each block on the backend that loop ran
//! it on, `Reference` for the 16-wide attention blocks and `Packed` for the
//! FC1 slabs — both single-threaded (`with_sequential`),
//! so the ratio is packing reuse and microkernel efficiency and enforces on
//! any runner — floor ≥3.0x for the SDD score blocks and for the transposed
//! DSD over the same layout. The FC1 row gates that the one wide launch over
//! the neuron slabs is never slower than its per-slab launches, floor ≥1.0x:
//! both read X in place, so what the wide launch buys is its wider register
//! tile and one B̃ for all slabs, not packing reuse. The `lora` row
//! times the fused rank-r operator against the composition it replaced
//! (separate products, scratch tensors, axpy / scale / add passes), asserts
//! the two agree bit for bit, floor ≥1.05x. The `attention core` row times
//! one `ft-sparse-s512` layer's attention core at the workload's density
//! (~1,912 blocks), forward + backward, as the fused launches against the
//! composed operators, both over the head-major panels the projections
//! write, single-threaded; it prints the fused path's GMAC/s (six block
//! products per block), asserts the two agree bit for bit (P, dS, ctx, dQ,
//! dK, dV), floor ≥0.4x — it gates a collapse, not a ratio. Two report-only
//! rows time the head-major q/k/v write (one launch, a run per head)
//! against the token-major product it replaced, on one thread and on the
//! pool, bits asserted. The next three rows gate the row
//! kernels: the active ISA arm
//! over the scalar definition it must match bit for bit, single-threaded —
//! floor ≥3.0x for the fused block-row softmax at the same SDD layout,
//! ≥0.9x for its backward over that layout (under half the ~1.6–1.9x it reads;
//! with no `exp` in it, the definition is not slow), ≥1.5x for LayerNorm
//! forward + backward at 512×256 (skipped, loudly, when the active arm *is*
//! the scalar definition). Two more gate the
//! reduced-storage run decoders the same way: one `d_model × d_ff` panel
//! decoded by the active arm over the definition, bitwise asserted, floor
//! ≥3.0x for f16 and for NF4.
//!
//! The shape table starts after a ~0.3 s warm-up: a vCPU that was idle runs
//! the first ~100 ms slow, which inflates the `Reference` times of the first
//! rows and so their ratios.
//!
//! Flags:
//! * `--smoke` — small shapes, few reps; asserts numerical equivalence,
//!   exits non-zero on mismatch (the CI regression gate).
//! * `--probe-isa <name>` — exit 0 if this CPU can run the named ISA arm
//!   (`scalar|avx2|avx512|neon`), 2 otherwise; no benching. CI uses this to
//!   skip matrix arms the runner cannot execute, with a visible log line.
//! * `--json`  — also write `BENCH_kernel_bench.json` (the perf trajectory).
//! * `--compare <baseline.json>` — gate the `speedup` column against a
//!   committed baseline (see `ci/baselines/`); exits non-zero when any shape
//!   regresses below `baseline · (1 − tolerance)`. Speedups are ratios of
//!   two kernels on the same box, so they transfer across machines in a way
//!   absolute milliseconds never would.
//! * `--tolerance <frac>` — regression tolerance for `--compare`
//!   (default 0.35: shared CI boxes are noisy; the gate is for "packed
//!   stopped being faster", not ±5% jitter).

use lx_bench::{header, load_bench_json, row, BenchCli};
use lx_kernels::{
    GemmGroup, GemmOp, GemmTable, Isa, KernelBackend, Layout, Windows, PACKED, REFERENCE,
};
use lx_tensor::rng::randn_vec;
use lx_tensor::{BRef, Dtype, Reduced, Tensor};
use std::time::Instant;

const NN: (Layout, Layout) = (Layout::Normal, Layout::Normal);
const NT: (Layout, Layout) = (Layout::Normal, Layout::Transposed);
const TN: (Layout, Layout) = (Layout::Transposed, Layout::Normal);

struct Shape {
    label: &'static str,
    /// (A layout, B layout).
    layouts: (Layout, Layout),
    /// Storage of the B operand. Every non-f32 dtype runs both backends'
    /// fused decode path (mixed-precision storage, f32 accumulate): f16 bits
    /// and NF4 dequant-in-pack.
    store: Dtype,
    m: usize,
    k: usize,
    n: usize,
}

const fn shape(
    label: &'static str,
    layouts: (Layout, Layout),
    store: Dtype,
    m: usize,
    k: usize,
    n: usize,
) -> Shape {
    Shape {
        label,
        layouts,
        store,
        m,
        k,
        n,
    }
}

fn shapes(smoke: bool) -> Vec<Shape> {
    use Dtype::{Nf4Block as Q4, F16, F32};
    if smoke {
        vec![
            shape("square", NN, F32, 192, 192, 192),
            shape("attn scores", NT, F32, 128, 64, 128),
            shape("mlp fc1", NN, F32, 128, 128, 256),
            shape("mlp fc1 f16-w", NN, F16, 128, 128, 256),
            shape("mlp fc1 nf4-w", NN, Q4, 128, 128, 256),
            shape("lm head f16-w", NT, F16, 64, 128, 1024),
            shape("lm head nf4-w", NT, Q4, 64, 128, 1024),
            shape("grad dW", TN, F32, 128, 128, 128),
        ]
    } else {
        vec![
            shape("square 256", NN, F32, 256, 256, 256),
            shape("square 512", NN, F32, 512, 512, 512),
            shape("square 1024", NN, F32, 1024, 1024, 1024),
            shape("square 512 f16-w", NN, F16, 512, 512, 512),
            shape("attn scores s=512", NT, F32, 512, 64, 512),
            shape("attn context s=512", NN, F32, 512, 512, 64),
            shape("mlp fc1 512x256x1024", NN, F32, 512, 256, 1024),
            shape("mlp fc1 f16-w 512x256x1024", NN, F16, 512, 256, 1024),
            shape("mlp fc1 nf4-w 512x256x1024", NN, Q4, 512, 256, 1024),
            shape("lm head f16-w 64x128x1024", NT, F16, 64, 128, 1024),
            shape("lm head nf4-w 64x128x1024", NT, Q4, 64, 128, 1024),
            shape("mlp fc2 512x1024x256", NN, F32, 512, 1024, 256),
            shape("grad dW 256x512x1024", TN, F32, 256, 512, 1024),
        ]
    }
}

/// What the block-sparse operators did before the grouped entry point: one
/// GEMM per block on the backend the size dispatch of that time picked for
/// it. Implementing only `gemm` leaves `gemm_grouped` at the trait's default
/// — the per-task loop.
struct PerTask(&'static dyn KernelBackend);

impl KernelBackend for PerTask {
    fn name(&self) -> &'static str {
        "per-task"
    }

    fn gemm(&self, op: &GemmOp<'_>, c: &mut [f32], ldc: usize, beta: f32) {
        self.0.gemm(op, c, ldc, beta)
    }
}

fn run(be: &dyn KernelBackend, op: &GemmOp<'_>, c: &mut [f32]) {
    be.gemm(op, c, op.n, 0.0);
}

/// Best-of-`reps` timing: the minimum is the standard noise-robust
/// microbenchmark statistic — one scheduler hiccup on a shared CI box
/// inflates the mean but cannot shrink the min, which is what keeps the
/// `--compare` speedup gate from flaking.
fn time(be: &dyn KernelBackend, op: &GemmOp<'_>, c: &mut [f32], reps: usize) -> f64 {
    run(be, op, c); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        run(be, op, c);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Keep both backends busy on a 192³ product for ~0.3 s, so the shape table
/// starts on a warm vCPU.
fn warm_up() {
    let n = 192;
    let (a, b) = (randn_vec(n * n, 1.0, 1), randn_vec(n * n, 1.0, 2));
    let op = GemmOp::nn(n, n, n, &a, n, &b[..], n);
    let mut c = vec![0.0f32; n * n];
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < 0.3 {
        run(&REFERENCE, &op, &mut c);
        run(&PACKED, &op, &mut c);
    }
}

fn max_rel_diff(x: &[f32], y: &[f32]) -> f32 {
    x.iter()
        .zip(y)
        .map(|(a, b)| {
            let d = (a - b).abs() / (1.0 + b.abs());
            // NaN must fail the gate, not vanish in fold(max).
            if d.is_finite() {
                d
            } else {
                f32::INFINITY
            }
        })
        .fold(0.0, f32::max)
}

fn main() {
    let cli = BenchCli::parse("kernel_bench");
    // `--probe-isa` answers "can this runner execute that matrix arm?" and
    // nothing else — it must run before any benching.
    if let Some(name) = cli.value("--probe-isa") {
        match Isa::parse(name) {
            Some(isa) if isa.supported() => {
                println!("kernel_bench: isa '{}' supported on this CPU", isa.name());
                std::process::exit(0);
            }
            Some(isa) => {
                println!(
                    "kernel_bench: isa '{}' NOT supported on this CPU",
                    isa.name()
                );
                std::process::exit(2);
            }
            None => {
                eprintln!("kernel_bench: unknown isa '{name}' (expected scalar|avx2|avx512|neon)");
                std::process::exit(2);
            }
        }
    }
    let smoke = cli.smoke;
    let policy = lx_kernels::current_policy();
    let threads = lx_parallel::pool().threads();
    println!(
        "== kernel_bench: Reference vs Packed (policy: MC={} KC={} NC={}, isa: {}, threads: {}{}) \
         ==\n",
        policy.tiles.mc,
        policy.tiles.kc,
        policy.tiles.nc,
        lx_kernels::active_isa().name(),
        threads,
        if smoke { ", smoke" } else { "" }
    );
    header(&[
        "shape",
        "m×k×n",
        "ref ms",
        "packed ms",
        "speedup",
        "max rel diff",
    ]);
    let mut failures = 0usize;
    let mut best_speedup = 0.0f64;
    warm_up();
    for s in shapes(smoke) {
        let (a_layout, b_layout) = s.layouts;
        let (b_rows, b_cols) = match b_layout {
            Layout::Normal => (s.k, s.n),
            Layout::Transposed => (s.n, s.k),
        };
        let a = randn_vec(s.m * s.k, 1.0, 1);
        let dense = Tensor::from_vec(randn_vec(b_rows * b_cols, 1.0, 2), &[b_rows, b_cols]);
        let reduced = (s.store != Dtype::F32).then(|| Reduced::from_tensor(&dense, s.store));
        let b: BRef<'_> = match &reduced {
            Some(r) => r.into(),
            None => (&dense).into(),
        };
        let op = GemmOp::contiguous(s.m, s.k, s.n, &a, a_layout, b.operand(), b_layout);
        let mut c_ref = vec![0.0f32; s.m * s.n];
        let mut c_packed = vec![0.0f32; s.m * s.n];
        let flops = 2.0 * (s.m * s.k * s.n) as f64;
        let reps = if smoke {
            // Enough samples for the min to be stable: the compared smoke
            // shapes run in tens of microseconds, so 5 reps are still cheap.
            5
        } else {
            ((2e9 / flops) as usize).clamp(2, 20)
        };
        let t_ref = time(&REFERENCE, &op, &mut c_ref, reps);
        let t_packed = time(&PACKED, &op, &mut c_packed, reps);
        let diff = max_rel_diff(&c_packed, &c_ref);
        if diff > 1e-4 {
            failures += 1;
        }
        let speedup = t_ref / t_packed;
        best_speedup = best_speedup.max(speedup);
        row(&[
            s.label.to_string(),
            format!("{}x{}x{}", s.m, s.k, s.n),
            format!("{:.2}", t_ref * 1e3),
            format!("{:.2}", t_packed * 1e3),
            format!("{speedup:.2}x"),
            format!("{diff:.2e}"),
        ]);
    }
    println!(
        "\nbest packed speedup: {best_speedup:.2}x (acceptance bar: ≥2x on at least one shape)"
    );
    let mut gate_failed = false;

    // ---- Gates: parallel scaling and fused-bias wins ----------------------
    // The gate shapes run in well under a millisecond, so a deeper best-of
    // min is cheap and is what keeps sub-1.5x ratio floors from flaking.
    let gate_reps = if smoke { 15 } else { 30 };
    println!();
    header(&[
        "gate", "m×k×n", "base ms", "new ms", "speedup", "floor", "status",
    ]);

    // Parallel scaling: the same packed GEMM single-worker vs pooled, on the
    // large shape class (256³). The two legs
    // write worker-disjoint row panels in the same order, so the results must
    // be bit-identical — that half gates; the timing is report-only, like
    // `fused bias` below.
    {
        let (m, k, n) = (256usize, 256usize, 256usize);
        let a = randn_vec(m * k, 1.0, 11);
        let b = randn_vec(k * n, 1.0, 12);
        let mut c_seq = vec![0.0f32; m * n];
        let mut c_par = vec![0.0f32; m * n];
        let op = GemmOp::nn(m, k, n, &a, k, &b[..], n);
        let t_seq = lx_kernels::with_sequential(|| time(&PACKED, &op, &mut c_seq, gate_reps));
        let t_par = time(&PACKED, &op, &mut c_par, gate_reps);
        let identical = c_seq
            .iter()
            .zip(&c_par)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        if !identical {
            eprintln!("kernel_bench: parallel packed GEMM is not bit-identical to sequential");
            failures += 1;
        }
        let status = if identical {
            "report-only"
        } else {
            "FAIL (bits)"
        };
        row(&[
            "parallel scaling".to_string(),
            format!("{m}x{k}x{n}"),
            format!("{:.2}", t_seq * 1e3),
            format!("{:.2}", t_par * 1e3),
            format!("{:.2}x", t_seq / t_par),
            "-".to_string(),
            status.to_string(),
        ]);
    }

    // Fused bias: gemm + a serial bias pass (what the model paths did before
    // fusion) vs one call whose op carries the bias. The fused
    // write-back applies the identical scalar op per element after full
    // accumulation, so the outputs must match bit-for-bit — that half gates.
    // The timing is reported, not gated: the win is saved C traffic, which a
    // large last-level cache can legitimately erase.
    {
        // FC1-shaped with an 8 MiB C: the fusion win is skipping a
        // read-modify-write pass over C, which only shows once C spills the
        // last-level cache — at 1 MiB the serial pass is LLC-resident and
        // free.
        let (m, k, n) = (512usize, 64usize, 4096usize);
        let a = randn_vec(m * k, 1.0, 13);
        let b = randn_vec(k * n, 1.0, 14);
        let bias = randn_vec(n, 1.0, 15);
        let mut c_unfused = vec![0.0f32; m * n];
        let mut c_fused = vec![0.0f32; m * n];
        let op = GemmOp::nn(m, k, n, &a, k, &b[..], n);
        let unfused = |c: &mut [f32]| {
            run(&PACKED, &op, c);
            for r in 0..m {
                for (v, bj) in c[r * n..(r + 1) * n].iter_mut().zip(&bias) {
                    *v += bj;
                }
            }
        };
        let biased = GemmOp {
            bias: Some(&bias),
            ..op
        };
        let fused = |c: &mut [f32]| PACKED.gemm(&biased, c, n, 0.0);
        let best = |f: &dyn Fn(&mut [f32]), c: &mut [f32]| {
            f(c);
            let mut best = f64::INFINITY;
            for _ in 0..gate_reps {
                let t0 = Instant::now();
                f(c);
                best = best.min(t0.elapsed().as_secs_f64());
            }
            best
        };
        let t_unfused = best(&unfused, &mut c_unfused);
        let t_fused = best(&fused, &mut c_fused);
        let identical = c_unfused
            .iter()
            .zip(&c_fused)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        if !identical {
            eprintln!("kernel_bench: fused bias is not bit-identical to unfused");
            failures += 1;
        }
        let status = if identical {
            "report-only"
        } else {
            "FAIL (bits)"
        };
        row(&[
            "fused bias".to_string(),
            format!("{m}x{k}x{n}"),
            format!("{:.2}", t_unfused * 1e3),
            format!("{:.2}", t_fused * 1e3),
            format!("{:.2}x", t_unfused / t_fused),
            "-".to_string(),
            status.to_string(),
        ]);
    }

    // Grouped launch vs the per-task loop it replaced, at the operator shapes
    // of the `ft-sparse-s512` benchmark workload. Single-threaded on both
    // legs, so the floors enforce on any runner.
    {
        const B: usize = 16;
        let mut grouped = |label: &str, dims, g: &GemmGroup<'_>, c_len, base: PerTask, floor| {
            let mut c_loop = vec![0.0f32; c_len];
            let mut c_grouped = vec![0.0f32; c_len];
            let best = |f: &mut dyn FnMut()| {
                lx_kernels::with_sequential(|| {
                    f();
                    let mut best = f64::INFINITY;
                    for _ in 0..gate_reps {
                        let t0 = Instant::now();
                        f();
                        best = best.min(t0.elapsed().as_secs_f64());
                    }
                    best
                })
            };
            let t_loop = best(&mut || base.gemm_grouped(g, &mut c_loop));
            let t_grouped = best(&mut || PACKED.gemm_grouped(g, &mut c_grouped));
            let close = max_rel_diff(&c_grouped, &c_loop) <= 1e-4;
            if !close {
                eprintln!("kernel_bench: {label} differs from the per-task loop");
                failures += 1;
            }
            let speedup = t_loop / t_grouped;
            let status = if !close {
                "FAIL (diff)"
            } else if speedup >= floor {
                "ok"
            } else {
                eprintln!("kernel_bench: {label} {speedup:.2}x below the {floor:.2}x floor");
                gate_failed = true;
                "FAIL"
            };
            row(&[
                label.to_string(),
                dims,
                format!("{:.2}", t_loop * 1e3),
                format!("{:.2}", t_grouped * 1e3),
                format!("{speedup:.2}x"),
                format!("{floor:.2}x"),
                status.to_string(),
            ]);
        };

        // SDD scores: the causal blocks nearest the diagonal, 23% of each row.
        let (s, dh) = (512usize, 32usize);
        let q = randn_vec(s * dh, 1.0, 18);
        let k = randn_vec(s * dh, 1.0, 19);
        let blocks = (0..(s / B) as u32).flat_map(|br| {
            let keep = ((0.23 * (br + 1) as f64).round() as u32).clamp(1, br + 1);
            (br + 1 - keep..=br).map(move |bc| (br, bc))
        });
        let table = GemmTable::each((0u32..).zip(blocks).map(|(e, (br, bc))| (br, bc, e)));
        let group = GemmGroup {
            m: B,
            k: dh,
            n: B,
            a: Windows::normal(&q[..], dh, B * dh),
            b: Windows::transposed(&k, dh, B * dh),
            ldc: B,
            c_stride: B * B,
            beta: 0.0,
            table: &table,
            bias: None,
        };
        let c_len = table.tasks().len() * B * B;
        let dims = format!("{}x{B}x{dh}x{B}", table.tasks().len());
        grouped(
            "grouped sdd s=512 dh=32 b=16 d=0.23",
            dims,
            &group,
            c_len,
            PerTask(&REFERENCE),
            3.0,
        );

        // FC1 forward: 41% of 64 neuron slabs, spread over the hidden width.
        let (rows, d, n_blocks, active) = (512usize, 256usize, 64u32, 26u32);
        let x = randn_vec(rows * d, 1.0, 20);
        let w1t = randn_vec(n_blocks as usize * B * d, 1.0, 21);
        let table = GemmTable::each((0..active).map(|ai| (0, ai * n_blocks / active, ai)));
        let group = GemmGroup {
            m: rows,
            k: d,
            n: B,
            a: Windows::normal(&x[..], d, 0),
            b: Windows::transposed(&w1t, d, B * d),
            ldc: active as usize * B,
            c_stride: B,
            beta: 0.0,
            table: &table,
            bias: None,
        };
        let dims = format!("{active}x{rows}x{d}x{B}");
        grouped(
            "grouped fc1 512x256 d=0.41",
            dims,
            &group,
            rows * active as usize * B,
            PerTask(&PACKED),
            1.0,
        );

        // Transposed DSD (`dK = dSᵀ·Q`, `dV = Pᵀ·dO`) over the SDD layout
        // above: one run per block column, every P block read once and
        // transposed in place.
        let (s, dh) = (512usize, 32usize);
        let mut csc: Vec<(u32, u32)> = (0..(s / B) as u32)
            .flat_map(|br| {
                let keep = ((0.23 * (br + 1) as f64).round() as u32).clamp(1, br + 1);
                (br + 1 - keep..=br).map(move |bc| (br, bc))
            })
            .collect();
        let p = randn_vec(csc.len() * B * B, 1.0, 22);
        let x = randn_vec(s * dh, 1.0, 23);
        let entries: Vec<u32> = (0..csc.len() as u32).collect();
        let mut order: Vec<(u32, (u32, u32))> =
            entries.iter().copied().zip(csc.drain(..)).collect();
        order.sort_by_key(|&(_, (br, bc))| (bc, br));
        let mut runs = vec![0u32; s / B + 1];
        for &(_, (_, bc)) in &order {
            runs[bc as usize + 1] += 1;
        }
        for i in 0..s / B {
            runs[i + 1] += runs[i];
        }
        let table = GemmTable::new(order.iter().map(|&(e, (br, bc))| (e, br, bc)), runs);
        let group = GemmGroup {
            m: B,
            k: B,
            n: dh,
            a: Windows::transposed(&p[..], B, B * B),
            b: Windows::normal(&x, dh, B * dh),
            ldc: dh,
            c_stride: B * dh,
            beta: 0.0,
            table: &table,
            bias: None,
        };
        let dims = format!("{}x{B}x{B}x{dh}", table.tasks().len());
        grouped(
            "grouped dsd_tn s=512 dh=32 b=16 d=0.23",
            dims,
            &group,
            s * dh,
            PerTask(&REFERENCE),
            3.0,
        );
    }

    // The fused rank-r operator vs the composition it replaced — separate
    // products, an axpy into `y`, scale passes and an add into `dx` — at the
    // benchmark's q/v shape, single-threaded on both legs. The two must agree
    // bit for bit (`s = α/r = 2` is exact).
    {
        use lx_model::linear::{Lora, Side};
        use lx_sparse::NeuronBlockSet;
        use lx_tensor::gemm::{matmul, matmul_tn};
        let (rows, d, r) = (512usize, 256usize, 8usize);
        let tokens = NeuronBlockSet::all(1, d);
        let side = Side::panels(&tokens);
        let label = "lora fwd+bwd 512x256 r=8";
        let pair = || {
            let mut l = Lora::new("bench", d, d, r, 16.0, 24, Layout::Transposed);
            let vals = randn_vec(d * r, 0.3, 25);
            l.b.value.as_mut_slice().copy_from_slice(&vals);
            l
        };
        let x = Tensor::randn(&[rows, d], 1.0, 26);
        let dy = Tensor::randn(&[rows, d], 1.0, 27);
        let y0 = Tensor::randn(&[rows, d], 1.0, 28);
        let fused = |l: &mut Lora, y: &mut Tensor, dx: &mut Tensor| {
            l.forward(&x, y, side, side);
            l.backward(&x, &dy, dx, side, side);
        };
        let composed = |l: &mut Lora, y: &mut Tensor, dx: &mut Tensor| {
            let ax = matmul(&x, &l.a.value, Layout::Transposed);
            y.axpy(l.scale, &matmul(&ax, &l.b.value, Layout::Transposed));
            let mut dax = matmul(&dy, &l.b.value, Layout::Normal);
            dax.scale(l.scale);
            let mut db = matmul_tn(&dy, &ax);
            db.scale(l.scale);
            l.b.accumulate_grad(&db);
            l.a.accumulate_grad(&matmul_tn(&dax, &x));
            dx.add_assign(&matmul(&dax, &l.a.value, Layout::Normal));
        };
        type Leg<'a> = &'a dyn Fn(&mut Lora, &mut Tensor, &mut Tensor);
        let once = |leg: Leg<'_>| {
            let (mut l, mut y, mut dx) = (pair(), y0.clone(), y0.clone());
            lx_kernels::with_sequential(|| leg(&mut l, &mut y, &mut dx));
            let grads = [&l.a, &l.b].map(|p| p.grad.as_ref().expect("grad").as_slice().to_vec());
            [
                y.as_slice().to_vec(),
                dx.as_slice().to_vec(),
                grads[0].clone(),
                grads[1].clone(),
            ]
        };
        let identical = once(&fused)
            .iter()
            .zip(&once(&composed))
            .all(|(f, c)| f.iter().zip(c).all(|(a, b)| a.to_bits() == b.to_bits()));
        let best = |leg: Leg<'_>| {
            let (mut l, mut y, mut dx) = (pair(), y0.clone(), y0.clone());
            lx_kernels::with_sequential(|| {
                leg(&mut l, &mut y, &mut dx);
                let mut best = f64::INFINITY;
                for _ in 0..gate_reps {
                    let t0 = Instant::now();
                    leg(&mut l, &mut y, &mut dx);
                    best = best.min(t0.elapsed().as_secs_f64());
                }
                best
            })
        };
        let (t_composed, t_fused) = (best(&composed), best(&fused));
        let (speedup, floor) = (t_composed / t_fused, 1.05);
        let status = if !identical {
            eprintln!("kernel_bench: {label}: fused and composed results differ");
            failures += 1;
            "FAIL (diff)"
        } else if speedup >= floor {
            "ok"
        } else {
            eprintln!("kernel_bench: {label} {speedup:.2}x below the {floor:.2}x floor");
            gate_failed = true;
            "FAIL"
        };
        row(&[
            label.to_string(),
            format!("{rows}x{d}x{r}"),
            format!("{:.2}", t_composed * 1e3),
            format!("{:.2}", t_fused * 1e3),
            format!("{speedup:.2}x"),
            format!("{floor:.2}x"),
            status.to_string(),
        ]);
    }

    // The attention core of one `ft-sparse-s512` layer, forward + backward,
    // at the workload's density (~1,912 blocks, ~0.45 of causal): the fused
    // launches vs the composed operators, both over the head-major panels
    // the projections write, single-threaded. P, ctx, dS, dQ, dK and dV must
    // agree bit for bit.
    {
        use lx_sparse::attention::{
            dsd, dsd_tn, probs_backward, scores_to_probs, sdd_nt, AttentionCore, CausalFill,
        };
        use lx_sparse::{BlockCsr, BlockMask, MultiHeadLayout};
        use std::sync::Arc;
        const B: usize = 16;
        let (s, heads, dh) = (512usize, 8usize, 32usize);
        let (n, span) = (s / B, heads * s);
        let label = "attention core s=512 b=16 d=0.45";
        let mut mask = BlockMask::square(n);
        for br in 0..n {
            let keep = ((0.45 * (br + 1) as f64).round() as usize).clamp(1, br + 1);
            for bc in br + 1 - keep..=br {
                mask.set(br, bc, true);
            }
        }
        let head = Arc::new(BlockCsr::from_mask(&mask, B));
        let layout = MultiHeadLayout::combine(vec![head; heads]);
        let stacked = layout.stacked().expect("equal heads stack");
        let total = layout.total_data_len;
        let scale = 1.0 / (dh as f32).sqrt();
        // Head-major `[heads, s, dh]` panels of one batch item.
        let [q, k, v, dout] = [30u64, 31, 32, 33].map(|seed| randn_vec(span * dh, 1.0, seed));
        let composed = || {
            let mut out = vec![0.0f32; 2 * total + 4 * span * dh];
            let (p, rest) = out.split_at_mut(total);
            let (ds, rest) = rest.split_at_mut(total);
            let (ctx, rest) = rest.split_at_mut(span * dh);
            let (dq, rest) = rest.split_at_mut(span * dh);
            let (dk, dv) = rest.split_at_mut(span * dh);
            sdd_nt(&q, &k, span, dh, 1.0, stacked, CausalFill::None, p);
            scores_to_probs(p, stacked, scale, None);
            dsd(p, &v, span, dh, stacked, ctx);
            sdd_nt(&dout, &v, span, dh, 1.0, stacked, CausalFill::None, ds);
            probs_backward(p, ds, stacked, scale);
            dsd(ds, &k, span, dh, stacked, dq);
            dsd_tn(ds, &q, span, dh, stacked, dk);
            dsd_tn(p, &dout, span, dh, stacked, dv);
            out
        };
        let fused = || {
            let core = AttentionCore::new(&layout, s, dh);
            let mut out = vec![0.0f32; 2 * total + 4 * span * dh];
            let (p, rest) = out.split_at_mut(total);
            let (ds, rest) = rest.split_at_mut(total);
            let (ctx, rest) = rest.split_at_mut(span * dh);
            let (dq, rest) = rest.split_at_mut(span * dh);
            let (dk, dv) = rest.split_at_mut(span * dh);
            core.forward(0, (&q, &k, &v), scale, None, p, ctx);
            core.backward(0, (&q, &k, &v), &dout, p, scale, ds, (dq, dk, dv));
            out
        };
        let best = |f: &dyn Fn() -> Vec<f32>| {
            lx_kernels::with_sequential(|| {
                let out = f();
                let mut best = f64::INFINITY;
                for _ in 0..gate_reps {
                    let t0 = Instant::now();
                    std::hint::black_box(f());
                    best = best.min(t0.elapsed().as_secs_f64());
                }
                (best, out)
            })
        };
        let ((t_composed, want), (t_fused, got)) = (best(&composed), best(&fused));
        let identical = want
            .iter()
            .zip(&got)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        // Six block products per block, forward and backward.
        let macs = 6 * stacked.nnz_blocks() * B * B * dh;
        let gmacs = macs as f64 / t_fused / 1e9;
        // It gates bit-identity, and only a collapse of the fused path on
        // time.
        let (speedup, floor) = (t_composed / t_fused, 0.4);
        let status = if !identical {
            eprintln!("kernel_bench: {label}: fused and composed results differ");
            failures += 1;
            "FAIL (diff)"
        } else if speedup >= floor {
            "ok"
        } else {
            eprintln!("kernel_bench: {label} {speedup:.2}x below the {floor:.2}x floor");
            gate_failed = true;
            "FAIL"
        };
        row(&[
            label.to_string(),
            format!("{}x{B}x{dh}x{B} {gmacs:.1} GMAC/s", stacked.nnz_blocks()),
            format!("{:.2}", t_composed * 1e3),
            format!("{:.2}", t_fused * 1e3),
            format!("{speedup:.2}x"),
            format!("{floor:.2}x"),
            status.to_string(),
        ]);
    }

    // The q/k/v projection of one `ft-*-s512` layer writing head-major
    // panels (one launch, run `h` writing head `h` with its bias slice)
    // against the token-major product it replaced, single-threaded and on
    // the pool: report-only timing, bits asserted.
    {
        use lx_model::linear::{Linear, NeuronBlockSet, Side};
        let (rows, d, heads) = (512usize, 256usize, 8usize);
        let x = Tensor::randn(&[rows, d], 1.0, 34);
        // One projection with a nonzero bias, run over both output sides.
        let mut lin = Linear::new("bench.wq", d, d, true, 35);
        let bias = randn_vec(d, 0.5, 36);
        let b = &mut lin.bias.as_mut().expect("bias").value;
        b.as_mut_slice().copy_from_slice(&bias);
        let (token_set, head_set) = (
            NeuronBlockSet::all(1, d),
            NeuronBlockSet::all(heads, d / heads),
        );
        let (t, h) = (Side::panels(&token_set), Side::panels(&head_set));
        let token = lin.project(&x, t, t);
        let mut panels = vec![0.0f32; rows * d];
        let w = d / heads;
        for (r, src) in token.as_slice().chunks_exact(d).enumerate() {
            for hd in 0..heads {
                panels[(hd * rows + r) * w..][..w].copy_from_slice(&src[hd * w..][..w]);
            }
        }
        let identical = lin
            .project(&x, t, h)
            .as_slice()
            .iter()
            .zip(&panels)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        for (label, sequential) in [
            ("head-major q/k/v write 512x256 h=8 1 thread", true),
            ("head-major q/k/v write 512x256 h=8 pool", false),
        ] {
            let mut best = |heads_major: bool| {
                let mut run = || {
                    let mut best = f64::INFINITY;
                    for _ in 0..gate_reps {
                        let t0 = Instant::now();
                        let ys = if heads_major { h } else { t };
                        std::hint::black_box(lin.project(&x, t, ys));
                        best = best.min(t0.elapsed().as_secs_f64());
                    }
                    best
                };
                if sequential {
                    lx_kernels::with_sequential(run)
                } else {
                    run()
                }
            };
            let (t_token, t_heads) = (best(false), best(true));
            let status = if identical {
                "report-only"
            } else {
                eprintln!("kernel_bench: {label}: head-major and token-major results differ");
                failures += 1;
                "FAIL (diff)"
            };
            row(&[
                label.to_string(),
                format!("{rows}x{d}x{d}"),
                format!("{:.2}", t_token * 1e3),
                format!("{:.2}", t_heads * 1e3),
                format!("{:.2}x", t_token / t_heads),
                "-".to_string(),
                status.to_string(),
            ]);
        }
    }

    // Row kernels: the active ISA arm vs the scalar definition it must equal
    // bit for bit, single-threaded on both legs. The floors enforce wherever
    // a vector arm is active; on a scalar-only host there is nothing to
    // compare.
    {
        use lx_kernels::rows::{self, Band, Causal};
        let isa = lx_kernels::active_isa();
        let mut rows_gate =
            |label: &str, dims: String, floor: f64, run: &dyn Fn(Isa) -> Vec<f32>| {
                let best = |arm: Isa| {
                    lx_kernels::with_sequential(|| {
                        let out = run(arm);
                        let mut best = f64::INFINITY;
                        for _ in 0..gate_reps {
                            let t0 = Instant::now();
                            std::hint::black_box(run(arm));
                            best = best.min(t0.elapsed().as_secs_f64());
                        }
                        (best, out)
                    })
                };
                let ((t_def, want), (t_arm, got)) = (best(Isa::Scalar), best(isa));
                let same = want
                    .iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    eprintln!(
                        "kernel_bench: {label}: {} arm differs from the definition",
                        isa.name()
                    );
                    failures += 1;
                }
                let speedup = t_def / t_arm;
                let status = if !same {
                    "FAIL (diff)"
                } else if isa == Isa::Scalar {
                    eprintln!(
                    "kernel_bench: SKIP {label} floor — the active arm is the scalar definition"
                );
                    "skip"
                } else if speedup >= floor {
                    "ok"
                } else {
                    eprintln!("kernel_bench: {label} {speedup:.2}x below the {floor:.2}x floor");
                    gate_failed = true;
                    "FAIL"
                };
                row(&[
                    label.to_string(),
                    dims,
                    format!("{:.2}", t_def * 1e3),
                    format!("{:.2}", t_arm * 1e3),
                    format!("{speedup:.2}x"),
                    format!("{floor:.2}x"),
                    status.to_string(),
                ]);
            };

        // Fused scores → probabilities over one head of the grouped-SDD row
        // above: 123 causal blocks of 16×16, ALiBi on.
        const B: usize = 16;
        let n_brows = 512 / B;
        let mut row_ptr = vec![0usize];
        let mut cols: Vec<u32> = Vec::new();
        for br in 0..n_brows as u32 {
            let keep = ((0.23 * (br + 1) as f64).round() as u32).clamp(1, br + 1);
            cols.extend(br + 1 - keep..=br);
            row_ptr.push(cols.len());
        }
        // Forward in place on `data` (scores in), or with `p` the backward
        // (`dP` in, `dS` out).
        let block_rows = |arm: Isa, data: &mut [f32], p: Option<&[f32]>| {
            for br in 0..n_brows {
                let entries = row_ptr[br]..row_ptr[br + 1];
                let causal = Some(Causal {
                    q0: br * B,
                    cols: &cols[entries.clone()],
                    slope: 0.0625,
                });
                let span = entries.start * B * B..entries.end * B * B;
                let band = Band::block_row(B, entries.len());
                match p {
                    None => rows::softmax_forward(arm, &mut data[span], band, 0.177, causal),
                    Some(p) => {
                        let g = &mut data[span.clone()];
                        rows::softmax_backward(arm, &p[span], g, band, 0.177, causal);
                    }
                }
            }
        };
        let scores = randn_vec(cols.len() * B * B, 2.0, 22);
        let dims = format!("{}x{B}x{B}", cols.len());
        rows_gate(
            "rows softmax block s=512 b=16 d=0.23",
            dims.clone(),
            3.0,
            &|arm| {
                let mut p = scores.clone();
                block_rows(arm, &mut p, None);
                p
            },
        );
        // Its backward over the same layout, from those probabilities.
        let mut probs = scores.clone();
        block_rows(Isa::Scalar, &mut probs, None);
        let dp = randn_vec(probs.len(), 1.0, 28);
        rows_gate(
            "rows softmax backward block s=512 b=16 d=0.23",
            dims,
            0.9,
            &|arm| {
                let mut g = dp.clone();
                block_rows(arm, &mut g, Some(&probs));
                g
            },
        );

        // LayerNorm forward + backward (frozen gamma/beta) at the model's
        // activation shape.
        let (n_rows, d) = (512usize, 256usize);
        let x = randn_vec(n_rows * d, 1.0, 23);
        let dy = randn_vec(n_rows * d, 1.0, 24);
        let gamma = randn_vec(d, 1.0, 25);
        let beta = randn_vec(d, 1.0, 26);
        rows_gate(
            "rows layernorm 512x256",
            format!("{n_rows}x{d}"),
            1.5,
            &|arm| {
                let mut out = vec![0.0f32; 2 * n_rows * d];
                let (y, dx) = out.split_at_mut(n_rows * d);
                let (mut mean, mut rstd) = (vec![0.0; n_rows], vec![0.0; n_rows]);
                rows::layernorm_forward(arm, &x, &gamma, &beta, 1e-5, y, &mut mean, &mut rstd);
                rows::layernorm_backward(arm, &x, &dy, &gamma, &mean, &rstd, dx, None);
                out
            },
        );

        // Reduced-storage decode of one backbone panel (`d_model × d_ff` of
        // the serve model), as the B̃ fills and row gathers run it.
        let (d, d_ff) = (128usize, 1024usize);
        let panel = Tensor::from_vec(randn_vec(d * d_ff, 1.0, 27), &[d, d_ff]);
        for (label, dtype) in [("decode f16", Dtype::F16), ("decode nf4", Dtype::Nf4Block)] {
            let reduced = Reduced::from_tensor(&panel, dtype);
            let b = BRef::from(&reduced).operand();
            rows_gate(label, format!("{d}x{d_ff}"), 3.0, &|arm| {
                let mut out = vec![0.0f32; b.len()];
                lx_kernels::decode::run(arm, b, 0, &mut out);
                out
            });
        }
    }

    cli.finish();
    if let Some(path) = cli.value("--compare") {
        let tolerance = cli
            .value("--tolerance")
            .map(|t| {
                t.parse::<f64>()
                    .expect("--tolerance takes a fraction, e.g. 0.35")
            })
            .unwrap_or(0.35);
        match load_bench_json(std::path::Path::new(&path)) {
            Ok(baseline) => {
                let (checked, regressions) =
                    lx_bench::compare_to_baseline(&baseline, "speedup", tolerance);
                println!(
                    "\nbench-regression gate vs {path}: {} comparisons at {:.0}% tolerance",
                    checked.len(),
                    tolerance * 100.0
                );
                for line in &checked {
                    println!("  {line}");
                }
                for line in &regressions {
                    eprintln!("  REGRESSION {line}");
                }
                if checked.is_empty() && regressions.is_empty() {
                    eprintln!("kernel_bench: baseline matched no rows — wrong file?");
                    gate_failed = true;
                }
                gate_failed |= !regressions.is_empty();
            }
            Err(e) => {
                eprintln!("kernel_bench: cannot load baseline: {e}");
                gate_failed = true;
            }
        }
    }
    if failures > 0 {
        eprintln!("kernel_bench: {failures} backend mismatches above 1e-4");
        std::process::exit(1);
    }
    if smoke && best_speedup < 1.0 {
        // The smoke gate is deliberately lenient on shared CI boxes: packed
        // must at least not *lose* end-to-end on the probe shapes.
        eprintln!("kernel_bench: packed slower than reference on every smoke shape");
        std::process::exit(1);
    }
    if gate_failed {
        std::process::exit(1);
    }
}
