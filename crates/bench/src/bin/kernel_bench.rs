//! Kernel backend comparison: `Reference` loops vs the `Packed` tiled
//! microkernels across Fig. 12-style operator shapes.
//!
//! Shapes cover the hot paths the backends serve: square training GEMMs, the
//! attention score/context products (`s×dh×s` / `s×s×dh`), the MLP FC1/FC2
//! shapes, and the `dW = Xᵀ·dY` gradient (`tn`) shape. Each shape is timed on
//! both backends, cross-checked numerically (≤1e-4 relative), and reported
//! with the dispatcher's per-shape choice.
//!
//! A second "gates" table checks the two wins this backend round is about:
//! the parallel macro-kernel (pooled vs single-worker packed GEMM on the
//! large shape class — timing reported, not gated: `available_parallelism`
//! cannot tell two cores from two vCPUs sharing one) and the fused bias+GELU
//! epilogue (vs the unfused gemm-then-bias-then-GELU composition, floor
//! ≥1.1x). That floor only *enforces* when the pool has ≥2 threads and the
//! host exposes ≥2 cores — on a single-core box the ratio is meaningless,
//! so the gate prints an explicit SKIP line instead of silently passing.
//! Bit-identity between the compared variants is asserted unconditionally.
//! Three more rows gate the grouped entry point the block-sparse operators
//! launch through: one `gemm_grouped` over the operator's offset table vs the
//! per-task `gemm` loop it replaced, both single-threaded (`with_sequential`),
//! so the ratio is packing reuse and microkernel efficiency and enforces on
//! any runner — floor ≥3.0x for the SDD score blocks and for the transposed
//! DSD over the same layout, ≥1.3x for the FC1 neuron slabs. The `lora` row
//! times the fused rank-r operator against the composition it replaced
//! (separate products, scratch tensors, axpy / scale / add passes), asserts
//! the two agree bit for bit, floor ≥1.05x. The last two rows gate the row
//! kernels: the active ISA arm
//! over the scalar definition it must match bit for bit, single-threaded —
//! floor ≥3.0x for the fused block-row softmax at the same SDD layout,
//! ≥1.5x for LayerNorm forward + backward at 512×256 (skipped, loudly, when
//! the active arm *is* the scalar definition). Two more gate the
//! reduced-storage run decoders the same way: one `d_model × d_ff` panel
//! decoded by the active arm over the definition, bitwise asserted, floor
//! ≥3.0x for f16 and for NF4.
//!
//! The shape table starts after a ~0.3 s warm-up: a vCPU that was idle runs
//! the first ~100 ms slow, which inflates the `Reference` times of the first
//! rows and so their ratios.
//!
//! Flags:
//! * `--smoke` — small shapes, few reps; asserts numerical equivalence and a
//!   sane dispatcher, exits non-zero on mismatch (the CI regression gate).
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
    Epilogue, GemmGroup, GemmOp, GemmTable, Isa, KernelBackend, Layout, Windows, AUTO, PACKED,
    REFERENCE,
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
/// dispatched GEMM per block. Implementing only `gemm` leaves `gemm_grouped`
/// at the trait's default — the per-task loop.
struct PerTask;

impl KernelBackend for PerTask {
    fn name(&self) -> &'static str {
        "per-task"
    }

    fn gemm(&self, op: &GemmOp<'_>, c: &mut [f32], ldc: usize, beta: f32, ep: Epilogue<'_>) {
        AUTO.gemm(op, c, ldc, beta, ep)
    }
}

fn run(be: &dyn KernelBackend, op: &GemmOp<'_>, c: &mut [f32]) {
    be.gemm(op, c, op.n, 0.0, Epilogue::None);
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
        "== kernel_bench: Reference vs Packed (policy: MC={} KC={} NC={}, packed ≥ {} flops, \
         isa: {}, threads: {}{}) ==\n",
        policy.tiles.mc,
        policy.tiles.kc,
        policy.tiles.nc,
        policy.min_flops_packed,
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
        "auto picks",
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
        // What the dispatcher actually does for this shape.
        let auto_picks = lx_kernels::auto_choice(s.m, s.k, s.n);
        let mut c_auto = vec![0.0f32; s.m * s.n];
        run(&AUTO, &op, &mut c_auto);
        if max_rel_diff(&c_auto, &c_ref) > 1e-4 {
            failures += 1;
        }
        row(&[
            s.label.to_string(),
            format!("{}x{}x{}", s.m, s.k, s.n),
            format!("{:.2}", t_ref * 1e3),
            format!("{:.2}", t_packed * 1e3),
            format!("{speedup:.2}x"),
            auto_picks.to_string(),
            format!("{diff:.2e}"),
        ]);
    }
    println!(
        "\nbest packed speedup: {best_speedup:.2}x (acceptance bar: ≥2x on at least one shape)"
    );
    let mut gate_failed = false;

    // ---- Gates: parallel scaling and fused-epilogue wins ------------------
    // The fused bias+GELU floor only enforces where the ratio means
    // something: the pool must actually have ≥2 workers AND the host must
    // expose ≥2 cores (a 1-core box timeslices the GEMM workers and any
    // ratio is noise).
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let enforce = threads >= 2 && avail >= 2;
    // The gate shapes run in well under a millisecond, so a deeper best-of
    // min is cheap and is what keeps sub-1.5x ratio floors from flaking.
    let gate_reps = if smoke { 15 } else { 30 };
    println!();
    header(&[
        "gate", "m×k×n", "base ms", "new ms", "speedup", "floor", "status",
    ]);

    // Parallel scaling: the same packed GEMM single-worker vs pooled, on the
    // large shape class (256³ clears the packed crossover). The two legs
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

    // Fused epilogues: gemm + serial epilogue passes (what the model paths
    // did before fusion) vs one call carrying the `Epilogue`. The fused write-back applies
    // the identical scalar ops per element after full accumulation, so the
    // outputs must match bit-for-bit — asserted unconditionally for both
    // rows. The perf floor enforces on the bias+GELU row: the tanh sweep
    // dominates and the fused variant runs it on the GEMM workers instead of
    // as a serial pass, so at ≥2 threads the win is compute-bound and
    // machine-independent. The bias-only row (the production fusion — the
    // MLP keeps GELU unfused because backward needs the pre-activation) is
    // reported but not gated: its win is saved C traffic, which a large
    // last-level cache can legitimately erase.
    {
        // FC1-shaped with an 8 MiB C: the fusion win is skipping a
        // read-modify-write pass over C, which only shows once C spills the
        // last-level cache — at 1 MiB the serial pass is LLC-resident and
        // free, and the gate would measure noise.
        let (m, k, n) = (512usize, 64usize, 4096usize);
        let a = randn_vec(m * k, 1.0, 13);
        let b = randn_vec(k * n, 1.0, 14);
        let bias = randn_vec(n, 1.0, 15);
        let mut fusion_gate = |label: &str, gelu_after: bool, floor: Option<f64>, reps: usize| {
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
                if gelu_after {
                    for v in c.iter_mut() {
                        *v = lx_kernels::gelu(*v);
                    }
                }
            };
            let ep = if gelu_after {
                Epilogue::BiasGelu(&bias)
            } else {
                Epilogue::Bias(&bias)
            };
            let fused = |c: &mut [f32]| {
                PACKED.gemm(&op, c, n, 0.0, ep);
            };
            unfused(&mut c_unfused);
            let mut t_unfused = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                unfused(&mut c_unfused);
                t_unfused = t_unfused.min(t0.elapsed().as_secs_f64());
            }
            fused(&mut c_fused);
            let mut t_fused = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                fused(&mut c_fused);
                t_fused = t_fused.min(t0.elapsed().as_secs_f64());
            }
            let identical = c_unfused
                .iter()
                .zip(&c_fused)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            if !identical {
                eprintln!("kernel_bench: fused {label} epilogue is not bit-identical to unfused");
                failures += 1;
            }
            let speedup = t_unfused / t_fused;
            let status = if !identical {
                "FAIL (bits)"
            } else if floor.is_none() {
                "report-only"
            } else if !enforce {
                eprintln!(
                    "kernel_bench: SKIP fused-{label} floor — pool has {threads} thread(s), \
                     host exposes {avail} core(s)"
                );
                "skip"
            } else if speedup >= floor.expect("checked above") {
                "ok"
            } else {
                eprintln!(
                    "kernel_bench: fused {label} {speedup:.2}x below the {:.2}x floor",
                    floor.expect("checked above")
                );
                gate_failed = true;
                "FAIL"
            };
            row(&[
                format!("fused {label}"),
                format!("{m}x{k}x{n}"),
                format!("{:.2}", t_unfused * 1e3),
                format!("{:.2}", t_fused * 1e3),
                format!("{speedup:.2}x"),
                floor.map_or("-".to_string(), |f| format!("{f:.2}x")),
                status.to_string(),
            ]);
        };
        fusion_gate("bias", false, None, gate_reps);
        // A shallower min keeps the smoke run fast on the 2M-element GELU
        // sweeps; tanh throughput is stable enough that it still gates.
        fusion_gate("bias+gelu", true, Some(1.1), gate_reps.min(5));
    }

    // Grouped launch vs the per-task loop it replaced, at the operator shapes
    // of the `ft-sparse-s512` benchmark workload. Single-threaded on both
    // legs, so the floors enforce on any runner.
    {
        const B: usize = 16;
        let mut grouped_gate = |label: &str, dims: String, g: &GemmGroup<'_>, c_len, floor: f64| {
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
            let t_loop = best(&mut || PerTask.gemm_grouped(g, &mut c_loop));
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
            a: Windows::normal(&q, dh, B * dh),
            b: Windows::transposed(&k, dh, B * dh),
            ldc: B,
            c_stride: B * B,
            beta: 0.0,
            table: &table,
        };
        let c_len = table.tasks().len() * B * B;
        let dims = format!("{}x{B}x{dh}x{B}", table.tasks().len());
        grouped_gate(
            "grouped sdd s=512 dh=32 b=16 d=0.23",
            dims,
            &group,
            c_len,
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
            a: Windows::normal(&x, d, 0),
            b: Windows::transposed(&w1t, d, B * d),
            ldc: active as usize * B,
            c_stride: B,
            beta: 0.0,
            table: &table,
        };
        let dims = format!("{active}x{rows}x{d}x{B}");
        grouped_gate(
            "grouped fc1 512x256 d=0.41",
            dims,
            &group,
            rows * active as usize * B,
            1.3,
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
            a: Windows::transposed(&p, B, B * B),
            b: Windows::normal(&x, dh, B * dh),
            ldc: dh,
            c_stride: B * dh,
            beta: 0.0,
            table: &table,
        };
        let dims = format!("{}x{B}x{B}x{dh}", table.tasks().len());
        grouped_gate(
            "grouped dsd_tn s=512 dh=32 b=16 d=0.23",
            dims,
            &group,
            s * dh,
            3.0,
        );
    }

    // The fused rank-r operator vs the composition it replaced — separate
    // products, an axpy into `y`, scale passes and an add into `dx` — at the
    // benchmark's q/v shape, single-threaded on both legs. The two must agree
    // bit for bit (`s = α/r = 2` is exact).
    {
        use lx_model::linear::Lora;
        use lx_tensor::gemm::{matmul, matmul_tn};
        let (rows, d, r) = (512usize, 256usize, 8usize);
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
            l.forward(&x, y);
            l.backward(&x, &dy, dx);
        };
        let composed = |l: &mut Lora, y: &mut Tensor, dx: &mut Tensor| {
            let ax = matmul(&x, &l.a.value, Layout::Transposed, Epilogue::None);
            y.axpy(
                l.scale,
                &matmul(&ax, &l.b.value, Layout::Transposed, Epilogue::None),
            );
            let mut dax = matmul(&dy, &l.b.value, Layout::Normal, Epilogue::None);
            dax.scale(l.scale);
            let mut db = matmul_tn(&dy, &ax);
            db.scale(l.scale);
            l.b.accumulate_grad(&db);
            l.a.accumulate_grad(&matmul_tn(&dax, &x));
            dx.add_assign(&matmul(&dax, &l.a.value, Layout::Normal, Epilogue::None));
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
        let scores = randn_vec(cols.len() * B * B, 2.0, 22);
        rows_gate(
            "rows softmax block s=512 b=16 d=0.23",
            format!("{}x{B}x{B}", cols.len()),
            3.0,
            &|arm| {
                let mut p = scores.clone();
                for br in 0..n_brows {
                    let entries = row_ptr[br]..row_ptr[br + 1];
                    let causal = Causal {
                        q0: br * B,
                        cols: &cols[entries.clone()],
                        slope: 0.0625,
                    };
                    let span = &mut p[entries.start * B * B..entries.end * B * B];
                    let band = Band::block_row(B, entries.len());
                    rows::softmax_forward(arm, span, band, 0.177, Some(causal));
                }
                p
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
