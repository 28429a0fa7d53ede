//! Layer probes: after the traced window, replay each crate's public entry
//! points at the shapes and densities the workload actually produced, so
//! every layer has a count and a time even where the workload's own path
//! cannot be timed from outside. Each probe is a few hundred milliseconds.

use crate::json::Json;
use crate::measure::Outcome;
use crate::recipe::{self, BLOCK};
use crate::stats;
use long_exposure::engine::FinetuneEngine;
use lx_cluster::{DispatchQueue, QosClass};
use lx_model::{prompt_aware_targets, ModelConfig, Precision};
use lx_peft::{PeftMethod, TenantAdapter};
use lx_quant::Q4View;
use lx_serve::{AdapterRegistry, DatasetSpec};
use lx_sparse::attention::{dsd, dsd_tn, sdd_nt, CausalFill};
use lx_sparse::neuron::{fc1_forward, fc2_forward};
use lx_sparse::{BlockCsr, BlockMask, NeuronBlockSet};
use lx_tensor::rng::uniform_vec;
use lx_tensor::Tensor;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// What the workload looked like, for the probes to replay.
pub struct ProbeInput<'a> {
    pub cfg: &'a ModelConfig,
    pub batch: usize,
    pub seq: usize,
    pub precision: Precision,
    /// Measured plan densities (1.0 when the workload ran dense).
    pub attn_density: f64,
    pub mlp_density: f64,
    pub methods: &'a [PeftMethod],
    pub stream_len: usize,
}

/// Median milliseconds per call of `f` over `reps` calls (after one warm-up).
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples)
}

#[derive(Clone, Copy)]
enum Variant {
    /// `C = A·Bᵀ`: a frozen linear's forward.
    Nt,
    /// `C = A·B`: the same linear's backward-input.
    Nn,
}

struct GemmShape {
    what: &'static str,
    variant: Variant,
    m: usize,
    k: usize,
    n: usize,
    /// Frozen backbone weight (stored at the workload's precision) or an f32
    /// activation-by-activation product.
    frozen: bool,
    per_step: usize,
}

/// The dominant GEMMs of one training step of `cfg` at `batch × seq`.
fn gemm_shapes(cfg: &ModelConfig, batch: usize, seq: usize) -> Vec<GemmShape> {
    let (t, d, ff, l) = (batch * seq, cfg.d_model, cfg.d_ff, cfg.n_layers);
    let heads = cfg.n_heads * batch * l;
    let shape = |what, variant, m, k, n, frozen, per_step| GemmShape {
        what,
        variant,
        m,
        k,
        n,
        frozen,
        per_step,
    };
    vec![
        shape("qkvo.forward", Variant::Nt, t, d, d, true, 4 * l),
        shape("qkvo.backward_input", Variant::Nn, t, d, d, true, 4 * l),
        shape("fc1.forward", Variant::Nt, t, d, ff, true, l),
        shape("fc1.backward_input", Variant::Nn, t, ff, d, true, l),
        shape("fc2.forward", Variant::Nt, t, ff, d, true, l),
        shape("fc2.backward_input", Variant::Nn, t, d, ff, true, l),
        shape(
            "lm_head.forward",
            Variant::Nt,
            t,
            d,
            cfg.vocab_size,
            true,
            1,
        ),
        shape(
            "attn.scores",
            Variant::Nt,
            seq,
            cfg.head_dim(),
            seq,
            false,
            heads,
        ),
        shape(
            "attn.context",
            Variant::Nn,
            seq,
            seq,
            cfg.head_dim(),
            false,
            heads,
        ),
    ]
}

/// `lx-kernels`: replay the step's GEMM set through the public entry points
/// at the workload's storage precision. FLOPs and bytes are computed from
/// the shapes, not measured.
fn kernels(input: &ProbeInput<'_>, out: &mut Outcome) -> Json {
    let mut rows = Vec::new();
    let (mut flops, mut bytes, mut ms) = (0.0, 0.0, 0.0);
    for s in gemm_shapes(input.cfg, input.batch, input.seq) {
        let a = uniform_vec(s.m * s.k, -1.0, 1.0, 1);
        let b = uniform_vec(s.k * s.n, -1.0, 1.0, 2);
        let mut c = vec![0.0f32; s.m * s.n];
        let precision = if s.frozen {
            input.precision
        } else {
            Precision::F32
        };
        let (call_ms, b_bytes) = match precision {
            Precision::F16Frozen => {
                let half = lx_kernels::half::encode_slice(&b);
                let t = time_ms(3, || match s.variant {
                    Variant::Nt => lx_kernels::gemm_nt_f16(s.m, s.k, s.n, &a, &half, &mut c, 0.0),
                    Variant::Nn => lx_kernels::gemm_f16(s.m, s.k, s.n, &a, &half, &mut c, 0.0),
                });
                (t, half.len() * 2)
            }
            Precision::Nf4Frozen => {
                let (codes, scales) = lx_quant::nf4::quantize(&b);
                let view = || Q4View::new(&codes, &scales, b.len());
                let t = time_ms(3, || match s.variant {
                    Variant::Nt => lx_kernels::gemm_nt_q4(s.m, s.k, s.n, &a, view(), &mut c, 0.0),
                    Variant::Nn => lx_kernels::gemm_q4(s.m, s.k, s.n, &a, view(), &mut c, 0.0),
                });
                (t, codes.len() + scales.len() * 4)
            }
            _ => {
                let t = time_ms(3, || match s.variant {
                    Variant::Nt => lx_kernels::gemm_nt(s.m, s.k, s.n, &a, &b, &mut c, 0.0),
                    Variant::Nn => lx_kernels::gemm(s.m, s.k, s.n, &a, &b, &mut c, 0.0),
                });
                (t, b.len() * 4)
            }
        };
        black_box(&c);
        let call_flops = 2.0 * (s.m * s.k * s.n) as f64;
        let call_bytes = (4 * (s.m * s.k + s.m * s.n) + b_bytes) as f64;
        flops += call_flops * s.per_step as f64;
        bytes += call_bytes * s.per_step as f64;
        ms += call_ms * s.per_step as f64;
        rows.push(Json::obj([
            ("gemm", Json::str(s.what)),
            ("m", Json::from(s.m)),
            ("k", Json::from(s.k)),
            ("n", Json::from(s.n)),
            ("backend", Json::str(lx_kernels::auto_choice(s.m, s.k, s.n))),
            ("calls_per_step", Json::from(s.per_step)),
            ("ns_per_call_p50", Json::Num(call_ms * 1e6)),
            ("flops_per_call", Json::Num(call_flops)),
            ("computed_bytes_per_call", Json::Num(call_bytes)),
        ]));
    }
    out.metrics
        .insert("lx-kernels.replay_gflops", flops / (ms * 1e6));
    out.metrics
        .insert("lx-kernels.replay_gbytes_per_s", bytes / (ms * 1e6));
    Json::obj([
        ("replayed_ms_per_step", Json::Num(ms)),
        ("shapes", Json::Arr(rows)),
    ])
}

/// `lx-quant`: decode rate of one backbone panel (`d_model × d_ff`), as
/// computed output bytes per second.
fn quant(input: &ProbeInput<'_>, out: &mut Outcome) {
    let panel = uniform_vec(input.cfg.d_model * input.cfg.d_ff, -1.0, 1.0, 3);
    let mut decoded = vec![0.0f32; panel.len()];
    let gb = (panel.len() * 4) as f64 / 1e9;
    let (codes, scales) = lx_quant::nf4::quantize(&panel);
    let nf4_ms = time_ms(5, || {
        lx_quant::nf4::dequantize(&codes, &scales, &mut decoded)
    });
    let half = lx_kernels::half::encode_slice(&panel);
    let f16_ms = time_ms(5, || lx_kernels::half::decode_slice(&half, &mut decoded));
    black_box(&decoded);
    out.metrics
        .insert("lx-quant.nf4_decode_gb_per_s", gb / (nf4_ms / 1e3));
    out.metrics
        .insert("lx-quant.f16_decode_gb_per_s", gb / (f16_ms / 1e3));
}

/// Causal block mask keeping, in every block row, the share `density` of the
/// causal blocks nearest the diagonal.
fn banded_causal_mask(n_blocks: usize, density: f64) -> BlockMask {
    let mut mask = BlockMask::square(n_blocks);
    for row in 0..n_blocks {
        let keep = ((density * (row + 1) as f64).round() as usize).clamp(1, row + 1);
        for col in row + 1 - keep..=row {
            mask.set(row, col, true);
        }
    }
    mask
}

/// `(op_ms(density), op_ms(1.0))`; a dense workload is timed once so its
/// speedup reads exactly 1 instead of the noise between two equal calls.
fn at_density_and_dense(density: f64, op_ms: impl Fn(f64) -> f64) -> (f64, f64) {
    let dense = op_ms(1.0);
    if density >= 1.0 {
        (dense, dense)
    } else {
        (op_ms(density), dense)
    }
}

/// `lx-sparse`: the block-sparse attention triple and the neuron-block FC
/// pair at the workload's measured densities, beside the same calls at
/// density 1 (`*_op_speedup`).
fn sparse(input: &ProbeInput<'_>, out: &mut Outcome) {
    let (s, dh) = (input.seq, input.cfg.head_dim());
    let q = uniform_vec(s * dh, -1.0, 1.0, 4);
    let k = uniform_vec(s * dh, -1.0, 1.0, 5);
    let attn_ms = |density: f64| {
        let layout = BlockCsr::from_mask(&banded_causal_mask(s / BLOCK, density), BLOCK);
        let mut p = vec![0.0f32; layout.data_len()];
        let mut ctx = vec![0.0f32; s * dh];
        let ms = time_ms(20, || {
            sdd_nt(&q, &k, s, dh, 0.125, &layout, CausalFill::NegInf, &mut p);
            dsd(&p, &k, s, dh, &layout, &mut ctx);
            dsd_tn(&p, &q, s, dh, &layout, &mut ctx);
        });
        black_box(&ctx);
        ms
    };
    let (sparse_ms, dense_ms) = at_density_and_dense(input.attn_density, attn_ms);
    out.metrics.insert("lx-sparse.attn_op_ms", sparse_ms);
    out.metrics
        .insert("lx-sparse.attn_op_speedup", dense_ms / sparse_ms);

    let (rows, d, ff) = (input.batch * input.seq, input.cfg.d_model, input.cfg.d_ff);
    let x = uniform_vec(rows * d, -1.0, 1.0, 6);
    let w1t = uniform_vec(ff * d, -1.0, 1.0, 7);
    let w2 = uniform_vec(ff * d, -1.0, 1.0, 8);
    let n_blocks = ff / BLOCK;
    let mlp_ms = |density: f64| {
        let active = ((density * n_blocks as f64).round() as usize).clamp(1, n_blocks);
        let set = NeuronBlockSet::from_indices((0..active as u32).collect(), n_blocks, BLOCK);
        let mut z = vec![0.0f32; rows * set.active_neurons()];
        let mut y = vec![0.0f32; rows * d];
        let ms = time_ms(5, || {
            fc1_forward(&x, rows, &w1t, d, None, &set, &mut z);
            fc2_forward(&z, rows, &w2, d, None, &set, &mut y);
        });
        black_box(&y);
        ms
    };
    let (sparse_ms, dense_ms) = at_density_and_dense(input.mlp_density, mlp_ms);
    out.metrics.insert("lx-sparse.mlp_op_ms", sparse_ms);
    out.metrics
        .insert("lx-sparse.mlp_op_speedup", dense_ms / sparse_ms);
}

/// `long-exposure`: one layer's predictor calls at the workload's shape.
fn predictors(input: &ProbeInput<'_>, out: &mut Outcome) {
    let engine = FinetuneEngine::new(
        recipe::sim_model(input.cfg.clone()),
        recipe::engine_config(input.seq, 1),
    );
    let rows = input.batch * input.seq;
    let x = Tensor::from_vec(
        uniform_vec(rows * input.cfg.d_model, -1.0, 1.0, 9),
        &[rows, input.cfg.d_model],
    );
    let attn = time_ms(10, || {
        black_box(engine.predict_attention_masks(0, &x, input.batch, input.seq));
    });
    let mlp = time_ms(10, || {
        black_box(engine.predict_mlp_set(0, &x));
    });
    out.metrics.insert("long-exposure.predict_attn_ms", attn);
    out.metrics.insert("long-exposure.predict_mlp_ms", mlp);
}

/// `lx-data`: building one tenant's token stream, and (returned) drawing one
/// step's batch plus targets.
fn data(input: &ProbeInput<'_>, out: &mut Outcome) -> f64 {
    let spec = DatasetSpec::E2e {
        world_seed: 1,
        salt: 2,
    };
    let vocab = input.cfg.vocab_size as u32;
    let build = time_ms(5, || {
        black_box(spec.build_batcher(vocab, input.stream_len));
    });
    out.metrics.insert("lx-data.stream_build_ms", build);
    let mut batcher = spec.build_batcher(vocab, input.stream_len);
    time_ms(50, || {
        let ids = batcher.next_batch(input.batch, input.seq);
        black_box(prompt_aware_targets(&ids, input.batch, input.seq, 0));
    })
}

/// `lx-peft`: the adapter swap and (de)serialisation a multi-tenant slice
/// pays, averaged over the workload's method mix.
fn peft(input: &ProbeInput<'_>, out: &mut Outcome) {
    let mut model = recipe::sim_model(input.cfg.clone());
    model.freeze_all();
    let (mut attach, mut detach, mut serialize) = (Vec::new(), Vec::new(), Vec::new());
    for &method in input.methods {
        let adapter = TenantAdapter::initialise(&mut model, method, recipe::ADAPTER_SEED);
        for _ in 0..10 {
            let t = Instant::now();
            adapter.attach_to(&mut model);
            attach.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            black_box(TenantAdapter::extract_from(
                &mut model,
                method,
                recipe::ADAPTER_SEED,
            ));
            lx_peft::detach(&mut model);
            detach.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let restored = TenantAdapter::from_bytes(adapter.to_bytes());
            serialize.push(t.elapsed().as_secs_f64() * 1e3);
            assert!(restored.is_ok(), "adapter blob must round-trip");
        }
    }
    out.metrics
        .insert("lx-peft.attach_ms", stats::median(&attach));
    out.metrics
        .insert("lx-peft.extract_detach_ms", stats::median(&detach));
    out.metrics
        .insert("lx-peft.serialize_ms", stats::median(&serialize));
}

/// `lx-serve`: registry round trip (put + get) of one LoRA adapter.
fn registry(input: &ProbeInput<'_>, out: &mut Outcome) {
    let mut model = recipe::sim_model(input.cfg.clone());
    model.freeze_all();
    let adapter =
        TenantAdapter::initialise(&mut model, PeftMethod::lora_default(), recipe::ADAPTER_SEED);
    let store = AdapterRegistry::in_memory();
    let ms = time_ms(50, || {
        store.put("probe", &adapter).expect("in-memory put");
        black_box(store.get("probe").expect("in-memory get"));
    });
    out.metrics.insert("lx-serve.registry_put_get_us", ms * 1e3);
}

/// `lx-cluster`: one dispatch-queue operation (push, owner pop, steal).
fn dispatch_queue(out: &mut Outcome) {
    const OPS: u64 = 30_000;
    let queue: DispatchQueue<u64> = DispatchQueue::new(2);
    let classes = [QosClass::Interactive, QosClass::Batch, QosClass::BestEffort];
    let t = Instant::now();
    for i in 0..OPS {
        let pushed = queue.push((i % 2) as usize, classes[(i % 3) as usize], i);
        assert!(pushed.is_ok(), "healthy replica accepts work");
    }
    for _ in 0..OPS / 2 {
        black_box(queue.pop_own(0));
        black_box(queue.steal_for(0));
    }
    let ns = t.elapsed().as_secs_f64() * 1e9 / (2 * OPS) as f64;
    out.metrics.insert("lx-cluster.queue_op_ns", ns);
}

/// `lx-parallel`: cost of dispatching an empty-body `par_rows` at pool size.
fn parallel(out: &mut Outcome) {
    let workers = lx_parallel::pool().threads();
    let rows = 2 * workers;
    let mut data = vec![0u8; rows];
    let ms = time_ms(2_000, || {
        lx_parallel::par_rows(&mut data, rows, 1, 1, |_, chunk| {
            black_box(chunk);
        });
    });
    out.metrics.insert("lx-parallel.dispatch_ns", ms * 1e6);
    out.metrics.insert("lx-parallel.workers", workers as f64);
}

/// `lx-runtime` / `lx-obs`: the one-time autotune probe (then the fixed
/// policy is put back) and the cost of a span while no session records.
fn runtime_and_obs(out: &mut Outcome) {
    // `autotune` probes once per process; later workloads of the same
    // invocation report that one measurement.
    static AUTOTUNE_S: OnceLock<f64> = OnceLock::new();
    let autotune_s = *AUTOTUNE_S.get_or_init(|| {
        let t = Instant::now();
        black_box(lx_kernels::autotune());
        t.elapsed().as_secs_f64()
    });
    out.metrics.insert("lx-runtime.autotune_s", autotune_s);
    recipe::install_policy();
    out.metrics
        .insert("lx-obs.inert_span_ns", lx_obs::inert_span_cost_ns(200_000));
}

/// Run every probe; returns the `lx-data` batch cost (ms/step) for
/// workloads that cannot time their own data path, and the kernel detail
/// for `layers.json`.
pub fn run(input: &ProbeInput<'_>, out: &mut Outcome) -> (f64, Json) {
    assert!(
        !lx_obs::tracing_active(),
        "probes run after the trace session has finished"
    );
    let detail = kernels(input, out);
    quant(input, out);
    sparse(input, out);
    predictors(input, out);
    let batch_ms = data(input, out);
    peft(input, out);
    registry(input, out);
    dispatch_queue(out);
    parallel(out);
    runtime_and_obs(out);
    (batch_ms, detail)
}
