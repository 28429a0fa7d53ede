//! The fused attention core (`lx_sparse::attention::AttentionCore`) against
//! the composed operators it replaced, **bitwise**: P, ctx, dQ, dK and dV.
//!
//! The oracle is a test-local copy of the composed path — head-major copies
//! of Q, K, V and dO, then one grouped launch per operator over the stacked
//! layout's own tables (`sdd_nt`, `dsd`, `dsd_tn`) with the block-row softmax
//! passes (`scores_to_probs`, `probs_backward`) between them, and the head
//! copies merged back — on an explicit ISA arm, so every arm this host runs
//! is checked in one process (arms it lacks are skipped loudly). The fused
//! path reads and writes head-major `[heads, B·S, dh]` panels, the layout
//! the projections keep, on private pools of 1, 2 and 4 threads.
//!
//! Cases cover S = 64 and 512, 1, 4 and 8 heads, head widths that are and
//! are not a whole register tile (B read in place or packed), batch 1 and
//! 3, ALiBi, the full-causal layout and predicted per-head layouts —
//! including block-rows and block-columns with no block, whose outputs the
//! core must zero.

use lx_kernels::rows::{self, Band, Causal};
use lx_kernels::{GemmGroup, GemmTable, Isa, Windows, PACKED};
use lx_parallel::ThreadPool;
use lx_sparse::attention::AttentionCore;
use lx_sparse::{BlockCsr, BlockMask, MultiHeadLayout, PatternSpec};
use lx_tensor::rng::randn_vec;
use std::sync::Arc;

/// The definition first, then every wider arm this host can run.
fn arms() -> Vec<Isa> {
    static SKIPS_REPORTED: std::sync::Once = std::sync::Once::new();
    let wide = [Isa::Avx2, Isa::Avx512];
    SKIPS_REPORTED.call_once(|| {
        for isa in wide.iter().filter(|isa| !isa.supported()) {
            eprintln!(
                "attention_core: SKIPPING the {} arm — this CPU cannot execute it",
                isa.name()
            );
        }
    });
    let mut arms = vec![Isa::Scalar];
    arms.extend(wide.into_iter().filter(|isa| isa.supported()));
    arms
}

fn assert_bits(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: idx {i}: {x} vs {y}");
    }
}

/// `[B·S, h·dh] → [B·h·S, dh]`.
fn split_heads(x: &[f32], batch: usize, seq: usize, heads: usize, dh: usize) -> Vec<f32> {
    let d = heads * dh;
    let mut out = vec![0.0; x.len()];
    for b in 0..batch {
        for h in 0..heads {
            for s in 0..seq {
                let dst = ((b * heads + h) * seq + s) * dh;
                let src = (b * seq + s) * d + h * dh;
                out[dst..dst + dh].copy_from_slice(&x[src..src + dh]);
            }
        }
    }
    out
}

/// Inverse of [`split_heads`].
fn merge_heads(x: &[f32], batch: usize, seq: usize, heads: usize, dh: usize) -> Vec<f32> {
    let d = heads * dh;
    let mut out = vec![0.0; x.len()];
    for b in 0..batch {
        for h in 0..heads {
            for s in 0..seq {
                let src = ((b * heads + h) * seq + s) * dh;
                let dst = (b * seq + s) * d + h * dh;
                out[dst..dst + dh].copy_from_slice(&x[src..src + dh]);
            }
        }
    }
    out
}

/// The stacked layout's SDD / DSD / transposed-DSD tables, built the way
/// `BlockCsr` builds its own.
struct Tables {
    sdd: GemmTable,
    dsd: GemmTable,
    dsd_tn: GemmTable,
}

impl Tables {
    fn new(l: &BlockCsr) -> Self {
        let csr = || {
            (0..l.n_brows).flat_map(move |br| {
                l.row_entries(br)
                    .map(move |e| (e as u32, br as u32, l.col_idx[e]))
            })
        };
        let csc = (0..l.n_bcols).flat_map(|bc| {
            l.col_entries(bc)
                .map(move |e2| (l.csc_to_csr[e2], l.row_idx[e2], bc as u32))
        });
        Tables {
            sdd: GemmTable::each(csr().map(|(e, br, bc)| (br, bc, e))),
            dsd: GemmTable::new(csr().map(|(e, br, bc)| (e, bc, br)), l.row_ptr.clone()),
            dsd_tn: GemmTable::new(csc, l.col_ptr.clone()),
        }
    }
}

/// One launch of the composed path on `pool` and arm `isa`.
#[allow(clippy::too_many_arguments)]
fn launch(
    pool: &ThreadPool,
    isa: Isa,
    (m, k, n): (usize, usize, usize),
    a: Windows<&[f32]>,
    b: Windows<&[f32]>,
    c_stride: usize,
    table: &GemmTable,
    c: &mut [f32],
) {
    let g = GemmGroup {
        m,
        k,
        n,
        a,
        b: Windows {
            data: b.data.into(),
            ld: b.ld,
            stride: b.stride,
            layout: b.layout,
        },
        ldc: n,
        c_stride,
        beta: 0.0,
        table,
        bias: None,
    };
    PACKED.gemm_grouped_on(pool, Some(isa), &g, c);
}

/// `out[s×dh] = Σ P-block · X-rows` over `table`, rows no run writes zeroed
/// (the composed `dsd` / `dsd_tn`).
#[allow(clippy::too_many_arguments)]
fn dsd(
    pool: &ThreadPool,
    isa: Isa,
    p: Windows<&[f32]>,
    x: &[f32],
    dh: usize,
    b: usize,
    table: &GemmTable,
    out: &mut [f32],
) {
    for (run, rows) in table.runs().windows(2).zip(out.chunks_exact_mut(b * dh)) {
        if run[0] == run[1] {
            rows.fill(0.0);
        }
    }
    let x = Windows::normal(x, dh, b * dh);
    launch(pool, isa, (b, b, dh), p, x, b * dh, table, out);
}

/// The band and causal geometry of stacked block-row `br`.
fn band<'a>(l: &'a BlockCsr, br: usize, slopes: Option<&[f32]>) -> (Band, Causal<'a>) {
    let entries = l.row_entries(br);
    let slope = slopes.map_or(0.0, |s| s[br * s.len() / l.n_brows]);
    let causal = Causal {
        q0: br * l.block_size,
        cols: &l.col_idx[entries.clone()],
        slope,
    };
    (Band::block_row(l.block_size, entries.len()), causal)
}

/// What a case produces: P, ctx, dS, dQ, dK and dV.
type Outputs = [Vec<f32>; 6];

/// The inputs of one case: token-major `[B·S, d]` Q, K, V and dO.
struct Case {
    layout: Arc<MultiHeadLayout>,
    batch: usize,
    seq: usize,
    dh: usize,
    slopes: Option<Vec<f32>>,
    qkvo: [Vec<f32>; 4],
}

impl Case {
    fn new(layout: MultiHeadLayout, batch: usize, seq: usize, dh: usize, alibi: bool) -> Self {
        let d = layout.n_heads() * dh;
        let seed = (batch * 1000 + seq * 10 + dh) as u64;
        let slopes = alibi.then(|| {
            (0..layout.n_heads())
                .map(|h| 0.5f32.powi(h as i32 + 1))
                .collect()
        });
        Case {
            layout: Arc::new(layout),
            batch,
            seq,
            dh,
            slopes,
            qkvo: [0, 1, 2, 3].map(|i| randn_vec(batch * seq * d, 1.0, seed + i)),
        }
    }

    fn scale(&self) -> f32 {
        1.0 / (self.dh as f32).sqrt()
    }

    /// The composed path over head-major copies, on one thread.
    fn composed(&self, isa: Isa) -> Outputs {
        let pool = ThreadPool::new(1);
        let (batch, seq, dh, heads) = (self.batch, self.seq, self.dh, self.layout.n_heads());
        let l = self.layout.stacked().expect("heads stack");
        let t = Tables::new(l);
        let (b, bb, span, total) = (l.block_size, l.block_size.pow(2), heads * seq, l.data_len());
        let [q, k, v, dout] = self
            .qkvo
            .each_ref()
            .map(|x| split_heads(x, batch, seq, heads, dh));
        let mut probs = vec![0.0; batch * total];
        let mut dss = vec![0.0; batch * total];
        let [mut ctx, mut dq, mut dk, mut dv] = [0; 4].map(|_| vec![0.0; q.len()]);
        let rows = |x: &[f32], i: usize| x[i * span * dh..(i + 1) * span * dh].to_vec();
        let scale = self.scale();
        for i in 0..batch {
            let (qs, ks, vs, dos) = (rows(&q, i), rows(&k, i), rows(&v, i), rows(&dout, i));
            let p = &mut probs[i * total..(i + 1) * total];
            let a = Windows::normal(&qs[..], dh, b * dh);
            let kt = Windows::transposed(&ks[..], dh, b * dh);
            launch(&pool, isa, (b, dh, b), a, kt, bb, &t.sdd, p);
            for br in 0..l.n_brows {
                let (band, causal) = band(l, br, self.slopes.as_deref());
                let span = &mut p[l.row_ptr[br] as usize * bb..l.row_ptr[br + 1] as usize * bb];
                rows::softmax_forward(isa, span, band, scale, Some(causal));
            }
            let c = &mut ctx[i * span * dh..(i + 1) * span * dh];
            dsd(
                &pool,
                isa,
                Windows::normal(&p[..], b, bb),
                &vs,
                dh,
                b,
                &t.dsd,
                c,
            );

            let ds = &mut dss[i * total..(i + 1) * total];
            let a = Windows::normal(&dos[..], dh, b * dh);
            let vt = Windows::transposed(&vs[..], dh, b * dh);
            launch(&pool, isa, (b, dh, b), a, vt, bb, &t.sdd, ds);
            for br in 0..l.n_brows {
                let (band, causal) = band(l, br, None);
                let at = l.row_ptr[br] as usize * bb..l.row_ptr[br + 1] as usize * bb;
                rows::softmax_backward(isa, &p[at.clone()], &mut ds[at], band, scale, Some(causal));
            }
            let [mut q_out, mut k_out, mut v_out] = [0; 3].map(|_| vec![f32::NAN; span * dh]);
            dsd(
                &pool,
                isa,
                Windows::normal(&ds[..], b, bb),
                &ks,
                dh,
                b,
                &t.dsd,
                &mut q_out,
            );
            let (dst, pt) = (
                Windows::transposed(&ds[..], b, bb),
                Windows::transposed(&p[..], b, bb),
            );
            dsd(&pool, isa, dst, &qs, dh, b, &t.dsd_tn, &mut k_out);
            dsd(&pool, isa, pt, &dos, dh, b, &t.dsd_tn, &mut v_out);
            for (x, o) in [(&mut dq, q_out), (&mut dk, k_out), (&mut dv, v_out)] {
                x[i * span * dh..(i + 1) * span * dh].copy_from_slice(&o);
            }
        }
        let merge = |x: &[f32]| merge_heads(x, batch, seq, heads, dh);
        [probs, merge(&ctx), dss, merge(&dq), merge(&dk), merge(&dv)]
    }

    /// The fused core on `pool`, over head-major `[heads, B·S, dh]` panels
    /// of the same Q, K, V and dO, its outputs read back token-major.
    fn fused(&self, pool: &ThreadPool, isa: Isa) -> Outputs {
        let (batch, seq, dh, heads) = (self.batch, self.seq, self.dh, self.layout.n_heads());
        let total = self.layout.total_data_len;
        let core = AttentionCore::new(&self.layout, seq, dh).on(pool, Some(isa));
        let [q, k, v, dout] = self
            .qkvo
            .each_ref()
            .map(|x| to_panels(x, batch * seq, heads, dh));
        let mut probs = vec![f32::NAN; batch * total];
        let mut dss = vec![f32::NAN; batch * total];
        let [mut ctx, mut dq, mut dk, mut dv] = [0; 4].map(|_| vec![f32::NAN; q.len()]);
        for i in 0..batch {
            core.forward(
                i,
                (&q, &k, &v),
                self.scale(),
                self.slopes.as_deref(),
                &mut probs[i * total..(i + 1) * total],
                &mut ctx,
            );
            let mut ds = vec![f32::NAN; total];
            core.backward(
                i,
                (&q, &k, &v),
                &dout,
                &probs[i * total..(i + 1) * total],
                self.scale(),
                &mut ds,
                (&mut dq, &mut dk, &mut dv),
            );
            dss[i * total..(i + 1) * total].copy_from_slice(&ds);
        }
        let tokens = |x: &[f32]| from_panels(x, batch * seq, heads, dh);
        [
            probs,
            tokens(&ctx),
            dss,
            tokens(&dq),
            tokens(&dk),
            tokens(&dv),
        ]
    }
}

/// `[rows, h·dh] → [h, rows, dh]`: the head panels the core reads.
fn to_panels(x: &[f32], rows: usize, heads: usize, dh: usize) -> Vec<f32> {
    let mut out = vec![0.0; x.len()];
    for h in 0..heads {
        for r in 0..rows {
            out[(h * rows + r) * dh..][..dh].copy_from_slice(&x[(r * heads + h) * dh..][..dh]);
        }
    }
    out
}

/// Inverse of [`to_panels`].
fn from_panels(x: &[f32], rows: usize, heads: usize, dh: usize) -> Vec<f32> {
    let mut out = vec![0.0; x.len()];
    for h in 0..heads {
        for r in 0..rows {
            out[(r * heads + h) * dh..][..dh].copy_from_slice(&x[(h * rows + r) * dh..][..dh]);
        }
    }
    out
}

/// Per-head predicted layouts over `n` block-rows of edge 16: pattern-pool
/// shapes, a random BigBird draw (shared windows numbered out of order),
/// and a hand-made mask with an empty block-row and an empty block-column.
fn predicted(n: usize, heads: usize) -> MultiHeadLayout {
    let specs = [
        PatternSpec::LocalGlobal { w: 2, g: 1 },
        PatternSpec::BigBird {
            w: 1,
            g: 1,
            r: 2,
            seed: 7,
        },
        PatternSpec::Strided { w: 1, stride: 3 },
        PatternSpec::Causal,
    ];
    let mut holes = BlockMask::square(n);
    for br in 0..n {
        for bc in 0..=br {
            if br != n / 2 && bc != 1 {
                holes.set(br, bc, true);
            }
        }
    }
    let holes = Arc::new(BlockCsr::from_mask(&holes, 16));
    let layouts = (0..heads).map(|h| match h % 5 {
        4 => holes.clone(),
        i => Arc::new(BlockCsr::from_mask(&specs[i].mask(n), 16)),
    });
    MultiHeadLayout::combine(layouts.collect())
}

fn causal(n: usize, heads: usize) -> MultiHeadLayout {
    let csr = Arc::new(BlockCsr::from_mask(&PatternSpec::Causal.mask(n), 16));
    MultiHeadLayout::combine(vec![csr; heads])
}

fn check(what: &str, case: &Case, pools: &[ThreadPool]) {
    const NAMES: [&str; 6] = ["P", "ctx", "dS", "dQ", "dK", "dV"];
    for isa in arms() {
        let want = case.composed(isa);
        for pool in pools {
            let got = case.fused(pool, isa);
            for ((name, got), want) in NAMES.iter().zip(&got).zip(&want) {
                let what = format!("{what} [{}, {} threads] {name}", isa.name(), pool.threads());
                assert_bits(&what, got, want);
            }
        }
    }
}

#[test]
fn fused_core_equals_the_composed_operators_at_s64() {
    let pools = [1, 2, 4].map(ThreadPool::new);
    let n = 4;
    for (heads, dh) in [(1, 32), (4, 8), (8, 16)] {
        for batch in [1, 3] {
            for alibi in [false, true] {
                let what = |kind| format!("S=64 {kind} h={heads} dh={dh} B={batch} alibi={alibi}");
                let case = Case::new(causal(n, heads), batch, 64, dh, alibi);
                check(&what("causal"), &case, &pools);
                let case = Case::new(predicted(n, heads), batch, 64, dh, alibi);
                check(&what("predicted"), &case, &pools);
            }
        }
    }
}

#[test]
fn fused_core_equals_the_composed_operators_at_s512() {
    let pools = [1, 2, 4].map(ThreadPool::new);
    let n = 32;
    for (heads, batch) in [(8, 1), (4, 3)] {
        let what = |kind| format!("S=512 {kind} h={heads} B={batch}");
        let case = Case::new(causal(n, heads), batch, 512, 32, heads == 8);
        check(&what("causal"), &case, &pools[1..2]);
        let case = Case::new(predicted(n, heads), batch, 512, 32, false);
        check(&what("predicted"), &case, &pools);
    }
}
