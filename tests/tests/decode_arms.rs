//! The reduced-storage run decoders of `lx_kernels::decode`: f16
//! (`vcvtph2ps`) and NF4 (nibble unpack + codebook `vpermps` + one multiply)
//! must equal the elementwise definition — `half::f16_bits_to_f32` and
//! `Q4View::get` — bit for bit on every arm.
//!
//! * f16: all 2¹⁶ bit patterns, signalling NaNs included (decoded quiet);
//! * decode windows of both codecs: odd and even `base`, lengths `0..=67`,
//!   runs straddling NF4's 64-element blocks, and an odd-length NF4 buffer
//!   whose last byte carries a pad nibble;
//! * the `Packed` B̃ fills through the GEMM entry point: an f16 or NF4 B
//!   multiplies bit-identically to its decoded f32 twin, whose fill is the
//!   elementwise copy — Normal and Transposed layouts, `ldb` past the stored
//!   width, panels narrower than the register tile, `k` that is no multiple
//!   of a vector step (the fills run on the active arm; `lx-kernels`' unit
//!   tests compare every arm's panels with the elementwise fill directly);
//! * `BRef::decode_rows` windows.
//!
//! The definition runs first, then each arm this host can execute; the arms
//! it cannot are named on stderr.

use lx_kernels::half::{decode_slice, f16_bits_to_f32, f32_to_f16_bits};
use lx_kernels::{decode, BOperand, Epilogue, GemmOp, Isa, KernelBackend, Q4View, PACKED};
use lx_tensor::rng::randn_vec;
use lx_tensor::{BRef, Dtype, Reduced, Tensor};

/// The definition first, then every wider arm this host can run.
fn arms() -> Vec<Isa> {
    static SKIPS_REPORTED: std::sync::Once = std::sync::Once::new();
    let wide = [Isa::Avx2, Isa::Avx512];
    SKIPS_REPORTED.call_once(|| {
        for isa in wide.iter().filter(|isa| !isa.supported()) {
            eprintln!(
                "decode_arms: SKIPPING the {} arm — this CPU cannot execute it, so its \
                 bit-identity to the scalar definition is NOT checked in this run",
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
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: idx {i}: {x} vs {y} (bitwise)"
        );
    }
}

/// `b`'s elements `base .. base + len` through the definition.
fn definition(b: BOperand<'_>, base: usize, len: usize) -> Vec<f32> {
    (base..base + len).map(|i| b.get(i)).collect()
}

#[test]
fn f16_every_arm_equals_the_definition_on_all_65536_inputs() {
    let all: Vec<u16> = (0..=u16::MAX).collect();
    let want: Vec<f32> = all.iter().map(|&h| f16_bits_to_f32(h)).collect();
    for isa in arms() {
        let mut got = vec![0.0f32; all.len()];
        decode::run(isa, BOperand::F16(&all), 0, &mut got);
        assert_bits(&format!("f16 [{}]", isa.name()), &got, &want);
    }
    let mut got = vec![0.0f32; all.len()];
    decode_slice(&all, &mut got);
    assert_bits("decode_slice", &got, &want);
    // The definition: exact on everything but NaN, and every NaN quiet with
    // its payload and sign kept.
    for (&h, &v) in all.iter().zip(&want) {
        if v.is_nan() {
            let bits = v.to_bits();
            assert_eq!(bits & 0x0040_0000, 0x0040_0000, "{h:#06x}: quiet bit");
            assert_eq!(
                (bits >> 13) & 0x1ff,
                (h & 0x1ff) as u32,
                "{h:#06x}: payload"
            );
            assert_eq!(bits >> 31, (h >> 15) as u32, "{h:#06x}: sign");
        } else {
            assert_eq!(f32_to_f16_bits(v), h, "{h:#06x} decodes exactly");
        }
    }
}

#[test]
fn decode_windows_equal_the_definition_on_every_arm() {
    // An odd length: the NF4 buffer's last byte holds a pad nibble.
    let len = 3 * 64 + 37;
    let vals = randn_vec(len, 1.0, 31);
    let bits: Vec<u16> = vals.iter().map(|&v| f32_to_f16_bits(v)).collect();
    let (codes, scales) = lx_quant::nf4::quantize(&vals);
    let q4 = Q4View::new(&codes, &scales, len);
    let operands = [BOperand::F32(&vals), BOperand::F16(&bits), BOperand::Q4(q4)];
    // Even and odd starts, starts just before and on a block boundary.
    let bases = [0, 1, 2, 7, 16, 33, 62, 63, 64, 65, 100, 127, 128, 150, 161];
    for isa in arms() {
        for b in operands {
            for base in bases {
                for run in (0..=67).filter(|run| base + run <= len) {
                    let mut got = vec![f32::NAN; run];
                    decode::run(isa, b, base, &mut got);
                    let what = format!("{} [{}] {base}+{run}", b.dtype(), isa.name());
                    assert_bits(&what, &got, &definition(b, base, run));
                }
            }
            // Every run ending on the last element (the pad-nibble byte).
            for base in 0..len {
                let mut got = vec![f32::NAN; len - base];
                decode::run(isa, b, base, &mut got);
                let what = format!("{} [{}] tail from {base}", b.dtype(), isa.name());
                assert_bits(&what, &got, &definition(b, base, len - base));
            }
        }
    }
    // `decode_into` is the active arm's run.
    for b in operands {
        let mut got = vec![f32::NAN; len - 3];
        b.decode_into(3, &mut got);
        assert_bits(
            &format!("{} decode_into", b.dtype()),
            &got,
            &definition(b, 3, len - 3),
        );
    }
}

#[test]
fn reduced_b_products_equal_their_decoded_f32_twins() {
    // (m, k, n, extra ldb): `n` under one register tile (the single-use
    // path) and past it with a narrow last panel; `k` past one KC block and
    // no multiple of 16.
    let shapes = [
        (24, 37, 45, 0),
        (24, 37, 45, 5),
        (7, 70, 10, 3),
        (33, 300, 41, 1),
        (64, 128, 80, 0),
    ];
    for (m, k, n, pad) in shapes {
        let a = randn_vec(m * k, 1.0, (m * k) as u64);
        for transposed in [false, true] {
            let (rows, ldb) = if transposed {
                (n, k + pad)
            } else {
                (k, n + pad)
            };
            let vals = randn_vec(rows * ldb, 1.0, (k * n + pad) as u64);
            let bits: Vec<u16> = vals.iter().map(|&v| f32_to_f16_bits(v)).collect();
            let (codes, scales) = lx_quant::nf4::quantize(&vals);
            let q4 = Q4View::new(&codes, &scales, vals.len());
            for b in [BOperand::F16(&bits), BOperand::Q4(q4)] {
                let decoded = definition(b, 0, b.len());
                let product = |b: BOperand<'_>| {
                    let op = if transposed {
                        GemmOp::nt(m, k, n, &a, k, b, ldb)
                    } else {
                        GemmOp::nn(m, k, n, &a, k, b, ldb)
                    };
                    let mut c = vec![0.0f32; m * n];
                    PACKED.gemm(&op, &mut c, n, 0.0, Epilogue::None);
                    c
                };
                let what = format!(
                    "{} {m}x{k}x{n} ldb {ldb} {}",
                    b.dtype(),
                    if transposed { "nt" } else { "nn" }
                );
                assert_bits(&what, &product(b), &product(BOperand::F32(&decoded)));
            }
        }
    }
}

#[test]
fn decode_rows_windows_equal_the_definition() {
    let (rows, cols) = (23, 45);
    let dense = Tensor::from_vec(randn_vec(rows * cols, 1.0, 41), &[rows, cols]);
    for dtype in [Dtype::F16, Dtype::Nf4Block] {
        let reduced = Reduced::from_tensor(&dense, dtype);
        let view = BRef::from(&reduced);
        for r0 in 0..rows {
            for n_rows in [1, 2, 3, 7].into_iter().filter(|n| r0 + n <= rows) {
                let mut got = vec![f32::NAN; n_rows * cols];
                view.decode_rows(r0, n_rows, &mut got);
                let want = definition(view.operand(), r0 * cols, n_rows * cols);
                assert_bits(&format!("{dtype} rows {r0}+{n_rows}"), &got, &want);
            }
        }
    }
}
