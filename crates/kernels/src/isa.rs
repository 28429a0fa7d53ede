//! Runtime ISA selection for the packed microkernel.
//!
//! The packed backend carries one microkernel per instruction-set arm and
//! picks among them at run time, so a single binary runs the widest kernel
//! the host actually supports:
//!
//! | arm      | register tile | requires                    |
//! |----------|---------------|-----------------------------|
//! | `scalar` | 6×16          | nothing (LLVM autovec)      |
//! | `avx2`   | 6×16          | x86-64 with AVX2+FMA+F16C   |
//! | `avx512` | 14×32         | x86-64 with AVX-512F        |
//! | `neon`   | 6×16          | aarch64 with NEON (fused, LLVM autovec) |
//!
//! The row kernels ([`crate::rows`]) and the reduced-storage run decoders
//! ([`crate::decode`]) run on the same selection: `avx2` and `avx512` are
//! register arms, `scalar` and `neon` their scalar definition. F16C (the
//! `vcvtph2ps` the AVX2 f16 decoder uses) shipped with every AVX2 CPU, so
//! the `avx2` arm requires it rather than splitting into two arms.
//!
//! Selection precedence (first match wins):
//! 1. `LX_KERNEL_ISA=scalar|avx2|avx512|neon` → that arm if the CPU supports
//!    it, else fall through with a warning (CI pins arms this way; an
//!    unsupported pin must degrade loudly, never crash),
//! 2. the widest ISA detected on the host.

use std::sync::OnceLock;

/// Microkernel instruction-set arm.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Isa {
    /// Fixed-shape scalar kernel, auto-vectorised by LLVM. Always available.
    Scalar,
    /// AVX2+FMA 6×16 kernel (two ymm per row); F16C for the f16 decoder.
    Avx2,
    /// AVX-512F 14×32 kernel (two zmm per row, 28 accumulators).
    Avx512,
    /// 6×16 portable fused-multiply-add kernel (`f32::mul_add`, a native
    /// instruction on aarch64), left to LLVM to vectorise.
    Neon,
}

impl Isa {
    /// Stable lowercase name, used by `LX_KERNEL_ISA` and metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
            Isa::Neon => "neon",
        }
    }

    /// Parse a [`name`](Self::name) back to an arm.
    pub fn parse(s: &str) -> Option<Isa> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Isa::Scalar),
            "avx2" => Some(Isa::Avx2),
            "avx512" => Some(Isa::Avx512),
            "neon" => Some(Isa::Neon),
            _ => None,
        }
    }

    /// Register-tile shape `(MR, NR)` the arm's microkernel computes. Packing
    /// geometry follows the active arm, so every arm sees panels of its own
    /// width.
    pub fn tile(self) -> (usize, usize) {
        match self {
            Isa::Avx512 => (14, 32),
            _ => (crate::MR, crate::NR),
        }
    }

    /// Whether the current host can execute this arm.
    pub fn supported(self) -> bool {
        match self {
            Isa::Scalar => true,
            Isa::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    is_x86_feature_detected!("avx2")
                        && is_x86_feature_detected!("fma")
                        && is_x86_feature_detected!("f16c")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            Isa::Avx512 => {
                #[cfg(target_arch = "x86_64")]
                {
                    is_x86_feature_detected!("avx512f")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            Isa::Neon => {
                #[cfg(target_arch = "aarch64")]
                {
                    std::arch::is_aarch64_feature_detected!("neon")
                }
                #[cfg(not(target_arch = "aarch64"))]
                {
                    false
                }
            }
        }
    }
}

/// Widest ISA the host supports, probed once.
pub fn detected_isa() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        if Isa::Avx512.supported() {
            Isa::Avx512
        } else if Isa::Avx2.supported() {
            Isa::Avx2
        } else if Isa::Neon.supported() {
            Isa::Neon
        } else {
            Isa::Scalar
        }
    })
}

/// `LX_KERNEL_ISA` pin, validated once. Unsupported or unknown values warn
/// and fall through to detection.
fn env_isa() -> Option<Isa> {
    static ENV: OnceLock<Option<Isa>> = OnceLock::new();
    *ENV.get_or_init(|| {
        let raw = std::env::var("LX_KERNEL_ISA").ok()?;
        // CI matrices pass "" for the arms that don't pin: same as unset.
        if raw.trim().is_empty() {
            return None;
        }
        match Isa::parse(&raw) {
            Some(isa) if isa.supported() => Some(isa),
            Some(isa) => {
                eprintln!(
                    "lx-kernels: LX_KERNEL_ISA={} is not supported on this CPU \
                     (detected {}); ignoring the pin",
                    isa.name(),
                    detected_isa().name()
                );
                None
            }
            None => {
                eprintln!(
                    "lx-kernels: unknown LX_KERNEL_ISA value {raw:?} \
                     (expected scalar|avx2|avx512|neon); ignoring the pin"
                );
                None
            }
        }
    })
}

/// The ISA arm every packed GEMM and row kernel in this process runs: the
/// `LX_KERNEL_ISA` pin, else the widest detected.
pub fn active_isa() -> Isa {
    env_isa().unwrap_or_else(detected_isa)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for isa in [Isa::Scalar, Isa::Avx2, Isa::Avx512, Isa::Neon] {
            assert_eq!(Isa::parse(isa.name()), Some(isa));
        }
        assert_eq!(Isa::parse("sve"), None);
    }

    #[test]
    fn detected_isa_is_supported_and_tiled_sanely() {
        let isa = detected_isa();
        assert!(isa.supported());
        let (mr, nr) = isa.tile();
        assert!(mr >= 1 && nr >= 8);
        // Every arm's tile fits the fixed-size scalar spill buffers.
        for isa in [Isa::Scalar, Isa::Avx2, Isa::Avx512, Isa::Neon] {
            let (mr, nr) = isa.tile();
            assert!(mr * nr <= 14 * 32);
        }
    }

    #[test]
    fn active_isa_is_always_supported() {
        assert!(active_isa().supported());
    }
}
