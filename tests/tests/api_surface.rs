//! Hand-rolled public-API snapshot: the `pub fn` / `pub struct` / `pub enum`
//! / `pub trait` / `pub use` surface of the crates in [`CRATES`] is
//! extracted from the sources and compared against a committed baseline
//! (`tests/api/public_api.txt`). Unreviewed drift — a forgotten `pub`, a
//! resurrected legacy entry point, a renamed builder — fails CI.
//!
//! To accept an intentional change, regenerate the baseline:
//!
//! ```sh
//! LX_UPDATE_API=1 cargo test -p lx-integration --test api_surface
//! ```
//!
//! and commit the diff together with the API change.

use std::path::{Path, PathBuf};

/// Crates whose public surface is under snapshot control.
const CRATES: &[(&str, &str)] = &[
    ("lx-obs", "crates/obs/src"),
    ("lx-parallel", "crates/parallel/src"),
    ("lx-quant", "crates/quant/src"),
    ("lx-kernels", "crates/kernels/src"),
    ("lx-tensor", "crates/tensor/src"),
    ("lx-sparse", "crates/sparse/src"),
    ("lx-data", "crates/data/src"),
    ("lx-model", "crates/model/src"),
    ("lx-peft", "crates/peft/src"),
    ("lx-core", "crates/core/src"),
    ("lx-serve", "crates/serve/src"),
    ("lx-cluster", "crates/cluster/src"),
    ("lx-runtime", "crates/runtime/src"),
];

const BASELINE: &str = "api/public_api.txt";

/// Item prefixes that constitute the public surface. `pub(crate)` and
/// friends never match (the prefix requires `pub` + space + keyword).
const PREFIXES: &[&str] = &[
    "pub fn ",
    "pub unsafe fn ",
    "pub struct ",
    "pub enum ",
    "pub trait ",
    "pub type ",
    "pub const ",
    "pub static ",
    "pub use ",
    "pub mod ",
];

fn repo_root() -> PathBuf {
    // The tests crate lives at <repo>/tests.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repo root")
        .to_path_buf()
}

/// Collapse whitespace runs so rustfmt churn can't move the baseline.
fn normalize(sig: &str) -> String {
    let mut out = String::with_capacity(sig.len());
    let mut last_space = false;
    for c in sig.chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
            }
            last_space = true;
        } else {
            out.push(c);
            last_space = false;
        }
    }
    out.trim().to_string()
}

/// Extract the normalized public item signatures of one source file. Test
/// modules are excluded: in this codebase every `#[cfg(test)]` block sits at
/// the bottom of its file, so extraction simply stops there.
fn extract(src: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut pending: Option<String> = None;
    for line in src.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        if pending.is_none() && PREFIXES.iter().any(|p| trimmed.starts_with(p)) {
            pending = Some(String::new());
        }
        if let Some(sig) = &mut pending {
            if !sig.is_empty() {
                sig.push(' ');
            }
            sig.push_str(trimmed);
            // Re-exports keep their full (possibly brace-grouped, possibly
            // multi-line) name list up to the terminating semicolon — a name
            // added to or dropped from `pub use foo::{..}` is API drift too.
            // Everything else is complete at its body brace or semicolon;
            // the body is cut off and the declaration kept.
            if sig.starts_with("pub use ") {
                if sig.ends_with(';') {
                    let decl = sig.trim_end_matches(';').trim().to_string();
                    items.push(normalize(&decl));
                    pending = None;
                }
            } else if let Some(cut) = sig.find('{') {
                let decl = sig[..cut].trim().to_string();
                items.push(normalize(&decl));
                pending = None;
            } else if sig.ends_with(';') {
                let decl = sig.trim_end_matches(';').trim().to_string();
                items.push(normalize(&decl));
                pending = None;
            }
        }
    }
    items.sort();
    items.dedup();
    items
}

fn current_surface() -> String {
    let root = repo_root();
    let mut out = String::new();
    for (krate, dir) in CRATES {
        let mut files: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("read {dir}: {e}"))
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .collect();
        files.sort();
        for file in files {
            let src = std::fs::read_to_string(&file).expect("read source");
            let items = extract(&src);
            if items.is_empty() {
                continue;
            }
            let rel = file.strip_prefix(&root).unwrap().display();
            out.push_str(&format!("## {krate} {rel}\n"));
            for item in items {
                out.push_str(&item);
                out.push('\n');
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn public_api_matches_committed_baseline() {
    let current = current_surface();
    let baseline_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(BASELINE);
    if std::env::var("LX_UPDATE_API").is_ok() {
        std::fs::create_dir_all(baseline_path.parent().unwrap()).expect("mkdir api/");
        std::fs::write(&baseline_path, &current).expect("write baseline");
        println!("regenerated {}", baseline_path.display());
        return;
    }
    let committed = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        panic!(
            "missing API baseline {} ({e}); run LX_UPDATE_API=1 cargo test -p \
             lx-integration --test api_surface",
            baseline_path.display()
        )
    });
    if committed != current {
        // Line-level diff keeps the failure actionable without a diff tool.
        let old: Vec<&str> = committed.lines().collect();
        let new: Vec<&str> = current.lines().collect();
        let removed: Vec<&&str> = old.iter().filter(|l| !new.contains(l)).collect();
        let added: Vec<&&str> = new.iter().filter(|l| !old.contains(l)).collect();
        panic!(
            "public API drifted from the committed baseline.\n\
             removed ({}):\n  {}\nadded ({}):\n  {}\n\
             If intentional, regenerate with LX_UPDATE_API=1 cargo test -p \
             lx-integration --test api_surface and commit the diff.",
            removed.len(),
            removed
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join("\n  "),
            added.len(),
            added
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join("\n  "),
        );
    }
}

#[test]
fn legacy_model_entry_points_stay_retired() {
    // The api_redesign contract: the six pre-StepRequest entry points must
    // never resurface on `TransformerModel`'s public API. Only the model's
    // own file is in scope — layers keep their `forward`, and the engine
    // keeps its StepOutcome-returning `train_step` wrapper.
    let current = current_surface();
    let model_section: String = current
        .split("## ")
        .find(|s| s.starts_with("lx-model crates/model/src/model.rs"))
        .expect("model.rs section in surface")
        .to_string();
    for legacy in [
        "pub fn forward(",
        "pub fn backward(",
        "pub fn forward_planned(",
        "pub fn forward_with_captures(",
        "pub fn train_step(",
        "pub fn train_step_scaled(",
        "pub fn score_continuation(&mut self",
    ] {
        assert!(
            !model_section.contains(legacy),
            "legacy TransformerModel entry point resurfaced: {legacy}"
        );
    }
    // The replacement is present instead.
    let exec_section: String = current
        .split("## ")
        .find(|s| s.starts_with("lx-model crates/model/src/exec.rs"))
        .expect("exec.rs section in surface")
        .to_string();
    assert!(exec_section.contains("pub fn execute"));
    assert!(exec_section.contains("pub struct StepRequest"));
    assert!(exec_section.contains("pub struct StepOutcome"));
}

/// Source of `rel` (repo-relative) up to its `#[cfg(test)]` module.
fn non_test_source(rel: &str) -> String {
    let src = std::fs::read_to_string(repo_root().join(rel)).expect("read source");
    let end = src.find("#[cfg(test)]").unwrap_or(src.len());
    src[..end].to_string()
}

#[test]
fn per_dtype_gemm_fan_out_stays_retired() {
    // The one-GEMM-entry-point contract: storage format, layout and epilogue
    // are *data* (`BOperand`, `Layout`, `Epilogue`), never method names. The
    // per-(dtype, layout, ±epilogue) families must not drift back at any
    // layer of the stack. Enum variants are not items, so the non-test
    // sources of the same crates are searched as well, plus the experiment
    // crate that used to consume the retired plans.
    let current = current_surface();
    let sources: String = CRATES
        .iter()
        .map(|(_, dir)| *dir)
        .chain(["crates/bench/src"])
        .flat_map(rust_files)
        .map(|file| {
            let rel = file.strip_prefix(repo_root()).unwrap().display();
            non_test_source(&rel.to_string())
        })
        .collect();
    for retired in [
        // lx-kernels free functions beyond the benchmark-frozen six (the
        // exact survivor list is asserted below).
        "pub fn gemm_q8",
        "pub fn gemm_nt_q8",
        "pub fn gemm_nm",
        "pub fn gemm_nt_nm",
        "_ep(",
        "_strided(",
        // lx-tensor: one `matmul` (plus the f32-only `matmul_tn`).
        "pub fn matmul_nt",
        "pub fn matmul_f16",
        "pub fn matmul_quant",
        "pub fn matmul_nm",
        "pub enum QuantView",
        // lx-model: `Param::demote(dtype)` + `dtype()` cover these.
        "pub fn to_half",
        "pub fn to_quant",
        "pub fn to_nm(",
        "pub fn is_half",
        "pub fn is_quant",
        "pub fn is_nm",
        "pub fn copy_row_into",
        // The int8 storage plan, at every layer that knew about it.
        "Int8Frozen",
        "I8Block",
        "Q8View",
        "pub mod q8",
        "BOperand::Q8",
        // The N:M (2:4) storage plan and its mask-preserving merge, likewise.
        "Nm24Frozen",
        "NmView",
        "NmTensor",
        "Dtype::Nm24",
        "to_nm_with_mask",
        "mask_violation_total",
        // One owning reduced-storage type (`Reduced`) replaced the per-codec
        // ones.
        "HalfTensor",
        "QuantTensor",
        // Public items no caller used.
        "force_timing",
        "par_disjoint",
        "trainable_fraction",
    ] {
        assert!(
            !current.contains(retired) && !sources.contains(retired),
            "retired item resurfaced: {retired}"
        );
    }
    // Exactly the frozen contiguous conveniences survive in lx-kernels.
    let lib_section = current
        .split("## ")
        .find(|s| s.starts_with("lx-kernels crates/kernels/src/lib.rs"))
        .expect("lx-kernels lib.rs section in surface");
    let gemm_fns: Vec<&str> = lib_section
        .lines()
        .filter_map(|l| l.strip_prefix("pub fn gemm"))
        .map(|rest| &rest[..rest.find('(').expect("fn signature")])
        .collect();
    assert_eq!(gemm_fns, ["", "_f16", "_nt", "_nt_f16", "_nt_q4", "_q4"]);
    // Every backend implements exactly one GEMM method (trait methods carry
    // no `pub`, so they are checked in the sources directly) — plus, since
    // the grouped entry point, at most one `gemm_grouped`: the only other
    // `gemm*` method name the trait or any backend may carry.
    for file in ["backend", "packed", "observe"] {
        let src = non_test_source(&format!("crates/kernels/src/{file}.rs"));
        let methods: Vec<&str> = src
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix("fn gemm"))
            .collect();
        let plain = methods.iter().filter(|m| m.starts_with('(')).count();
        let grouped = methods
            .iter()
            .filter(|m| m.starts_with("_grouped("))
            .count();
        assert!(
            (1..=2).contains(&plain),
            "{file}.rs: {plain} `fn gemm` methods"
        );
        assert!(
            grouped <= 1,
            "{file}.rs: {grouped} `fn gemm_grouped` methods"
        );
        assert_eq!(
            plain + grouped,
            methods.len(),
            "{file}.rs: a `fn gemm*` method other than `gemm` / `gemm_grouped`"
        );
    }
    // `Param` holds one `reduced: Option<Reduced>`, not a field per family.
    let param = non_test_source("crates/model/src/param.rs");
    for field in ["pub half:", "pub quant:", "pub nm:"] {
        assert!(!param.contains(field), "Param field resurfaced: {field}");
    }
    assert!(param.contains("pub reduced: Option<Reduced>"));
}

#[test]
fn second_scheduler_stays_retired() {
    // The one-slice-loop contract: `lx-serve` describes a tenant's job,
    // `lx-cluster` schedules it — at one replica or many. The single-backbone
    // scheduler, its config and policy enum, and the prefetch path must not
    // drift back under any crate, nor may a second caller of the slice
    // functions appear.
    let current = current_surface();
    for retired in [
        "pub struct Scheduler",
        "pub struct ServeConfig",
        "pub enum SchedPolicy",
        "Scheduler, ServeConfig",
        "pub fn prefetch(",
        "pub fn wants_prefetch(",
    ] {
        assert!(
            !current.contains(retired),
            "retired single-backbone scheduler item resurfaced: {retired}"
        );
    }
    assert!(!repo_root().join("crates/serve/src/scheduler.rs").exists());
    let scheduler = non_test_source("crates/cluster/src/scheduler.rs");
    for slice_fn in [".run_slice(", "run_fused_eval_slice("] {
        assert_eq!(
            scheduler.matches(slice_fn).count(),
            1,
            "{slice_fn} must have exactly one call site in the scheduler"
        );
        assert!(
            !non_test_source("crates/cluster/src/service.rs").contains(slice_fn),
            "the service drives rounds, it never runs a slice itself"
        );
    }
}

#[test]
fn exposer_is_the_one_capture_reader() {
    // The one-ground-truth contract: a capture hands over the dense
    // forward's block probabilities and `Exposer::expose` is their only
    // reader. The dense `[B·h·S, S]` capture, its two-bool config and the
    // pool primitives only tests called must not grow back, and no second
    // capture-to-mask loop may run its own capture pass.
    let root = repo_root();
    for dir in ["crates", "examples"] {
        for file in rust_files(dir) {
            let rel = file.strip_prefix(&root).expect("under the repo");
            let rel = rel.to_string_lossy().replace('\\', "/");
            let src = std::fs::read_to_string(&file).expect("read source");
            for retired in [
                "CaptureConfig",
                "cached_dense_probs",
                "parallel_for",
                "parallel_map",
            ] {
                assert!(
                    !src.contains(retired),
                    "{rel}: retired `{retired}` resurfaced"
                );
            }
            let callers = non_test_source(&rel)
                .matches("StepRequest::capture(")
                .count();
            let allowed = usize::from(rel == "crates/core/src/exposer.rs");
            assert_eq!(
                callers, allowed,
                "{rel}: capture passes go through Exposer::expose"
            );
        }
    }
}

#[test]
fn second_softmax_stays_retired() {
    // The one-row-kernel contract: `lx_kernels::rows` holds the only `exp`,
    // softmax, LayerNorm, ReLU and log-sum-exp on the step path; lx-tensor,
    // lx-sparse and lx-model adapt shapes and call it. A scalar copy growing
    // back in any of them would fork the numerics (and the speed) again.
    for dir in ["crates/tensor/src", "crates/sparse/src", "crates/model/src"] {
        let mut files: Vec<_> = std::fs::read_dir(repo_root().join(dir))
            .expect("crate source dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .collect();
        files.sort();
        for file in files {
            let rel = format!("{dir}/{}", file.file_name().unwrap().to_string_lossy());
            let src = non_test_source(&rel);
            // Code only: doc and line comments may mention anything.
            let code: String = src
                .lines()
                .map(|l| l.split("//").next().unwrap_or(""))
                .collect::<Vec<_>>()
                .join("\n");
            for forbidden in [
                ".exp()",
                "f32::exp",
                "fn softmax_row(",
                "fn softmax_backward_row(",
                "fn block_row_softmax",
                "fn apply_alibi_blocks(",
                "fn layernorm_row(",
                "fn layernorm_backward_row(",
                "fn relu_inplace(",
                ".max(1e-12)",
            ] {
                assert!(
                    !code.contains(forbidden),
                    "{rel}: `{forbidden}` — a row pass outside lx_kernels::rows"
                );
            }
        }
    }
    // The adapters really are adapters: each softmax-family entry point
    // reaches the kernels, and the loss has one log-sum-exp call site.
    let ops = non_test_source("crates/tensor/src/ops.rs");
    assert_eq!(ops.matches("rows::softmax_forward(").count(), 2);
    assert_eq!(ops.matches("rows::softmax_backward(").count(), 1);
    let attention = non_test_source("crates/sparse/src/attention.rs");
    assert_eq!(attention.matches("rows::softmax_forward(").count(), 1);
    assert_eq!(attention.matches("rows::softmax_backward(").count(), 1);
    let loss = non_test_source("crates/model/src/loss.rs");
    assert_eq!(loss.matches("fn token_nll(").count(), 1);
    assert_eq!(
        loss.matches("token_nll(").count(),
        3,
        "definition + two callers"
    );
}

#[test]
fn predictor_reductions_stay_on_the_row_kernels() {
    // The MLP predictor's stage-two reduction and its softmax gradient run
    // through `lx_tensor::ops::log_sum_exp_rows`, one vector pass per block
    // row. The one scalar `exp` left in `crates/core/src` is the per-logit
    // sigmoid of the BCE loss. Needle assembled here so this file does not
    // match itself.
    let retired = format!("{}_logits", "reduce");
    let mut exps = 0;
    for file in rust_files("crates/core/src") {
        let rel = file
            .strip_prefix(repo_root())
            .unwrap()
            .display()
            .to_string();
        let src = std::fs::read_to_string(&file).expect("read source");
        assert!(!src.contains(&retired), "{rel}: `{retired}` resurfaced");
        let code: String = non_test_source(&rel)
            .lines()
            .map(|l| l.split("//").next().unwrap_or(""))
            .collect::<Vec<_>>()
            .join("\n");
        exps += code.matches(".exp()").count();
    }
    assert_eq!(exps, 1, "scalar `.exp()` calls in crates/core/src");
    let ops = non_test_source("crates/tensor/src/ops.rs");
    assert_eq!(ops.matches("rows::log_sum_exp(").count(), 1);
}

#[test]
fn every_experiment_in_all_experiments_is_a_bin() {
    // `all_experiments` launches its list by file name; an entry whose bin
    // was deleted fails only when someone runs the whole sweep.
    let src = non_test_source("crates/bench/src/bin/all_experiments.rs");
    let start = src.find("const BINS: &[&str] = &[").expect("BINS list");
    let list = &src[start..start + src[start..].find("];").expect("end of BINS")];
    let bins: Vec<&str> = list.split('"').skip(1).step_by(2).collect();
    assert!(!bins.is_empty(), "no entries parsed from BINS");
    for bin in bins {
        assert!(
            repo_root()
                .join(format!("crates/bench/src/bin/{bin}.rs"))
                .is_file(),
            "all_experiments::BINS names `{bin}`, which is not in crates/bench/src/bin/"
        );
    }
}

/// Every `.rs` file under `dir` (repo-relative), recursively.
fn rust_files(dir: &str) -> Vec<PathBuf> {
    let mut stack = vec![repo_root().join(dir)];
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("read {dir:?}: {e}")) {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

#[test]
fn environment_knobs_stay_three() {
    // The one-configuration contract: the library reads three `LX_*`
    // variables, each documented in README's configuration table, and
    // nothing mutates the process environment (tests run multi-threaded).
    // A fourth knob is a second configuration someone has to test.
    // Needles assembled here so this file does not match itself.
    let mutators = ["set", "remove"].map(|op| format!("{op}_var("));
    let mut knobs = std::collections::BTreeSet::new();
    for (dir, reads_knobs) in [("crates", true), ("tests", false)] {
        for file in rust_files(dir) {
            let src = std::fs::read_to_string(&file).expect("read source");
            for needle in &mutators {
                assert!(!src.contains(needle), "{}: {needle}", file.display());
            }
            if !reads_knobs {
                continue;
            }
            // Every string literal that *is* an `LX_…` name, whoever reads it.
            for (at, _) in src.match_indices("\"LX_") {
                let name = &src[at + 1..];
                let end = name.find('"').expect("closing quote");
                knobs.insert(name[..end].to_string());
            }
        }
    }
    let expected = ["LX_KERNEL_ISA", "LX_THREADS", "LX_TRACE"];
    assert_eq!(
        knobs.iter().map(String::as_str).collect::<Vec<_>>(),
        expected
    );
    let readme = std::fs::read_to_string(repo_root().join("README.md")).expect("README");
    for knob in expected {
        assert!(
            readme
                .lines()
                .any(|l| l.starts_with(&format!("| `{knob}`"))),
            "{knob} is missing from README's configuration table"
        );
    }
}

#[test]
fn one_lora_implementation() {
    // The one-LoRA contract: `lx_model::linear::Lora` owns the rank-r
    // forward, backward (dense and neuron-sparse) and the merge fold for
    // every attach site. A second pair type would fork the math again.
    // Needles assembled here so this file does not match itself.
    let needle = format!("struct {}", "Lora");
    let mut defs = Vec::new();
    for file in rust_files("crates") {
        let rel = file
            .strip_prefix(repo_root())
            .unwrap()
            .display()
            .to_string();
        if !rel.contains("/src/") {
            continue;
        }
        let src = std::fs::read_to_string(&file).expect("read source");
        for (at, _) in src.match_indices(&needle) {
            // Whole word only: `struct LoraTargets` is configuration.
            let rest = &src[at + needle.len()..];
            if !rest.starts_with(|c: char| c.is_alphanumeric() || c == '_') {
                defs.push(rel.clone());
            }
        }
    }
    assert_eq!(
        defs,
        ["crates/model/src/linear.rs"],
        "struct Lora definitions"
    );
    let snapshot = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(BASELINE))
        .expect("API baseline");
    let retired = format!("{}{}", "Mlp", "Lora");
    assert!(
        !snapshot.contains(&retired),
        "{retired} resurfaced in the public API"
    );
    // The rank-r updates accumulate into `y` / `dx` inside the GEMM
    // write-back: no `rows × d` scratch and no second pass over the output.
    let linear = non_test_source("crates/model/src/linear.rs");
    for needle in ["let delta", "dx_lora", ".axpy(", ".add_assign("] {
        assert!(!linear.contains(needle), "linear.rs: `{needle}` resurfaced");
    }
}

#[test]
fn one_grouped_gemm_in_the_packed_backend() {
    // One grouped launch path: the in-place A reads, the 16×16 tile and the
    // folded beta are choices inside it, not a second entry point.
    let packed = non_test_source("crates/kernels/src/packed.rs");
    assert_eq!(packed.matches("fn gemm_grouped(").count(), 1);
}

#[test]
fn one_runtime_gemm_backend() {
    // One GEMM path at runtime: `lx_kernels::backend()` is the observed
    // `Packed`, whatever the shape. The size dispatcher and its lookup stay
    // gone everywhere, and the scalar oracle is named only where the kernel
    // crate defines and wraps it, and in the benches that time against it.
    // Needles assembled here so this file does not match itself.
    let whole_word = |src: &str, needle: &str| {
        let ident = |c: char| c.is_alphanumeric() || c == '_';
        src.match_indices(needle).any(|(at, _)| {
            !src[..at].ends_with(ident) && !src[at + needle.len()..].starts_with(ident)
        })
    };
    let auto = format!("{}{}", "Au", "to");
    let retired = [
        auto.clone(),
        auto.to_uppercase(),
        format!("backend_{}", "by_name"),
        format!("group_{}", "packs"),
    ];
    let oracle = ["Reference".to_string(), "Reference".to_uppercase()];
    let allowed =
        ["backend", "dispatch", "lib", "observe"].map(|f| format!("crates/kernels/src/{f}.rs"));
    for dir in ["crates", "tests", "examples"] {
        for file in rust_files(dir) {
            let rel = file
                .strip_prefix(repo_root())
                .unwrap()
                .display()
                .to_string();
            let src = std::fs::read_to_string(&file).expect("read source");
            for needle in &retired {
                assert!(!whole_word(&src, needle), "{rel}: `{needle}` resurfaced");
            }
            let runtime_src = rel.starts_with("crates/")
                && rel.contains("/src/")
                && !rel.starts_with("crates/bench/")
                && !allowed.contains(&rel);
            if runtime_src {
                for needle in &oracle {
                    assert!(!whole_word(&src, needle), "{rel}: names `{needle}`");
                }
            }
        }
    }
}

#[test]
fn one_gemm_macro_kernel() {
    // One macro-kernel in the kernel crate: a plain product is a one-task
    // grouped launch. The blocked driver, the single-use-operand path and
    // its width threshold must not grow back beside it.
    // Needles assembled here so this file does not match itself.
    let retired = [
        format!("fn {}", "driver"),
        format!("fn {}", "single_use"),
        format!("SINGLE_{}", "USE"),
    ];
    for file in rust_files("crates/kernels/src") {
        let src = std::fs::read_to_string(&file).expect("read source");
        for needle in &retired {
            assert!(
                !src.contains(needle.as_str()),
                "{}: retired `{needle}` resurfaced",
                file.display()
            );
        }
    }
}

#[test]
fn f32_slab_copies_stay_retired() {
    // One sparse-MLP path: the neuron operators read f16 / NF4 weights where
    // they lie and decode each active slab inside the grouped pack. The
    // cross-step f32 slab cache, the set diff that maintained it and the
    // compact renumbering it addressed must not grow back anywhere.
    // Needles assembled here so this file does not match itself.
    let retired = [
        format!("Sparse{}", "Slabs"),
        format!("slab_{}", "cache"),
        format!("BlockSet{}", "Diff"),
        format!("comp{}", "acted"),
    ];
    for dir in ["crates", "tests", "examples"] {
        for file in rust_files(dir) {
            let src = std::fs::read_to_string(&file).expect("read source");
            for needle in &retired {
                assert!(
                    !src.contains(needle.as_str()),
                    "{}: retired `{needle}` resurfaced",
                    file.display()
                );
            }
        }
    }
}
