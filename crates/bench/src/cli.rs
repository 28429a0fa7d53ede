//! Shared command-line handling for the experiment bins.
//!
//! Every bin used to hand-roll its own `--json` / `--smoke` / `--precision`
//! scanning; this consolidates the conventions in one place:
//!
//! * `--json` — serialise the collected report tables to `BENCH_<name>.json`
//!   at the end of the run (see [`crate::report`]); emitted by
//!   [`BenchCli::finish`].
//! * `--smoke` — shrink the workload into a fast CI gate.
//! * `--precision f32|f16|nf4` — parameter-storage plan for bins
//!   that build models (default f16, the production configuration).
//! * `--<flag> <value>` — free-form valued flags via [`BenchCli::value`]
//!   (e.g. `kernel_bench --compare <baseline> --tolerance <frac>`).
//!
//! Unknown flags are ignored so `all_experiments` can forward one argument
//! list to every bin.

use lx_model::Precision;

/// Parsed bin arguments. Construct with [`BenchCli::parse`] at the top of
/// `main`, call [`BenchCli::finish`] at the end.
pub struct BenchCli {
    name: &'static str,
    args: Vec<String>,
    /// `--json`: write `BENCH_<name>.json` on [`BenchCli::finish`].
    pub json: bool,
    /// `--smoke`: run the reduced CI-gate workload.
    pub smoke: bool,
}

impl BenchCli {
    /// Parse the process arguments for the bin called `name` (the
    /// `BENCH_<name>.json` stem).
    pub fn parse(name: &'static str) -> Self {
        Self::from_args(name, std::env::args().skip(1).collect())
    }

    /// Parse an explicit argument list (tests).
    pub fn from_args(name: &'static str, args: Vec<String>) -> Self {
        let json = args.iter().any(|a| a == "--json");
        let smoke = args.iter().any(|a| a == "--smoke");
        BenchCli {
            name,
            args,
            json,
            smoke,
        }
    }

    /// The bin name this parser was built for.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Value of a `--flag value` pair, if present.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    /// The `--precision f32|f16|nf4` storage plan. Defaults to
    /// `f16` (the production configuration); exits with status 2 on anything
    /// else.
    pub fn precision(&self) -> Precision {
        match self.value("--precision") {
            None | Some("f16") => Precision::F16Frozen,
            Some("f32") => Precision::F32,
            Some("nf4") => Precision::Nf4Frozen,
            Some(other) => {
                eprintln!(
                    "{}: unknown --precision '{other}' (expected f32|f16|nf4)",
                    self.name
                );
                std::process::exit(2);
            }
        }
    }

    /// The raw argument list (what `all_experiments` forwards to each bin).
    pub fn forwarded(&self) -> &[String] {
        &self.args
    }

    /// End-of-run handling: writes `BENCH_<name>.json` when `--json` was
    /// given. Call once, after the last table row.
    pub fn finish(&self) {
        if self.json {
            match crate::report::emit_json(self.name) {
                Ok(path) => println!("\nwrote {}", path.display()),
                Err(e) => eprintln!("failed to write BENCH_{}.json: {e}", self.name),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> BenchCli {
        BenchCli::from_args("test_bin", args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn flags_parse() {
        let c = cli(&["--json", "--smoke"]);
        assert!(c.json);
        assert!(c.smoke);
        let c = cli(&[]);
        assert!(!c.json);
        assert!(!c.smoke);
    }

    #[test]
    fn valued_flags_parse() {
        let c = cli(&["--compare", "base.json", "--tolerance", "0.5"]);
        assert_eq!(c.value("--compare"), Some("base.json"));
        assert_eq!(c.value("--tolerance"), Some("0.5"));
        assert_eq!(c.value("--missing"), None);
    }

    #[test]
    fn precision_defaults_to_f16() {
        assert_eq!(cli(&[]).precision(), Precision::F16Frozen);
        assert_eq!(
            cli(&["--precision", "f16"]).precision(),
            Precision::F16Frozen
        );
        assert_eq!(cli(&["--precision", "f32"]).precision(), Precision::F32);
        assert_eq!(
            cli(&["--precision", "nf4"]).precision(),
            Precision::Nf4Frozen
        );
    }

    #[test]
    fn unknown_flags_are_ignored() {
        let c = cli(&["--whatever", "--json"]);
        assert!(c.json);
    }
}
