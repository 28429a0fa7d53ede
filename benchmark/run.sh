#!/usr/bin/env bash
# The one command: build the benchmark from source, then run it.
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--aa]
# See benchmark/README.md. Exits non-zero when the correctness gate (or, with
# --aa, the A/A agreement check) fails.
set -euo pipefail
cd "$(dirname "$0")/.."

# Hermetic: no inherited LX_* knob reaches the program, and the pool width is
# pinned to min(2, nproc) whatever the caller exported.
for var in $(compgen -e | grep '^LX_' || true); do
    unset "$var"
done
cores=$(nproc)
export LX_THREADS=$((cores < 2 ? cores : 2))
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# Same (default) release profile as the root workspace; --offline because the
# workspace has no registry dependencies. Build chatter goes to stderr so the
# result object stays the last line of stdout.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/lx-benchmark" "$@"
