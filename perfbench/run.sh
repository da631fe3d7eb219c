#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# The last line of standard output is the result object.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2
# One worker, recorded in the result's host block. On a host of a few shared
# cores, a parallel section waits for its slowest worker, so a run at one
# worker per core times the neighbours' load more than the program.
export CM_THREADS=1
export PERFBENCH_RUSTC="$(rustc --version)"
PERFBENCH_GIT_REV=unknown
if [ -d "$root/.git" ]; then
    PERFBENCH_GIT_REV="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
export PERFBENCH_GIT_REV
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
