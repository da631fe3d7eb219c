#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md). Every step must pass before merge.
#
# The build is hermetic: no network, no registry deps. Everything below
# runs offline against the in-tree workspace only.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> xtask lint --self-test (lint engine vs seeded corpus)"
cargo run -q -p xtask -- lint --self-test

echo "==> xtask lint (layer 1: semantic source lints)"
mkdir -p results
cargo run -q -p xtask -- lint --json > results/lint_report.json

echo "==> xtask validate --self-test (validator vs pinned spec corpus)"
cargo run -q -p xtask -- validate --self-test

echo "==> xtask validate (layer 2: specs + pipeline-graph validator)"
cargo run -q -p xtask -- validate --json > results/validate_report.json

echo "==> xtask validate --seeded-negatives (gate self-test)"
cargo run -q -p xtask -- validate --seeded-negatives

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (CM_THREADS=1)"
CM_THREADS=1 cargo test -q --workspace

echo "==> cargo test (CM_THREADS=4)"
CM_THREADS=4 cargo test -q --workspace

echo "==> fault matrix (CM_THREADS=2)"
CM_THREADS=2 cargo test -q --test fault_matrix

echo "==> CM_FAULTS smoke: fault drill must be thread-invariant"
FAULT_SPEC='seed=13;topics=unavailable@0.4;keywords=transient(2)@0.5;user_reports=corrupt@0.3'
CM_FAULTS="$FAULT_SPEC" CM_THREADS=1 cargo run -q --release --example fault_drill \
    > /tmp/cm_fault_drill_t1.out
CM_FAULTS="$FAULT_SPEC" CM_THREADS=4 cargo run -q --release --example fault_drill \
    > /tmp/cm_fault_drill_t4.out
diff /tmp/cm_fault_drill_t1.out /tmp/cm_fault_drill_t4.out
echo "    fault drill output identical across thread counts"

echo "==> shard smoke: streamed curation must be bit-identical to resident"
# Three shard sizes (1 row, a prime, whole-corpus) at two thread counts;
# the example exits non-zero on the first divergence.
CM_THREADS=1 cargo run -q --release --example shard_smoke
CM_THREADS=4 cargo run -q --release --example shard_smoke

echo "==> serve smoke: crash/restart must be bit-identical to a clean run"
# The drill loads specs/serve.json (mixed fault storm), checkpoints every
# tick, and prints a deterministic report. Three runs against the pinned
# fixture: clean, crashed after the 2nd batch ingest (stdout discarded),
# and resumed off the crash's checkpoint at a different thread count.
SERVE_CKPT=/tmp/cm_serve_drill.ckpt
rm -f "$SERVE_CKPT"
CM_CHECKPOINT="$SERVE_CKPT" CM_THREADS=1 cargo run -q --release --example serve_drill \
    > /tmp/cm_serve_drill_clean.out
diff /tmp/cm_serve_drill_clean.out tests/fixtures/serve_drill.out
rm -f "$SERVE_CKPT"
CM_CHECKPOINT="$SERVE_CKPT" CM_CRASH_AT=2 CM_THREADS=4 cargo run -q --release --example serve_drill \
    > /dev/null
test -f "$SERVE_CKPT" || { echo "crashed run left no checkpoint"; exit 1; }
CM_CHECKPOINT="$SERVE_CKPT" CM_THREADS=4 cargo run -q --release --example serve_drill \
    > /tmp/cm_serve_drill_resume.out
diff /tmp/cm_serve_drill_resume.out tests/fixtures/serve_drill.out
rm -f "$SERVE_CKPT"
echo "    serve drill identical across clean and crash/restart runs"

echo "==> serve smoke: delta-log resume with a torn tail"
# The wire checkpoint is a base snapshot + append-only delta log. Kill
# mid-run (compaction deferred so the tail is a delta record), then tear
# the last record the way a crash mid-append would; resumes at both
# thread counts must recover to the last complete record and still match
# the pinned fixture byte for byte.
rm -f "$SERVE_CKPT"
CM_CHECKPOINT="$SERVE_CKPT" CM_CRASH_AT=4 CM_CKPT_COMPACT_TICKS=10000 CM_THREADS=1 \
    cargo run -q --release --example serve_drill > /dev/null
test -f "$SERVE_CKPT" || { echo "killed run left no delta log"; exit 1; }
head -c 4 "$SERVE_CKPT" | grep -q 'CMCK' || { echo "checkpoint is not a wire delta log"; exit 1; }
truncate -s -7 "$SERVE_CKPT"
CM_CHECKPOINT="$SERVE_CKPT" CM_THREADS=1 cargo run -q --release --example serve_drill \
    > /tmp/cm_serve_drill_torn_t1.out
diff /tmp/cm_serve_drill_torn_t1.out tests/fixtures/serve_drill.out
rm -f "$SERVE_CKPT"
CM_CHECKPOINT="$SERVE_CKPT" CM_CRASH_AT=4 CM_CKPT_COMPACT_TICKS=10000 CM_THREADS=4 \
    cargo run -q --release --example serve_drill > /dev/null
truncate -s -7 "$SERVE_CKPT"
CM_CHECKPOINT="$SERVE_CKPT" CM_THREADS=4 cargo run -q --release --example serve_drill \
    > /tmp/cm_serve_drill_torn_t4.out
diff /tmp/cm_serve_drill_torn_t4.out tests/fixtures/serve_drill.out
rm -f "$SERVE_CKPT"
echo "    delta-log resume identical after torn-tail kills at CM_THREADS=1 and 4"

echo "==> serve smoke: compaction after a delta, then a delta on top"
# Compacting every tick alternates base and delta commits: each base is
# rewritten after a delta moved the curator's durable marks, and the next
# delta is appended on top of it. Kill after the 4th ingest, then resume
# at both thread counts against the pinned fixture.
for threads in 1 4; do
    rm -f "$SERVE_CKPT"
    CM_CHECKPOINT="$SERVE_CKPT" CM_CRASH_AT=4 CM_CKPT_COMPACT_TICKS=1 CM_THREADS=1 \
        cargo run -q --release --example serve_drill > /dev/null
    test -f "$SERVE_CKPT" || { echo "killed run left no checkpoint"; exit 1; }
    CM_CHECKPOINT="$SERVE_CKPT" CM_CKPT_COMPACT_TICKS=1 CM_THREADS="$threads" \
        cargo run -q --release --example serve_drill > "/tmp/cm_serve_drill_compact_t$threads.out"
    diff "/tmp/cm_serve_drill_compact_t$threads.out" tests/fixtures/serve_drill.out
done
rm -f "$SERVE_CKPT"
echo "    compaction-after-delta resume identical at CM_THREADS=1 and 4"

echo "==> benchmark smoke: perfbench builds against the workspace and runs"
# The benchmark harness (perfbench/) is its own cargo project over the
# workspace's public APIs; its smoke test runs every workload once at a
# tiny size, so an API change that breaks it fails here, not at bench time.
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> benchmark gates: pinned digests, sharded = resident, replay = curate, resume = live"
# One traced one-second run of each workload. A run exits non-zero when an
# output digest leaves perfbench/pins.txt, when curate_streamed's labels
# differ from curate's, when the layer-by-layer replay differs from
# curate, or when a serve resume differs from the live run, so these gates
# hold on every CI pass, not only at bench time.
bash perfbench/run.sh --workload pool-anchored --seed 0 --seconds 1 --trace 1
bash perfbench/run.sh --workload pool-propagation --seed 0 --seconds 1 --trace 1
bash perfbench/run.sh --workload serve-ticks --seed 0 --seconds 1 --trace 1

echo "==> bench smoke: scale group, capped corpus"
# Executes the sharded scale sweep once at a small row cap (compile +
# run guard; the committed results/BENCH_scale.json comes from a full
# uncapped run).
CM_SCALE_MAX_ROWS=20000 CM_SCALE_JSON=/tmp/cm_bench_scale_smoke.json \
    cargo bench -q -p cm-bench --bench substrates -- scale

echo "==> bench smoke: kernels group, 1 sample"
# Executes every columnar hot-path kernel benchmark once (compile +
# run guard only; timings at this sample size are meaningless).
CM_BENCH_SAMPLES=1 cargo bench -q -p cm-bench --bench substrates -- kernels

echo "ci: all gates passed"
