#!/usr/bin/env sh
# Full CI gate for the workspace. Every step must pass; the same sequence
# runs in .github/workflows/ci.yml (split across jobs there).
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (denied warnings; enforces the clippy.toml determinism and shared-mutable-type bans)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> call-graph analysis (anubis-xtask)"
cargo run -p anubis-xtask --offline -- analyze --json target/analysis.sarif.json

echo "==> release build"
cargo build --release --offline

echo "==> fleetd service smoke (byte-determinism across threads and shards)"
ANUBIS_THREADS=1 ./target/release/repro fleetd --nodes 2000 --shards 8 --ticks 50 \
    --jsonl=target/fleetd-smoke-t1.jsonl > target/fleetd-smoke-t1.txt
ANUBIS_THREADS=4 ./target/release/repro fleetd --nodes 2000 --shards 8 --ticks 50 \
    --jsonl=target/fleetd-smoke-t4.jsonl > target/fleetd-smoke-t4.txt
ANUBIS_THREADS=4 ./target/release/repro fleetd --nodes 2000 --shards 1 --ticks 50 \
    --jsonl=target/fleetd-smoke-s1.jsonl > target/fleetd-smoke-s1.txt
cmp target/fleetd-smoke-t1.txt target/fleetd-smoke-t4.txt
cmp target/fleetd-smoke-t1.jsonl target/fleetd-smoke-t4.jsonl
cmp target/fleetd-smoke-t1.txt target/fleetd-smoke-s1.txt
cmp target/fleetd-smoke-t1.jsonl target/fleetd-smoke-s1.jsonl

# Includes the exact work-counter check (tests/obs_trace_determinism.rs
# against tests/work_counters.expected), the repo's perf check that host
# load cannot move; perfbench bounds end-to-end wall time.
echo "==> tests"
cargo test -q --workspace --release --offline

echo "==> CI gate passed"
