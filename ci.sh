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

echo "==> perf-regression gate (quick smoke benches vs BENCH_2.json)"
# No `rm` of the results file here: `perfgate` rotates the consumed JSONL
# aside itself after every gate run, so stale measurements cannot leak
# into the next comparison.
ANUBIS_BENCH_QUICK=1 ANUBIS_BENCH_JSON="$(pwd)/target/bench-current.jsonl" \
    cargo bench -p anubis-bench --offline -- \
    cdf_distance one_sided_distance criteria/algorithm2 criteria/incremental \
    selection/algorithm1 selection/celf coxtime/expected_tbni \
    coxtime/incident_probability coxtime/warmstart scan/full json/serialize \
    fleetd/tick fleetd/merge
# The analyzer's own fixpoint engine is a tracked kernel too.
ANUBIS_BENCH_QUICK=1 ANUBIS_BENCH_JSON="$(pwd)/target/bench-current.jsonl" \
    cargo bench -p anubis-xtask --offline
cargo run -p anubis-xtask --offline -- perfgate

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

echo "==> tests"
cargo test -q --workspace --release --offline

echo "==> CI gate passed"
