#!/usr/bin/env sh
# Full CI gate for the workspace. Every step must pass; the same sequence
# runs in .github/workflows/ci.yml (split across jobs there).
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (denied warnings; enforces the clippy.toml bans and the library crates' panic-freedom headers)"
cargo clippy --workspace --all-targets --offline -- -D warnings

# anubis-nn's kernels differ between the AVX-512 build above (this
# host's target-cpu=native) and the portable one, and so do their
# `#[expect]`s: an expectation must hold on both. x86-64-v3 has no
# AVX-512; its own target dir keeps the main build's artifacts intact.
echo "==> cargo clippy on anubis-nn's portable (x86-64-v3) path"
RUSTFLAGS="-C target-cpu=x86-64-v3" CARGO_TARGET_DIR=target/x86-64-v3 \
    cargo clippy -p anubis-nn --lib --offline -- -D warnings

# Broken intra-doc links (e.g. to a deleted or private item) and
# ambiguous ones fail here.
echo "==> rustdoc (denied warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> release build (every workspace binary, repro included)"
cargo build --release --offline --workspace

# perfbench is its own workspace with its own lock file: a workspace API
# change that breaks the benchmark, or a manifest change that would
# rewrite perfbench/Cargo.lock, fails here.
echo "==> perfbench build (locked)"
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> examples (run end to end; quickstart asserts both gray failures are caught)"
for ex in quickstart cluster_buildout proactive_fleet network_scan; do
    cargo run -q --release --offline --example "$ex" > "target/example-$ex.txt"
done

# The split Cox-Time trainer on both of its paths, whatever this host's
# core count: inline on one thread, and with the helper thread on two.
echo "==> nn + selector tests at ANUBIS_THREADS=1 and 2"
ANUBIS_THREADS=1 cargo test -q --release --offline -p anubis-nn -p anubis-selector
ANUBIS_THREADS=2 cargo test -q --release --offline -p anubis-nn -p anubis-selector

# The portable kernels under the same bit-exactness tests and pinned fit
# bits: x86-64-v3 has no AVX-512, so this build skips the 512-bit `tanh`
# and product paths even on a host that has it. RUSTFLAGS replaces the
# repo's `target-cpu=native`; its own target dir keeps the main build's
# artifacts intact.
echo "==> nn + selector tests on the portable (x86-64-v3) path"
RUSTFLAGS="-C target-cpu=x86-64-v3" CARGO_TARGET_DIR=target/x86-64-v3 \
    cargo test -q --release --offline -p anubis-nn -p anubis-selector

# Includes the exact work-counter check (tests/obs_trace_determinism.rs
# against tests/work_counters.expected), the repo's perf check that host
# load cannot move, the exact allocation counts of the hot paths
# (tests/alloc_counts.rs against tests/alloc_counts.expected), and the
# digest of every experiment output at ANUBIS_THREADS 1, 2 and 8
# (tests/digests/mod.rs against tests/repro_digests.expected), and
# fleetd's byte-identity across shard and thread counts, `repro fleetd`'s
# default fleet included (crates/fleetd/tests/determinism.rs);
# perfbench bounds end-to-end wall time.
echo "==> tests"
cargo test -q --workspace --release --offline

# The fleetd output digest (crates/fleetd/tests/determinism.rs) pins the
# service's bytes across commits; the release leg above ran it, this is
# its debug leg (debug_assert! and overflow checks on).
echo "==> fleetd output digest (debug)"
cargo test -q --offline -p anubis-fleetd --test determinism output_digest_is_pinned_across_commits

echo "==> CI gate passed"
