//! Every full-preset `repro` output but fig8's, pinned by digest in
//! `tests/repro_digests.expected` at `ANUBIS_THREADS` 1, 2 and 8 (see
//! `tests/digests/mod.rs`). `parallel_determinism.rs` checks the quick
//! rows and `fig8_pinned.rs` the full fig8 row.
//!
//! The full table3, table5 and table6 runs take about 41, 7 and 8 s each
//! in release, so only the ignored test runs them (nightly, in
//! `.github/workflows/soak.yml`: `cargo test --release --offline --test
//! repro_digests -- --ignored`).

mod common;
mod digests;

use digests::Owner;

#[test]
fn repro_outputs_match_their_digests_at_1_2_and_8_threads() {
    digests::check(Owner::Full);
}

#[test]
#[ignore = "the full table3, table5 and table6 runs take about 3.5 minutes in release"]
fn slow_full_presets_match_their_digests() {
    digests::check(Owner::Slow);
}
