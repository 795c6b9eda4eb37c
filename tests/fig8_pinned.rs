//! Pins the default Figure 8 run — 128 nodes, the Cox-Time Selector and
//! the random-subset ablation — to the bit, by the digest of its `repro
//! fig8` text and JSON in `tests/repro_digests.expected` (see
//! `tests/digests/mod.rs`). The JSON prints every `SimOutcome` field of
//! every policy, `daily_utilization` included, as shortest-round-trip
//! `f64`. The quick run uses the exponential model and no ablation, so
//! this is the only test that drives Cox-Time inference and the
//! RandomSubset coverage path through the cluster simulation. table4
//! prints the same run, so its row is checked here too.

mod common;
mod digests;

#[test]
fn fig8_default_outcome_bits_are_pinned_across_commits() {
    digests::check(digests::Owner::Fig8);
}
