//! The fleetd determinism contract: the service's observable output —
//! end-of-run summary and per-tick JSONL — is a pure function of the
//! config, independent of both the shard count and the executor's
//! thread count.

use anubis_fleetd::{Coordinator, FleetdConfig};

/// Runs the service and returns `(summary text, tick JSONL)`.
fn run(nodes: u32, shards: u32, ticks: u32, threads: usize, seed: u64) -> (String, String) {
    let cfg = FleetdConfig {
        nodes,
        shards,
        ticks,
        threads,
        seed,
        ..FleetdConfig::default()
    };
    let mut fleet = Coordinator::new(cfg);
    let mut jsonl = String::new();
    let summary = fleet.run(ticks, |tick| tick.write_jsonl(&mut jsonl));
    (summary.render(), jsonl)
}

#[test]
fn output_is_identical_across_shard_counts() {
    // The shard loop prefetches cold node state 32 nodes ahead
    // (`LOOKAHEAD` in shard.rs). Over 600 nodes, 18 shards are 34 and 33
    // nodes long (just past it), 19 shards 32 and 31 (equal and just
    // short), 40 shards 15 and 600 shards 1 (far short), and 7 shards end
    // on two shorter ones, so the lookahead runs off every kind of shard
    // end.
    let baseline = run(600, 1, 40, 1, 42);
    for shards in [4u32, 7, 16, 18, 19, 40, 600] {
        let other = run(600, shards, 40, 1, 42);
        assert_eq!(
            baseline.0, other.0,
            "summary must not depend on the shard count (S={shards})"
        );
        assert_eq!(
            baseline.1, other.1,
            "tick JSONL must not depend on the shard count (S={shards})"
        );
    }
}

#[test]
fn output_is_identical_across_thread_counts() {
    let serial = run(600, 8, 40, 1, 42);
    let parallel = run(600, 8, 40, 8, 42);
    assert_eq!(serial.0, parallel.0, "summary must not depend on threads");
    assert_eq!(
        serial.1, parallel.1,
        "tick JSONL must not depend on threads"
    );
}

#[test]
fn default_fleet_is_identical_across_shards_and_threads() {
    // `repro fleetd`'s default fleet, 2,000 nodes × 50 ticks, whose
    // stdout is `render()` and whose `--jsonl` is the tick JSONL: 8
    // shards at 1 and at 4 threads, 1 shard, and 100 shards of 20 nodes,
    // where every shard, and so every attention list, is shorter than the
    // shard loop's 32-entry prefetch lookahead.
    let baseline = run(2000, 8, 50, 1, 42);
    for (shards, threads) in [(8u32, 4usize), (1, 4), (100, 2)] {
        let other = run(2000, shards, 50, threads, 42);
        assert_eq!(
            baseline.0, other.0,
            "summary must not depend on the layout (S={shards}, threads={threads})"
        );
        assert_eq!(
            baseline.1, other.1,
            "tick JSONL must not depend on the layout (S={shards}, threads={threads})"
        );
    }
}

#[test]
fn shard_and_thread_variation_combined() {
    // Vary both axes at once and across seeds.
    for seed in [7u64, 2026] {
        let a = run(300, 1, 30, 1, seed);
        let b = run(300, 16, 30, 8, seed);
        assert_eq!(a, b, "seed {seed}");
    }
}

#[test]
fn different_seeds_produce_different_traces() {
    // Guard against the trivial way to "pass" the identity tests.
    let a = run(300, 4, 30, 1, 1);
    let b = run(300, 4, 30, 1, 2);
    assert_ne!(a.1, b.1, "distinct seeds must yield distinct histories");
}

#[test]
fn run_is_live_and_conserves_nodes() {
    let cfg = FleetdConfig {
        nodes: 500,
        shards: 4,
        ticks: 120,
        threads: 1,
        ..FleetdConfig::default()
    };
    let mut fleet = Coordinator::new(cfg);
    let mut max_pending = 0usize;
    let summary = fleet.run(120, |tick| {
        assert_eq!(tick.counts.total(), 500, "nodes never appear or vanish");
        max_pending = max_pending.max(tick.pending_jobs);
    });
    assert!(summary.incidents > 0, "stressed fleet must see incidents");
    assert!(summary.validations > 0, "validation loop must run");
    assert!(summary.repairs > 0, "repair pipeline must cycle");
    assert!(summary.jobs_started > 0, "placement must happen");
    assert!(
        summary.final_counts.in_service() > 0,
        "service must not quarantine the whole fleet"
    );
}

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn output_digest_is_pinned_across_commits() {
    // 4,000 nodes × 300 ticks at 2.2× the fleet's capacity in demand:
    // the run refreshes the criteria 30 times, leaves suspects waiting
    // behind a full validation cap and blocks placement at the head of
    // the queue, so every coordinator phase shapes the bytes.
    let cfg = FleetdConfig {
        nodes: 4000,
        shards: 8,
        ticks: 300,
        threads: 1,
        seed: 42,
        validations_per_tick: 2,
        target_utilization: 2.2,
        ..FleetdConfig::default()
    };
    let cap = cfg.validation_cap();
    let mut fleet = Coordinator::new(cfg);
    let mut jsonl = String::new();
    let (mut cap_filled, mut head_blocked) = (0u32, 0u32);
    let summary = fleet.run(300, |tick| {
        tick.write_jsonl(&mut jsonl);
        cap_filled += u32::from(tick.validations_started == cap && tick.counts.suspect > 0);
        head_blocked += u32::from(tick.pending_jobs > 0);
    });
    assert!(
        summary.criteria_threshold.is_some(),
        "criteria must refresh"
    );
    assert!(cap_filled > 0, "the validation cap must fill on some tick");
    assert!(head_blocked > 0, "placement must block on some tick");
    let digest = fnv1a(format!("{}{jsonl}", summary.render()).as_bytes());
    assert_eq!(
        (digest, cap_filled, head_blocked),
        PINNED_DIGEST,
        "fleetd output bytes changed"
    );
}

/// `(FNV-1a of render() + every tick's JSONL, ticks that filled the
/// validation cap with suspects left waiting, ticks that ended with jobs
/// pending)` for the run
/// above, recorded before the merge-free criteria refresh, the
/// suspect-only validation scan, the lazy placement cursor and the
/// shard's per-wear-count risk memo.
const PINNED_DIGEST: (u64, u32, u32) = (0xf28a_604a_a79f_e0c6, 6, 57);
