//! Pins the default Figure 8 run — 128 nodes, the Cox-Time Selector and
//! the random-subset ablation — to the bit. The `--quick` smoke uses the
//! exponential model and no ablation, so this is the only test that
//! drives Cox-Time inference and the RandomSubset coverage path through
//! the cluster simulation. Any speed-up of either must reproduce every
//! outcome bit recorded here.

use anubis_bench::experiments::fig8::{run, Fig8Config};
use anubis_cluster::SimOutcome;

/// FNV-1a over the daily utilization bits: one word per policy for the
/// 30-point curve.
fn daily_digest(daily: &[f64]) -> u64 {
    daily.iter().fold(0xcbf2_9ce4_8422_2325, |h, d| {
        (h ^ d.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every field of one outcome as bits: the six scalar means, the two job
/// counts and the daily-curve digest.
fn outcome_bits(o: &SimOutcome) -> [u64; 9] {
    [
        o.avg_utilization.to_bits(),
        o.avg_validation_hours.to_bits(),
        o.mtbi_hours.to_bits(),
        o.incidents_per_node.to_bits(),
        o.customer_incidents_per_node.to_bits(),
        o.avg_repair_hours.to_bits(),
        o.jobs_completed,
        o.jobs_interrupted,
        daily_digest(&o.daily_utilization),
    ]
}

#[test]
fn fig8_default_outcome_bits_are_pinned_across_commits() {
    let result = run(&Fig8Config::default());
    let actual: Vec<(&str, [u64; 9])> = result
        .outcomes
        .iter()
        .map(|o| (o.policy.name(), outcome_bits(o)))
        .collect();
    assert_eq!(actual, PINNED);
}

/// Recorded before the bitset coverage table, the one-call Selector
/// decision and the running-job map replaced the `BTreeSet` unions, the
/// `should_validate` pre-check and the simulator's append-only job slots.
const PINNED: [(&str, [u64; 9]); 5] = [
    (
        "Absence",
        [
            0x3fcb9507413dac8e,
            0x0000000000000000,
            0x402411e36315fae8,
            0x402eec0000000000,
            0x402eec0000000000,
            0x408164c000000000,
            295,
            1979,
            0xfdebebde24f23039,
        ],
    ),
    (
        "Full Set",
        [
            0x3fe808ca1ed6b879,
            0x406093b222222221,
            0x4058683fb7541821,
            0x4016280000000000,
            0x3ff7e00000000000,
            0x4016280000000000,
            640,
            191,
            0xaee733c23fccc2b2,
        ],
    ),
    (
        "ANUBIS Selector",
        [
            0x3fed0b546d18ed8a,
            0x4023badddddddddd,
            0x40610e96a5224481,
            0x4013280000000000,
            0x4002a00000000000,
            0x4013280000000000,
            670,
            298,
            0xb52049b648d91407,
        ],
    ),
    (
        "Ideal",
        [
            0x3fee367c4f22a7e8,
            0x0000000000000000,
            0x40f53e4f67a45e0f,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            659,
            0,
            0x573779fd852fae57,
        ],
    ),
    (
        "Random Subset",
        [
            0x3fec3513ff75e151,
            0x403ecc7ffffffffc,
            0x4061918eab82ff7e,
            0x4012100000000000,
            0x400b900000000000,
            0x4012100000000000,
            668,
            441,
            0x42f39b03922e6b0e,
        ],
    ),
];
