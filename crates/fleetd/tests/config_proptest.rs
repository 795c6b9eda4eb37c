//! Arbitrary fleetd configurations: `validate()` rejects a bad one with
//! its typed `ConfigError`, and a good one runs without panicking while
//! every tick's census covers the whole fleet.

use anubis_fleetd::{Coordinator, FleetdConfig};
use proptest::prelude::*;

/// Every float knob, by setter.
const FLOAT_FIELDS: [fn(&mut FleetdConfig, f64); 13] = [
    |c, v| c.tick_hours = v,
    |c, v| c.base_mtbi_hours = v,
    |c, v| c.wear_factor = v,
    |c, v| c.frailty_sigma = v,
    |c, v| c.horizon_hours = v,
    |c, v| c.risk_threshold = v,
    |c, v| c.base_score = v,
    |c, v| c.measurement_sigma = v,
    |c, v| c.damage_probability = v,
    |c, v| c.damage_min = v,
    |c, v| c.damage_max = v,
    |c, v| c.defect_quantile = v,
    |c, v| c.target_utilization = v,
];

/// Floats no range check expects. Finite but huge magnitudes (a
/// 10¹²-hour tick) are not generated: the run's work grows with them and
/// no rule bounds it yet.
const ODD_FLOATS: [f64; 7] = [
    0.0,
    -0.0,
    -1.0,
    2.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// A tiny fleet (at most 64 nodes and 20 ticks) with every knob drawn
/// from its domain; zero nodes or shards now and then.
fn tiny_fleet() -> impl Strategy<Value = FleetdConfig> {
    (
        (0u32..=64, 0u32..=9, 0u32..=20, 0.25f64..4.0, 0u64..1000),
        (10.0f64..500.0, 0.5f64..2.0, 0u32..=20, 0.0f64..1.5),
        (1.0f64..72.0, 0.0f64..1.0, 0u32..=30, 0u32..=10),
        (
            50.0f64..150.0,
            0.0f64..0.1,
            0.0f64..1.0,
            0.0f64..0.3,
            0.01f64..0.5,
        ),
        (0u32..=12, 0.0f64..1.0, 0usize..=16, 0u32..=15),
        (0.0f64..1.5, 0usize..=8),
    )
        .prop_map(
            |(
                (nodes, shards, ticks, tick_hours, seed),
                (base_mtbi_hours, wear_factor, wear_cap, frailty_sigma),
                (horizon_hours, risk_threshold, cooldown_ticks, validations_per_tick),
                (base_score, measurement_sigma, damage_probability, damage_min, damage_span),
                (merge_every_ticks, defect_quantile, min_criteria_samples, repair_ticks),
                (target_utilization, max_pending_jobs),
            )| FleetdConfig {
                nodes,
                shards,
                ticks,
                tick_hours,
                seed,
                threads: 1,
                base_mtbi_hours,
                wear_factor,
                wear_cap,
                frailty_sigma,
                horizon_hours,
                risk_threshold,
                cooldown_ticks,
                validations_per_tick,
                base_score,
                measurement_sigma,
                damage_probability,
                damage_min,
                damage_max: damage_min + damage_span,
                merge_every_ticks,
                defect_quantile,
                min_criteria_samples,
                repair_ticks,
                target_utilization,
                max_pending_jobs,
            },
        )
}

/// A tiny fleet, or one with a single float knob set to an odd float.
fn config() -> impl Strategy<Value = FleetdConfig> {
    let odd = (
        tiny_fleet(),
        0..FLOAT_FIELDS.len(),
        prop::sample::select(ODD_FLOATS.to_vec()),
    )
        .prop_map(|(mut cfg, field, value)| {
            FLOAT_FIELDS[field](&mut cfg, value);
            cfg
        });
    prop_oneof![tiny_fleet(), odd]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_config_is_rejected_with_a_typed_error_or_runs_conserving_nodes(cfg in config()) {
        if let Err(error) = cfg.validate() {
            prop_assert!(!error.to_string().is_empty());
            return Ok(());
        }
        let nodes = cfg.nodes as usize;
        let mut fleet = Coordinator::new(cfg.clone());
        for _ in 0..cfg.ticks {
            let tick = fleet.step();
            prop_assert_eq!(tick.counts.total(), nodes, "tick {}", tick.tick);
        }
        prop_assert_eq!(fleet.totals().final_counts.total(), nodes);
    }
}
