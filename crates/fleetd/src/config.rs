//! Configuration of the fleetd control plane.

use anubis_traces::{AllocationConfig, IncidentStreamConfig};
use std::fmt;

/// All knobs of a fleetd run. Every field is deterministic input: two
/// runs with equal configs produce byte-identical summaries and tick
/// traces at any `threads` value and any shard count.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetdConfig {
    /// Fleet size in nodes.
    pub nodes: u32,
    /// Worker shard count; shard `s` owns a contiguous node range (see
    /// `anubis_traces::shard_ranges`). Results never depend on it.
    pub shards: u32,
    /// Ticks to run.
    pub ticks: u32,
    /// Virtual hours per tick.
    pub tick_hours: f64,
    /// Fleet seed; every stream (per-node incidents, per-node benchmark
    /// noise, job arrivals) derives from it.
    pub seed: u64,
    /// Worker threads for the shard phase (`0` = `ANUBIS_THREADS` /
    /// hardware default). Results never depend on it.
    pub threads: usize,

    /// Mean time to a fresh node's first incident, in hours. The default
    /// is stress-compressed relative to the paper's 719.4 h so a
    /// 500-tick service run exercises the whole lifecycle loop.
    pub base_mtbi_hours: f64,
    /// Hazard growth per accumulated incident.
    pub wear_factor: f64,
    /// Accumulated-incident count beyond which the hazard stops growing.
    pub wear_cap: u32,
    /// Log-scale spread of per-node frailty (lemon nodes).
    pub frailty_sigma: f64,

    /// Risk horizon the per-shard Selector loop scores against, in
    /// hours.
    pub horizon_hours: f64,
    /// Incident probability over the horizon above which a healthy node
    /// is flagged suspect.
    pub risk_threshold: f64,
    /// Ticks a node is exempt from re-flagging after passing validation
    /// or returning from repair.
    pub cooldown_ticks: u32,
    /// Global cap on validations started per tick (`0` = auto:
    /// `max(8, nodes / 64)`).
    pub validations_per_tick: u32,

    /// Nominal benchmark score of an undamaged node.
    pub base_score: f64,
    /// Relative measurement noise of one benchmark run.
    pub measurement_sigma: f64,
    /// Probability an incident leaves permanent hidden degradation.
    pub damage_probability: f64,
    /// Smallest degradation fraction an incident can leave.
    pub damage_min: f64,
    /// Largest degradation fraction an incident can leave.
    pub damage_max: f64,

    /// Shard-sketch merge / criteria-refresh period, in ticks.
    pub merge_every_ticks: u32,
    /// Defect criteria quantile: a validation score below this quantile
    /// of the merged fleet distribution confirms a defect.
    pub defect_quantile: f64,
    /// Fleet samples required before criteria are applied (build-out
    /// phase passes everything). `0` counts as 1: a quantile needs a
    /// sample.
    pub min_criteria_samples: usize,

    /// Ticks a quarantined node spends in repair.
    pub repair_ticks: u32,
    /// Target fraction of fleet capacity consumed by jobs.
    pub target_utilization: f64,
    /// Pending-job queue cap; arrivals beyond it are dropped (counted).
    pub max_pending_jobs: usize,
}

impl Default for FleetdConfig {
    fn default() -> Self {
        Self {
            nodes: 2000,
            shards: 8,
            ticks: 50,
            tick_hours: 1.0,
            seed: 42,
            threads: 0,
            base_mtbi_hours: 150.0,
            wear_factor: 1.3,
            wear_cap: 12,
            frailty_sigma: 0.8,
            horizon_hours: 24.0,
            risk_threshold: 0.25,
            cooldown_ticks: 24,
            validations_per_tick: 0,
            base_score: 100.0,
            measurement_sigma: 0.03,
            damage_probability: 0.35,
            damage_min: 0.05,
            damage_max: 0.25,
            merge_every_ticks: 10,
            defect_quantile: 0.05,
            min_criteria_samples: 64,
            repair_ticks: 12,
            target_utilization: 0.9,
            max_pending_jobs: 100_000,
        }
    }
}

/// A [`FleetdConfig`] the service cannot run, one variant per kind of
/// rule [`FleetdConfig::validate`] checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `nodes` is zero.
    NoNodes,
    /// `shards` is zero.
    NoShards,
    /// A float knob is outside its domain (NaN is outside every
    /// domain). A zero or NaN `base_mtbi_hours`, for instance, would make
    /// every node's hazard about 10⁹ incidents per hour, and a non-finite
    /// `base_score` would put a non-number in the criteria sketch.
    OutOfDomain {
        /// The field, named as in [`FleetdConfig`].
        field: &'static str,
        /// The configured value.
        value: f64,
        /// The domain it must lie in, e.g. `"finite and above 0"`.
        domain: &'static str,
    },
    /// `damage_min` is not below `damage_max`, so an incident has no
    /// degradation range to sample from.
    EmptyDamageRange {
        /// The configured `damage_min`.
        min: f64,
        /// The configured `damage_max`.
        max: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoNodes => write!(f, "nodes must be at least 1"),
            ConfigError::NoShards => write!(f, "shards must be at least 1"),
            ConfigError::OutOfDomain {
                field,
                value,
                domain,
            } => write!(f, "{field} must be {domain}, got {value}"),
            ConfigError::EmptyDamageRange { min, max } => {
                write!(f, "damage_min ({min}) must be below damage_max ({max})")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// `Ok` when `holds`, else [`ConfigError::OutOfDomain`].
fn in_domain(
    field: &'static str,
    value: f64,
    holds: bool,
    domain: &'static str,
) -> Result<(), ConfigError> {
    if holds {
        Ok(())
    } else {
        Err(ConfigError::OutOfDomain {
            field,
            value,
            domain,
        })
    }
}

fn positive(field: &'static str, value: f64) -> Result<(), ConfigError> {
    in_domain(
        field,
        value,
        value.is_finite() && value > 0.0,
        "finite and above 0",
    )
}

fn non_negative(field: &'static str, value: f64) -> Result<(), ConfigError> {
    in_domain(
        field,
        value,
        value.is_finite() && value >= 0.0,
        "finite and at least 0",
    )
}

fn fraction(field: &'static str, value: f64) -> Result<(), ConfigError> {
    in_domain(
        field,
        value,
        (0.0..=1.0).contains(&value),
        "between 0 and 1",
    )
}

impl FleetdConfig {
    /// Checks the rules a runnable config must meet. [`crate::Coordinator::new`]
    /// does not call it (it clamps `shards` instead), so front ends
    /// validate first.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::NoNodes);
        }
        if self.shards == 0 {
            return Err(ConfigError::NoShards);
        }
        positive("tick_hours", self.tick_hours)?;
        positive("base_mtbi_hours", self.base_mtbi_hours)?;
        positive("wear_factor", self.wear_factor)?;
        non_negative("frailty_sigma", self.frailty_sigma)?;
        positive("base_score", self.base_score)?;
        non_negative("measurement_sigma", self.measurement_sigma)?;
        fraction("damage_min", self.damage_min)?;
        fraction("damage_max", self.damage_max)?;
        non_negative("target_utilization", self.target_utilization)?;
        if self.damage_min >= self.damage_max {
            return Err(ConfigError::EmptyDamageRange {
                min: self.damage_min,
                max: self.damage_max,
            });
        }
        Ok(())
    }

    /// The resolved validations-per-tick cap.
    pub fn validation_cap(&self) -> u32 {
        if self.validations_per_tick == 0 {
            (self.nodes / 64).max(8)
        } else {
            self.validations_per_tick
        }
    }

    /// The per-node incident-stream parameters.
    pub fn incident_stream(&self) -> IncidentStreamConfig {
        IncidentStreamConfig {
            base_mtbi_hours: self.base_mtbi_hours,
            wear_factor: self.wear_factor,
            wear_cap: self.wear_cap,
            frailty_sigma: self.frailty_sigma,
            seed: self.seed,
        }
    }

    /// The coordinator-side job-arrival parameters: Poisson arrivals
    /// sized so steady-state demand is `target_utilization` of fleet
    /// capacity under the default size/duration mix.
    pub fn allocation(&self) -> AllocationConfig {
        let mut cfg = AllocationConfig::stressed(self.nodes.max(1));
        // Mean job ≈ 3.89 nodes × ~34 h under the stressed mix; retarget
        // the arrival rate at the requested utilization.
        let node_hours_per_job = 3.89 * 34.0;
        let capacity_per_hour = f64::from(self.nodes.max(1));
        cfg.mean_interarrival_hours =
            node_hours_per_job / (self.target_utilization.max(1e-3) * capacity_per_hour);
        cfg.seed = self.seed ^ 0x5eed_a110_c000_0001;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(FleetdConfig::default().validate(), Ok(()));
    }

    #[test]
    fn zero_nodes_is_rejected() {
        let cfg = FleetdConfig {
            nodes: 0,
            ..FleetdConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::NoNodes));
    }

    #[test]
    fn zero_shards_is_rejected() {
        let cfg = FleetdConfig {
            shards: 0,
            ..FleetdConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::NoShards));
    }

    /// Asserts that `cfg` is rejected with exactly
    /// `OutOfDomain { field, value, domain }`. A NaN `value` is matched
    /// with `is_nan`, since NaN never equals itself.
    fn assert_out_of_domain(cfg: &FleetdConfig, field: &str, value: f64, domain: &str) {
        let got = cfg.validate();
        let exact = match got {
            Err(ConfigError::OutOfDomain {
                field: f,
                value: v,
                domain: d,
            }) => f == field && d == domain && (v == value || v.is_nan() && value.is_nan()),
            _ => false,
        };
        assert!(exact, "{field} = {value}: {got:?}");
    }

    #[test]
    fn non_positive_or_non_finite_tick_hours_is_rejected() {
        for hours in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            let cfg = FleetdConfig {
                tick_hours: hours,
                ..FleetdConfig::default()
            };
            assert_out_of_domain(&cfg, "tick_hours", hours, "finite and above 0");
        }
        assert_eq!(
            FleetdConfig {
                tick_hours: -1.0,
                ..FleetdConfig::default()
            }
            .validate()
            .map_err(|e| e.to_string()),
            Err("tick_hours must be finite and above 0, got -1".to_owned())
        );
    }

    #[test]
    fn non_positive_or_nan_base_mtbi_is_rejected() {
        for hours in [0.0, -0.0, -150.0, f64::INFINITY, f64::NAN] {
            let cfg = FleetdConfig {
                base_mtbi_hours: hours,
                ..FleetdConfig::default()
            };
            assert_out_of_domain(&cfg, "base_mtbi_hours", hours, "finite and above 0");
        }
        assert_eq!(
            FleetdConfig {
                base_mtbi_hours: 0.0,
                ..FleetdConfig::default()
            }
            .validate()
            .map_err(|e| e.to_string()),
            Err("base_mtbi_hours must be finite and above 0, got 0".to_owned())
        );
    }

    #[test]
    fn float_knobs_outside_their_domain_are_rejected() {
        type Set = fn(&mut FleetdConfig, f64);
        const POSITIVE: &str = "finite and above 0";
        const NON_NEGATIVE: &str = "finite and at least 0";
        const FRACTION: &str = "between 0 and 1";
        let cases: [(&str, &str, Set, &[f64]); 7] = [
            (
                "wear_factor",
                POSITIVE,
                |c, v| c.wear_factor = v,
                &[0.0, -1.3, f64::INFINITY],
            ),
            (
                "frailty_sigma",
                NON_NEGATIVE,
                |c, v| c.frailty_sigma = v,
                &[-0.8, f64::NAN],
            ),
            (
                "base_score",
                POSITIVE,
                |c, v| c.base_score = v,
                &[0.0, f64::NEG_INFINITY],
            ),
            (
                "measurement_sigma",
                NON_NEGATIVE,
                |c, v| c.measurement_sigma = v,
                &[-0.1, f64::INFINITY],
            ),
            (
                "damage_min",
                FRACTION,
                |c, v| c.damage_min = v,
                &[-0.1, f64::NEG_INFINITY],
            ),
            (
                "damage_max",
                FRACTION,
                |c, v| c.damage_max = v,
                &[1.5, f64::NAN],
            ),
            (
                "target_utilization",
                NON_NEGATIVE,
                |c, v| c.target_utilization = v,
                &[-0.9, f64::INFINITY],
            ),
        ];
        for (field, domain, set, values) in cases {
            for &value in values {
                let mut cfg = FleetdConfig::default();
                set(&mut cfg, value);
                assert_out_of_domain(&cfg, field, value, domain);
            }
        }
        // Zero spread, zero noise and zero utilization are legal:
        // identical nodes, exact benchmarks, no jobs.
        let zero = FleetdConfig {
            frailty_sigma: 0.0,
            measurement_sigma: 0.0,
            target_utilization: 0.0,
            ..FleetdConfig::default()
        };
        assert_eq!(zero.validate(), Ok(()));
    }

    #[test]
    fn empty_damage_range_is_rejected() {
        let cfg = FleetdConfig {
            damage_min: 0.25,
            damage_max: 0.25,
            ..FleetdConfig::default()
        };
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::EmptyDamageRange {
                min: 0.25,
                max: 0.25
            })
        );
        assert_eq!(
            cfg.validate().map_err(|e| e.to_string()),
            Err("damage_min (0.25) must be below damage_max (0.25)".to_owned())
        );
    }
}
