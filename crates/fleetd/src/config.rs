//! Configuration of the fleetd control plane.

use anubis_traces::{AllocationConfig, IncidentStreamConfig};
use std::cmp::Ordering;
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
    /// phase passes everything).
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

/// A [`FleetdConfig`] the service cannot run, one variant per rule
/// [`FleetdConfig::validate`] checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `nodes` is zero.
    NoNodes,
    /// `shards` is zero.
    NoShards,
    /// `tick_hours` is not a finite number above zero.
    TickHours(f64),
    /// `base_mtbi_hours` is not a finite number above zero. Zero or NaN
    /// would make every node's hazard about 10⁹ incidents per hour.
    BaseMtbiHours(f64),
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
            ConfigError::TickHours(hours) => {
                write!(f, "tick_hours must be finite and above 0, got {hours}")
            }
            ConfigError::BaseMtbiHours(hours) => {
                write!(f, "base_mtbi_hours must be finite and above 0, got {hours}")
            }
            ConfigError::EmptyDamageRange { min, max } => {
                write!(f, "damage_min ({min}) must be below damage_max ({max})")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

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
        if !self.tick_hours.is_finite() || self.tick_hours <= 0.0 {
            return Err(ConfigError::TickHours(self.tick_hours));
        }
        if !self.base_mtbi_hours.is_finite() || self.base_mtbi_hours <= 0.0 {
            return Err(ConfigError::BaseMtbiHours(self.base_mtbi_hours));
        }
        // `partial_cmp` rejects a NaN bound along with an empty range.
        if self.damage_min.partial_cmp(&self.damage_max) != Some(Ordering::Less) {
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

    #[test]
    fn non_positive_or_non_finite_tick_hours_is_rejected() {
        for hours in [0.0, -1.0, f64::INFINITY] {
            let cfg = FleetdConfig {
                tick_hours: hours,
                ..FleetdConfig::default()
            };
            assert_eq!(cfg.validate(), Err(ConfigError::TickHours(hours)));
        }
        let nan = FleetdConfig {
            tick_hours: f64::NAN,
            ..FleetdConfig::default()
        };
        assert!(matches!(nan.validate(), Err(ConfigError::TickHours(h)) if h.is_nan()));
    }

    #[test]
    fn non_positive_or_nan_base_mtbi_is_rejected() {
        for hours in [0.0, -0.0, -150.0, f64::INFINITY] {
            let cfg = FleetdConfig {
                base_mtbi_hours: hours,
                ..FleetdConfig::default()
            };
            assert_eq!(cfg.validate(), Err(ConfigError::BaseMtbiHours(hours)));
        }
        let nan = FleetdConfig {
            base_mtbi_hours: f64::NAN,
            ..FleetdConfig::default()
        };
        assert!(matches!(nan.validate(), Err(ConfigError::BaseMtbiHours(h)) if h.is_nan()));
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
