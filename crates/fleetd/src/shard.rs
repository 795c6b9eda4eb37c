//! Per-shard validation workers.
//!
//! A [`ShardWorker`] owns everything about its contiguous node range
//! that the coordinator does not need for decisions: the streaming
//! incident source, per-node status covariates, hidden degradation, the
//! per-node benchmark-noise RNGs, and the shard's [`EcdfSketch`] of
//! validation scores. Each tick the worker runs the Validator/Selector
//! loop over its range — ingest incidents, score incident risk against
//! the horizon, execute the validations the coordinator scheduled — and
//! emits *proposals* ([`anubis_lifecycle::LifecycleEvent`]s per node)
//! instead of mutating lifecycle state itself: the coordinator owns the
//! [`anubis_lifecycle::LifecycleTable`] and applies proposals in fixed
//! shard order. That split (workers own data movement, the primary owns
//! decisions) is what keeps the whole service byte-reproducible.
//!
//! [`ShardWorker::tick`] is registered **arena-clean** with the A008
//! pass: its per-tick scratch comes from the shard's `anubis-arena` pool
//! and its persistent output buffers, never from direct allocation.

use crate::config::FleetdConfig;
use anubis_arena::Arena;
use anubis_hwsim::NoiseModel;
use anubis_lifecycle::{LifecycleEvent, NodeState};
use anubis_metrics::EcdfSketch;
use anubis_selector::NodeStatus;
use anubis_traces::{node_stream_seed, IncidentEvent, ShardIncidentSource};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;

/// What one shard observed and proposes for one tick. The coordinator
/// reads it after the parallel shard phase; buffers persist across ticks
/// so the steady-state loop allocates nothing.
#[derive(Debug, Default, Clone)]
pub struct ShardReport {
    /// Proposed lifecycle events, in ascending node order (at most one
    /// risk/verdict proposal per node, incidents first).
    pub proposals: Vec<(u32, LifecycleEvent)>,
    /// Incidents ingested this tick.
    pub incidents: usize,
    /// Benchmark samples appended to the shard sketch this tick.
    pub samples: usize,
    /// Nodes the shard loop visited this tick.
    pub node_ticks: usize,
}

impl ShardReport {
    /// Clears the report for the next tick, keeping buffer capacity.
    fn reset(&mut self) {
        self.proposals.clear();
        self.incidents = 0;
        self.samples = 0;
        self.node_ticks = 0;
    }
}

/// One shard's worker state (see the module docs).
#[derive(Debug)]
pub struct ShardWorker {
    lo: u32,
    hi: u32,
    incidents: ShardIncidentSource,
    statuses: Vec<NodeStatus>,
    degradation: Vec<f64>,
    noise_rngs: Vec<ChaCha8Rng>,
    cooldown_until: Vec<u32>,
    sketch: EcdfSketch,
    noise: NoiseModel,
    events_pool: Arena<Vec<IncidentEvent>>,
    report: ShardReport,
    // Copied risk-model parameters (the shard never sees the full config
    // after construction).
    base_mtbi_hours: f64,
    wear_factor: f64,
    wear_cap: u32,
    damage_probability: f64,
    damage_min: f64,
    damage_max: f64,
    base_score: f64,
}

impl Clone for ShardWorker {
    /// Clones the full worker state with a *fresh* (empty) scratch pool —
    /// pooled buffers are reusable capacity, not state, so the clone is
    /// behaviorally identical.
    fn clone(&self) -> Self {
        Self {
            lo: self.lo,
            hi: self.hi,
            incidents: self.incidents.clone(),
            statuses: self.statuses.clone(),
            degradation: self.degradation.clone(),
            noise_rngs: self.noise_rngs.clone(),
            cooldown_until: self.cooldown_until.clone(),
            sketch: self.sketch.clone(),
            noise: self.noise,
            events_pool: Arena::new(),
            report: self.report.clone(),
            base_mtbi_hours: self.base_mtbi_hours,
            wear_factor: self.wear_factor,
            wear_cap: self.wear_cap,
            damage_probability: self.damage_probability,
            damage_min: self.damage_min,
            damage_max: self.damage_max,
            base_score: self.base_score,
        }
    }
}

/// Immutable per-tick inputs broadcast to every shard.
#[derive(Debug, Clone, Copy)]
pub struct TickContext {
    /// Tick index.
    pub tick: u32,
    /// Window start, virtual hours.
    pub t0: f64,
    /// Window end, virtual hours (events with `start_hour < t1` are
    /// ingested this tick).
    pub t1: f64,
    /// Risk horizon in hours.
    pub horizon_hours: f64,
    /// Incident probability over the horizon that flags a node suspect.
    pub risk_threshold: f64,
    /// Current fleet defect criteria (score floor), `None` during
    /// build-out.
    pub criteria_threshold: Option<f64>,
    /// Re-flag exemption after a passed validation or repair, in ticks.
    pub cooldown_ticks: u32,
}

impl ShardWorker {
    /// Creates the worker for one contiguous node range.
    pub fn new(config: &FleetdConfig, range: Range<u32>) -> Self {
        let stream = config.incident_stream();
        let n = range.len();
        let mut noise_rngs = Vec::with_capacity(n);
        for node in range.clone() {
            noise_rngs.push(ChaCha8Rng::seed_from_u64(node_stream_seed(
                config.seed,
                node,
                1,
            )));
        }
        Self {
            lo: range.start,
            hi: range.end,
            incidents: ShardIncidentSource::new(&stream, range),
            statuses: vec![NodeStatus::fresh(); n],
            degradation: vec![0.0; n],
            noise_rngs,
            cooldown_until: vec![0; n],
            sketch: EcdfSketch::new(),
            noise: NoiseModel::new(config.measurement_sigma),
            events_pool: Arena::new(),
            report: ShardReport::default(),
            base_mtbi_hours: config.base_mtbi_hours.max(1e-9),
            wear_factor: config.wear_factor,
            wear_cap: config.wear_cap,
            damage_probability: config.damage_probability,
            damage_min: config.damage_min,
            damage_max: config.damage_max,
            base_score: config.base_score,
        }
    }

    /// The node range this shard owns.
    pub fn range(&self) -> Range<u32> {
        self.lo..self.hi
    }

    /// Last tick's report.
    pub fn report(&self) -> &ShardReport {
        &self.report
    }

    /// The shard's cumulative validation-score sketch.
    pub fn sketch(&self) -> &EcdfSketch {
        &self.sketch
    }

    /// A node's current hidden degradation (test/diagnostic surface).
    pub fn degradation_of(&self, node: u32) -> f64 {
        node.checked_sub(self.lo)
            .and_then(|i| self.degradation.get(i as usize))
            .copied()
            .unwrap_or(0.0)
    }

    /// The observable incident probability of a node over `horizon`
    /// hours, from its recorded status covariates (the per-shard Selector
    /// scoring rule: wear-accelerated exponential hazard).
    fn risk(&self, index: usize, horizon: f64) -> f64 {
        let k = self.statuses[index].incident_count.min(self.wear_cap);
        let rate = self.wear_factor.powi(k as i32) / self.base_mtbi_hours;
        1.0 - (-rate * horizon).exp()
    }

    /// Runs one tick of the shard loop. `states` is the global lifecycle
    /// snapshot (indexed by node), `repaired` the globally-sorted list of
    /// nodes whose repair completed at the start of this tick.
    ///
    /// Registered arena-clean (A008): per-tick scratch comes from the
    /// shard's pool, outputs go to persistent buffers.
    pub fn tick(&mut self, ctx: &TickContext, states: &[NodeState], repaired: &[u32]) {
        self.report.reset();
        let first = repaired.partition_point(|&n| n < self.lo);
        let last = repaired.partition_point(|&n| n < self.hi);
        for &node in &repaired[first..last] {
            let i = (node - self.lo) as usize;
            self.degradation[i] = 0.0;
            self.statuses[i] = NodeStatus::fresh();
            self.cooldown_until[i] = ctx.tick.saturating_add(ctx.cooldown_ticks);
            self.incidents.reset_wear(node);
        }

        let mut events = self.events_pool.scope();
        for node in self.lo..self.hi {
            let i = (node - self.lo) as usize;
            self.report.node_ticks += 1;
            events.clear();
            self.incidents.poll_node(node, ctx.t1, &mut events);
            let state = states[node as usize];
            for event in &*events {
                self.statuses[i].record_incident(event.category);
                if self.noise_rngs[i].random::<f64>() < self.damage_probability {
                    let damage = self.noise_rngs[i].random_range(self.damage_min..self.damage_max);
                    self.degradation[i] = (self.degradation[i] + damage).min(0.9);
                }
            }
            self.report.incidents += events.len();
            if state.in_service() {
                self.statuses[i].advance(ctx.t1 - ctx.t0);
            }
            // An incident under stress (serving a job or mid-validation)
            // confirms the defect outright.
            if !events.is_empty() && (state.is_busy() || state.is_validating()) {
                self.report
                    .proposals
                    .push((node, LifecycleEvent::IncidentObserved));
                continue;
            }
            if state.is_validating() {
                // Run the scheduled benchmark: nominal score shaved by
                // hidden degradation, under measurement noise.
                let factor = self.noise.factor(&mut self.noise_rngs[i]);
                let score = self.base_score * (1.0 - self.degradation[i]) * factor;
                self.sketch.append(score);
                self.report.samples += 1;
                let defective = ctx
                    .criteria_threshold
                    .is_some_and(|threshold| score < threshold);
                if defective {
                    self.report
                        .proposals
                        .push((node, LifecycleEvent::DefectConfirmed));
                } else {
                    self.cooldown_until[i] = ctx.tick.saturating_add(ctx.cooldown_ticks);
                    self.report
                        .proposals
                        .push((node, LifecycleEvent::ValidationPassed));
                }
                continue;
            }
            if state.is_healthy()
                && ctx.tick >= self.cooldown_until[i]
                && self.risk(i, ctx.horizon_hours) > ctx.risk_threshold
            {
                self.report
                    .proposals
                    .push((node, LifecycleEvent::RiskCrossed));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anubis_lifecycle::LifecycleTable;

    fn worker(nodes: u32) -> (FleetdConfig, ShardWorker) {
        let config = FleetdConfig {
            nodes,
            base_mtbi_hours: 30.0,
            ..FleetdConfig::default()
        };
        let shard = ShardWorker::new(&config, 0..nodes);
        (config, shard)
    }

    fn ctx(tick: u32, hours: f64) -> TickContext {
        TickContext {
            tick,
            t0: f64::from(tick) * hours,
            t1: f64::from(tick + 1) * hours,
            horizon_hours: 24.0,
            risk_threshold: 0.25,
            criteria_threshold: None,
            cooldown_ticks: 4,
        }
    }

    #[test]
    fn incidents_accumulate_and_risk_flags_suspects() {
        let (_, mut shard) = worker(32);
        let table = LifecycleTable::new(32);
        let mut incidents = 0;
        let mut flagged = 0;
        for t in 0..60 {
            shard.tick(&ctx(t, 4.0), table.states(), &[]);
            incidents += shard.report().incidents;
            flagged += shard
                .report()
                .proposals
                .iter()
                .filter(|(_, e)| *e == LifecycleEvent::RiskCrossed)
                .count();
        }
        assert!(incidents > 0, "stressed MTBI must produce incidents");
        assert!(
            flagged > 0,
            "accumulated wear must cross the risk threshold"
        );
    }

    #[test]
    fn validating_nodes_produce_samples_and_verdicts() {
        let (_, mut shard) = worker(8);
        let mut table = LifecycleTable::new(8);
        for node in 0..8 {
            assert!(table.apply_if_legal(node, LifecycleEvent::RiskCrossed));
            assert!(table.apply_if_legal(node, LifecycleEvent::ValidationStarted));
        }
        let context = TickContext {
            criteria_threshold: Some(0.0), // everything passes
            ..ctx(0, 1.0)
        };
        shard.tick(&context, table.states(), &[]);
        let verdicts = shard
            .report()
            .proposals
            .iter()
            .filter(|(_, e)| {
                matches!(
                    e,
                    LifecycleEvent::ValidationPassed
                        | LifecycleEvent::DefectConfirmed
                        | LifecycleEvent::IncidentObserved
                )
            })
            .count();
        assert_eq!(verdicts, 8, "every validating node must get a verdict");
        assert_eq!(
            shard.report().samples
                + shard
                    .report()
                    .proposals
                    .iter()
                    .filter(|(_, e)| *e == LifecycleEvent::IncidentObserved)
                    .count(),
            8,
            "every non-incident validation must append a sample"
        );
        assert!(!shard.sketch().is_empty());
    }

    #[test]
    fn repair_directive_rejuvenates_the_node() {
        let (_, mut shard) = worker(4);
        let table = LifecycleTable::new(4);
        // Accumulate wear.
        for t in 0..40 {
            shard.tick(&ctx(t, 6.0), table.states(), &[]);
        }
        let worn: u32 = shard.statuses.iter().map(|s| s.incident_count).sum();
        assert!(worn > 0, "40 stressed ticks must produce incidents");
        // Zero-width window: the repair directive applies, no new events.
        let context = TickContext {
            t1: 240.0,
            ..ctx(40, 6.0)
        };
        shard.tick(&context, table.states(), &[1]);
        assert_eq!(shard.degradation_of(1), 0.0);
        assert_eq!(
            shard.statuses[1].incident_count, 0,
            "repair must reset the status covariates"
        );
    }
}
