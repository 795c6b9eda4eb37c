//! Per-shard validation workers.
//!
//! A [`ShardWorker`] owns everything about its contiguous node range
//! that the coordinator does not need for decisions: the streaming
//! incident source (which also keeps each node's wear, its incidents
//! since the last repair), hidden degradation, the per-node
//! benchmark-noise RNGs, and the shard's [`EcdfSketch`] of validation
//! scores. Each tick the worker runs the Validator/Selector loop over its
//! range — ingest incidents, score incident risk against the horizon,
//! execute the validations the coordinator scheduled — and emits
//! *proposals* ([`anubis_lifecycle::LifecycleEvent`]s per node) instead
//! of mutating lifecycle state itself: the coordinator owns the
//! [`anubis_lifecycle::LifecycleTable`] and applies proposals in fixed
//! shard order. That split (workers own data movement, the primary owns
//! decisions) is what keeps the whole service byte-reproducible.
//!
//! [`ShardWorker::tick`] takes its per-tick scratch from the shard's
//! `anubis-arena` pool and writes into persistent output buffers, so a
//! tick over healthy nodes allocates nothing. Validation allocates only
//! when a sample makes [`EcdfSketch::append`] fill a sketch level for the
//! first time. The root `tests/alloc_counts.rs` pins both counts.
//!
//! A tick does per-node work only for the few nodes that have some, a
//! few percent of its range. An *attention pass* first reads four dense
//! per-node arrays (the next-incident hours, the lifecycle states, the
//! cooldowns and the wear) and lists, in ascending order, every node
//! that has an incident due, is validating, or is healthy, past its
//! cooldown and over the risk threshold. The per-node body then runs on
//! that list alone. The list is exact: for any other node the body would
//! poll nothing, draw nothing and propose nothing, and processing a node
//! reads and writes only that node's entries. Every draw, sketch append
//! and proposal happens in the same order as in a visit of every node.
//!
//! Per node the shard holds 196 bytes: the 16 that the attention pass
//! reads (next-incident hour, wear and cooldown; the lifecycle state is
//! the coordinator's byte), 8 of hidden degradation, 4 of attention-list
//! capacity, and 168 of cold state. The cold state is the incident
//! stream (an 80-byte [`NodeRng`] and an 8-byte frailty) and the 80-byte
//! noise stream; a [`NodeRng`] keeps no key and rebuilds it from the
//! node's stream seed at each 16-word refill. A listed node's cold state
//! misses the cache, so the body prefetches it `LOOKAHEAD` list entries
//! ahead.

use crate::config::FleetdConfig;
use anubis_arena::Arena;
use anubis_hwsim::NoiseModel;
use anubis_lifecycle::{LifecycleEvent, NodeState};
use anubis_metrics::EcdfSketch;
use anubis_traces::{node_stream_seed, prefetch, IncidentEvent, NodeRng, ShardIncidentSource};
use rand::Rng;
use std::ops::Range;

/// How many entries of its attention list ahead of the node it is
/// visiting [`ShardWorker::tick`] prefetches cold per-node state.
/// Measured while the tick still visited every node and the cold state
/// was 280 bytes a node (two `ChaCha8Rng`s), on a 2-vCPU Xeon host: the
/// serial shard phase of a 100k-node, 16-shard, 500-tick run took
/// 1.41–1.48 s without the prefetch and 0.94–1.16 s with it 32 nodes
/// ahead; distances 8 and 96 measured the same (1.04–1.16 s). The cold
/// state is now 168 bytes a node, the incident stream's 88 and the noise
/// stream's 80; the distance was not measured again. A shard's first
/// listed nodes go unprefetched, which changes only speed.
const LOOKAHEAD: usize = 32;

/// What one shard observed and proposes for one tick. The coordinator
/// reads it after the parallel shard phase; buffers persist across ticks,
/// so reporting allocates only while they grow.
#[derive(Debug, Default, Clone)]
pub struct ShardReport {
    /// Proposed lifecycle events, in ascending node order (at most one
    /// risk/verdict proposal per node, incidents first).
    pub proposals: Vec<(u32, LifecycleEvent)>,
    /// Incidents ingested this tick.
    pub incidents: usize,
    /// Benchmark samples appended to the shard sketch this tick.
    pub samples: usize,
    /// Nodes the shard owns, each ticked once this tick.
    pub node_ticks: usize,
    /// Nodes on this tick's attention list, the ones the per-node body
    /// ran for (see the module docs).
    pub nodes_visited: usize,
}

impl ShardReport {
    /// Clears the report for the next tick, keeping buffer capacity.
    fn reset(&mut self) {
        self.proposals.clear();
        self.incidents = 0;
        self.samples = 0;
        self.node_ticks = 0;
        self.nodes_visited = 0;
    }
}

/// One shard's worker state (see the module docs).
#[derive(Debug)]
pub struct ShardWorker {
    lo: u32,
    hi: u32,
    incidents: ShardIncidentSource,
    degradation: Vec<f64>,
    noise_rngs: Vec<NodeRng>,
    cooldown_until: Vec<u32>,
    sketch: EcdfSketch,
    noise: NoiseModel,
    events_pool: Arena<Vec<IncidentEvent>>,
    report: ShardReport,
    risk: WearRisk,
    /// This tick's attention list: ascending offsets of the nodes with
    /// work. Sized to the range up front, so building it never allocates.
    attention: Vec<u32>,
    // Copied damage and score parameters (the shard never sees the full
    // config after construction).
    damage_probability: f64,
    damage_min: f64,
    damage_max: f64,
    base_score: f64,
}

impl Clone for ShardWorker {
    /// Clones the full worker state with a *fresh* (empty) scratch pool
    /// and attention list — per-tick buffers are reusable capacity, not
    /// state, so the clone is behaviorally identical.
    fn clone(&self) -> Self {
        Self {
            lo: self.lo,
            hi: self.hi,
            incidents: self.incidents.clone(),
            degradation: self.degradation.clone(),
            noise_rngs: self.noise_rngs.clone(),
            cooldown_until: self.cooldown_until.clone(),
            sketch: self.sketch.clone(),
            noise: self.noise,
            events_pool: Arena::new(),
            report: self.report.clone(),
            risk: self.risk.clone(),
            attention: Vec::with_capacity(self.attention.capacity()),
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
        let noise_rngs = range
            .clone()
            .map(|node| NodeRng::new(node_stream_seed(config.seed, node, 1)))
            .collect();
        Self {
            lo: range.start,
            hi: range.end,
            incidents: ShardIncidentSource::new(&stream, range),
            degradation: vec![0.0; n],
            noise_rngs,
            cooldown_until: vec![0; n],
            sketch: EcdfSketch::new(),
            noise: NoiseModel::new(config.measurement_sigma),
            events_pool: Arena::new(),
            report: ShardReport::default(),
            risk: WearRisk::new(config),
            attention: Vec::with_capacity(n),
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

    /// Runs one tick of the shard loop. `states` is the global lifecycle
    /// snapshot (indexed by node), `repaired` the globally-sorted list of
    /// nodes whose repair completed at the start of this tick.
    ///
    /// Per-tick scratch comes from the shard's pool and outputs go to
    /// persistent buffers; a validation sample's sketch append allocates
    /// only when it fills a sketch level for the first time (pinned in the
    /// root `tests/alloc_counts.expected`).
    #[expect(
        clippy::indexing_slicing,
        reason = "shard offsets `node - lo` of the shard's own nodes index its per-node arrays, and `lo..hi` lies inside the global snapshot"
    )]
    pub fn tick(&mut self, ctx: &TickContext, states: &[NodeState], repaired: &[u32]) {
        self.report.reset();
        self.risk.crosses_by_wear.clear();
        let first = repaired.partition_point(|&n| n < self.lo);
        let last = repaired.partition_point(|&n| n < self.hi);
        for &node in &repaired[first..last] {
            let i = (node - self.lo) as usize;
            self.degradation[i] = 0.0;
            self.cooldown_until[i] = ctx.tick.saturating_add(ctx.cooldown_ticks);
            self.incidents.reset_wear(node);
        }
        self.report.node_ticks = (self.hi - self.lo) as usize;
        let states = &states[self.lo as usize..self.hi as usize];
        self.collect_attention(ctx, states);
        self.report.nodes_visited = self.attention.len();

        let mut events = self.events_pool.scope();
        for k in 0..self.attention.len() {
            if let Some(&ahead) = self.attention.get(k + LOOKAHEAD) {
                self.prefetch_cold_state(ahead as usize, ctx.t1, states);
            }
            let i = self.attention[k] as usize;
            let node = self.lo + i as u32;
            events.clear();
            if self.incidents.is_due(i, ctx.t1) {
                self.incidents.poll_node(node, ctx.t1, &mut events);
            }
            let state = states[i];
            let noise = &mut self.noise_rngs[i];
            for _ in &*events {
                if noise.random::<f64>() < self.damage_probability {
                    let damage = noise.random_range(self.damage_min..self.damage_max);
                    self.degradation[i] = (self.degradation[i] + damage).min(0.9);
                }
            }
            self.report.incidents += events.len();
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
                let factor = self.noise.factor(noise);
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
                && self.risk.crosses(self.incidents.wear()[i], ctx)
            {
                self.report
                    .proposals
                    .push((node, LifecycleEvent::RiskCrossed));
            }
        }
    }

    /// Fills `attention` with the ascending offsets of this tick's nodes
    /// with work: an incident due, a validation to run, or a healthy node
    /// past its cooldown whose wear crosses the risk threshold. `states`
    /// is the shard's own slice of the snapshot. Only a due node's wear
    /// changes during the tick, and a due node is listed anyway, so the
    /// risk test here agrees with the one the tick's body runs.
    ///
    /// The risk memo is filled first for every wear count up to the
    /// shard's largest. While it spans at most 64 counts (always under a
    /// wear cap below 64, the default 12 included), the risk test is a
    /// shift of one word instead of a table load, and the scan has no
    /// data-dependent branch or load. The table load alone is kept for
    /// larger caps only: on a 2-vCPU Xeon host, the attention pass of a
    /// 100k-node, 16-shard, 500-tick run at one thread took 0.054–0.078 s
    /// with the word and 0.14–0.26 s with the table load for every cap.
    #[expect(
        clippy::indexing_slicing,
        reason = "the memo covers every capped wear count up to the shard's largest, which bounds each node's wear"
    )]
    fn collect_attention(&mut self, ctx: &TickContext, states: &[NodeState]) {
        self.attention.clear();
        let wear_cap = self.risk.wear_cap;
        let memo = self.risk.crosses_up_to(self.incidents.max_wear(), ctx);
        let hot = (
            self.incidents.next_hours(),
            states,
            &self.cooldown_until[..],
            self.incidents.wear(),
        );
        if memo.len() <= 64 {
            let word = memo
                .iter()
                .rev()
                .fold(0u64, |word, &crosses| word << 1 | u64::from(crosses));
            scan_attention(hot, ctx, &mut self.attention, |wear| {
                (word >> wear.min(wear_cap).min(63)) & 1 != 0
            });
        } else {
            scan_attention(hot, ctx, &mut self.attention, |wear| {
                memo[wear.min(wear_cap) as usize]
            });
        }
    }

    /// Starts loading the cold per-node state that the tick will read
    /// when it reaches the node at offset `i`: its incident stream if an
    /// incident is due, and its noise RNG if it is due (damage draws) or
    /// validating (the benchmark's noise). `states` is the shard's own
    /// slice of the snapshot.
    fn prefetch_cold_state(&self, i: usize, t1: f64, states: &[NodeState]) {
        let due = self.incidents.is_due(i, t1);
        if due {
            self.incidents.prefetch(i);
        }
        let validating = || states.get(i).is_some_and(|state| state.is_validating());
        if let Some(rng) = self.noise_rngs.get(i).filter(|_| due || validating()) {
            prefetch(rng);
        }
    }
}

/// Appends to `attention` the ascending offsets of the nodes that have
/// an incident due, are validating, or are healthy, past their cooldown
/// and `crosses(wear)`, given the shard's `(next_hours, states,
/// cooldown_until, wear)` arrays. Each 64 nodes' tests become one bit
/// mask without a branch, and the mask's set bits are pushed in order.
fn scan_attention(
    (next_hours, states, cooldown_until, wear): (&[f64], &[NodeState], &[u32], &[u32]),
    ctx: &TickContext,
    attention: &mut Vec<u32>,
    crosses: impl Fn(u32) -> bool,
) {
    let chunks = next_hours
        .chunks(64)
        .zip(states.chunks(64))
        .zip(cooldown_until.chunks(64))
        .zip(wear.chunks(64));
    for (chunk, (((next_hours, states), cooldowns), wears)) in chunks.enumerate() {
        let mut mask = 0u64;
        let nodes = next_hours.iter().zip(states).zip(cooldowns).zip(wears);
        for (bit, (((&next_hour, &state), &cooldown_until), &wear)) in nodes.enumerate() {
            let due = next_hour < ctx.t1;
            let risky = state.is_healthy() & (ctx.tick >= cooldown_until) & crosses(wear);
            mask |= u64::from(due | state.is_validating() | risky) << bit;
        }
        let base = chunk as u32 * 64;
        while mask != 0 {
            attention.push(base + mask.trailing_zeros());
            mask &= mask - 1;
        }
    }
}

/// The per-shard Selector scoring rule, a wear-accelerated exponential
/// hazard, with a per-tick memo of its threshold test.
#[derive(Debug, Clone)]
struct WearRisk {
    base_mtbi_hours: f64,
    wear_factor: f64,
    wear_cap: u32,
    /// This tick's `risk(k) > risk_threshold` for each capped wear count
    /// `k` up to the shard's largest wear at the attention pass, or up to
    /// a larger count the tick's body asked for; [`ShardWorker::tick`]
    /// clears it.
    crosses_by_wear: Vec<bool>,
}

impl WearRisk {
    fn new(config: &FleetdConfig) -> Self {
        Self {
            base_mtbi_hours: config.base_mtbi_hours.max(1e-9),
            wear_factor: config.wear_factor,
            wear_cap: config.wear_cap,
            // Room for every count up to a small cap (the default 12
            // included), so a steady-state tick does not allocate. Larger
            // caps grow the memo on demand.
            crosses_by_wear: Vec::with_capacity(config.wear_cap.min(63) as usize + 1),
        }
    }

    /// The incident probability over `horizon` hours of a node with
    /// `wear` (capped) recorded incidents.
    fn risk(&self, wear: u32, horizon: f64) -> f64 {
        let rate = self.wear_factor.powi(wear as i32) / self.base_mtbi_hours;
        1.0 - (-rate * horizon).exp()
    }

    /// The memo of this tick's `risk(k) > ctx.risk_threshold`, grown to
    /// cover every capped wear count `k` up to `incidents`. The risk
    /// depends on a node only through its capped wear count, so each count
    /// is scored once per tick; the memo grows to the largest count asked
    /// for, never to `wear_cap`.
    fn crosses_up_to(&mut self, incidents: u32, ctx: &TickContext) -> &[bool] {
        let wear = incidents.min(self.wear_cap) as usize;
        while self.crosses_by_wear.len() <= wear {
            let k = self.crosses_by_wear.len() as u32;
            let crosses = self.risk(k, ctx.horizon_hours) > ctx.risk_threshold;
            self.crosses_by_wear.push(crosses);
        }
        &self.crosses_by_wear
    }

    /// Whether a node with `incidents` recorded incidents crosses
    /// `ctx.risk_threshold` (see [`WearRisk::crosses_up_to`]).
    fn crosses(&mut self, incidents: u32, ctx: &TickContext) -> bool {
        let wear = incidents.min(self.wear_cap) as usize;
        self.crosses_up_to(incidents, ctx)
            .get(wear)
            .copied()
            .unwrap_or(false)
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
    fn risk_memo_grows_to_the_largest_wear_count_not_the_cap() {
        // An uncapped, non-accelerating hazard passes `validate()`, so the
        // memo must not be sized by `wear_cap`.
        let config = FleetdConfig {
            nodes: 16,
            base_mtbi_hours: 30.0,
            wear_cap: u32::MAX,
            wear_factor: 1.0,
            ..FleetdConfig::default()
        };
        assert_eq!(config.validate(), Ok(()));
        let mut shard = ShardWorker::new(&config, 0..16);
        let table = LifecycleTable::new(16);
        for t in 0..40 {
            shard.tick(&ctx(t, 4.0), table.states(), &[]);
        }
        let most = shard.incidents.wear().iter().copied().max().unwrap_or(0);
        assert!(most > 0, "40 stressed ticks must produce incidents");
        let memo = &shard.risk.crosses_by_wear;
        assert_eq!(memo.len(), most as usize + 1);
        assert!(memo.capacity() <= 64.max(2 * memo.len()));
        for (k, &crosses) in memo.iter().enumerate() {
            assert_eq!(crosses, shard.risk.risk(k as u32, 24.0) > 0.25, "wear {k}");
        }
    }

    /// The attention list by its definition: each node tested on its
    /// own, against `WearRisk::risk` itself.
    fn attention_by_definition(
        shard: &ShardWorker,
        ctx: &TickContext,
        states: &[NodeState],
    ) -> Vec<u32> {
        let hours = shard.incidents.next_hours();
        let wear = shard.incidents.wear();
        (0..hours.len())
            .filter(|&i| {
                let risk = shard
                    .risk
                    .risk(wear[i].min(shard.risk.wear_cap), ctx.horizon_hours);
                let risky = states[i].is_healthy()
                    && ctx.tick >= shard.cooldown_until[i]
                    && risk > ctx.risk_threshold;
                hours[i] < ctx.t1 || states[i].is_validating() || risky
            })
            .map(|i| i as u32)
            .collect()
    }

    #[test]
    fn attention_list_matches_its_definition_on_both_memo_paths() {
        // The default wear cap keeps the risk memo in one word; at a
        // 2-hour horizon the crossing lies at wear 6. A slowly
        // accelerating hazard capped at wear 100, whose crossing lies
        // between 64 and the cap, takes the table path.
        let capped = FleetdConfig {
            nodes: 64,
            base_mtbi_hours: 30.0,
            ..FleetdConfig::default()
        };
        let past_one_word = FleetdConfig {
            nodes: 64,
            base_mtbi_hours: 2.0,
            wear_cap: 100,
            wear_factor: 1.02,
            ..FleetdConfig::default()
        };
        for (config, horizon_hours) in [(capped, 2.0), (past_one_word, 0.1)] {
            let mut shard = ShardWorker::new(&config, 0..64);
            let mut table = LifecycleTable::new(64);
            for node in 0..8 {
                assert!(table.apply_if_legal(node, LifecycleEvent::RiskCrossed));
                assert!(table.apply_if_legal(node, LifecycleEvent::ValidationStarted));
            }
            let mut listed_for_risk_alone = 0;
            for t in 0..150 {
                let context = TickContext {
                    horizon_hours,
                    ..ctx(t, 1.0)
                };
                let expected = attention_by_definition(&shard, &context, table.states());
                listed_for_risk_alone += expected
                    .iter()
                    .filter(|&&i| {
                        table.states()[i as usize].is_healthy()
                            && shard.incidents.next_hours()[i as usize] >= context.t1
                    })
                    .count();
                shard.tick(&context, table.states(), &[]);
                assert_eq!(shard.attention, expected, "tick {t}");
            }
            assert!(
                listed_for_risk_alone > 0,
                "some node must be listed for its risk alone"
            );
            // The crossing lies inside the memo: a wrong wear count reads
            // a wrong answer.
            let memo = &shard.risk.crosses_by_wear;
            let past = if config.wear_cap == 100 { 64 } else { 0 };
            assert!(memo.len() > past, "the memo must reach past {past}");
            assert!(memo[past..].contains(&true) && memo[past..].contains(&false));
        }
    }

    #[test]
    fn noise_cold_state_size_is_pinned() {
        // A validating or due node's noise stream, read besides the dense
        // arrays. A new field must show up here, not silently in the
        // soak's peak RSS.
        fn element_size<T>(_: &[T]) -> usize {
            std::mem::size_of::<T>()
        }
        let (_, shard) = worker(1);
        assert_eq!(element_size(&shard.noise_rngs), 80);
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
        let worn: u32 = shard.incidents.wear().iter().sum();
        assert!(worn > 0, "40 stressed ticks must produce incidents");
        // Zero-width window: the repair directive applies, no new events.
        let context = TickContext {
            t1: 240.0,
            ..ctx(40, 6.0)
        };
        shard.tick(&context, table.states(), &[1]);
        assert_eq!(shard.degradation_of(1), 0.0);
        assert_eq!(shard.incidents.wear()[1], 0, "repair must reset the wear");
    }
}
