//! The fleetd coordinator: the decision-making primary of the service.
//!
//! The coordinator owns everything a decision depends on — the
//! [`LifecycleTable`], job placement, the validation budget, the repair
//! pipeline, and the fleet-wide defect criteria — while the
//! [`ShardWorker`]s own the data movement (incident ingestion, status
//! covariates, benchmark execution). One [`Coordinator::step`] is a
//! virtual-time tick:
//!
//! 1. finish repairs that came due and return those nodes to service,
//! 2. complete jobs whose duration elapsed,
//! 3. ingest job arrivals and place the pending queue FIFO onto healthy
//!    nodes (ascending node order, jumping from one healthy node to the
//!    next through the table's healthy bitset),
//! 4. run every shard's [`ShardWorker::tick`] on the deterministic
//!    executor (this is the only parallel phase),
//! 5. apply shard proposals **in fixed shard order** — quarantines kill
//!    the victim's job and enqueue a repair,
//! 6. start validations on suspect nodes, ascending, up to the per-tick
//!    budget: the suspects left behind the budget on earlier ticks,
//!    merged with those phase 5 just made, with no walk over the fleet,
//!    and
//! 7. periodically refresh the defect criteria from the fleet quantile,
//!    selected from the shard sketches' sorted runs
//!    ([`anubis_metrics::EcdfSketch::quantile_of`]) without building a
//!    merged fleet copy.
//!
//! Because shard ranges are contiguous and ascending, "shard order" in
//! step 5 equals global node order — which is why the service's output is
//! byte-identical for any shard count and any `ANUBIS_THREADS`.
//!
//! `step` polls the arrival stream, runs phases 1–3 in `begin_tick`, runs
//! the shard phase, hands each proposal to `apply_proposal`, and finishes
//! with phases 6–7 in `end_tick`. The test-only model checker
//! (`coordinator/modelcheck.rs`) calls the same three methods and
//! replaces the poll and the shard phase with every stimulus they could
//! produce on small fleets.

use crate::config::FleetdConfig;
use crate::shard::{ShardWorker, TickContext};
use anubis_lifecycle::{LifecycleEvent, LifecycleTable, NodeState, StateCounts};
use anubis_metrics::EcdfSketch;
use anubis_parallel::map_chunks_mut;
use anubis_traces::{shard_ranges, AllocationRequest, AllocationStream};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Sentinel for "node serves no job" in the node→job map.
const NO_JOB: u32 = u32::MAX;

/// One tick's observable outcome, in both the live summary and the JSONL
/// trace. All fields are deterministic functions of the config.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TickSummary {
    /// Tick index.
    pub tick: u32,
    /// Virtual hour at the end of the tick window.
    pub hour: f64,
    /// Incidents ingested across all shards.
    pub incidents: usize,
    /// Validation benchmark samples appended across all shards.
    pub samples: usize,
    /// Lifecycle proposals emitted by the shards.
    pub proposals: usize,
    /// Validations started by the coordinator this tick.
    pub validations_started: u32,
    /// Nodes confirmed defective by a benchmark verdict this tick.
    pub defects_confirmed: usize,
    /// Nodes quarantined by an under-stress incident this tick.
    pub incident_quarantines: usize,
    /// Repairs completed (nodes returned to service) this tick.
    pub repairs_completed: usize,
    /// Jobs placed this tick.
    pub jobs_started: usize,
    /// Jobs that ran to completion this tick.
    pub jobs_completed: usize,
    /// Jobs killed because a member node was quarantined this tick.
    pub jobs_killed: usize,
    /// Arrivals dropped at the pending-queue cap this tick.
    pub jobs_dropped: usize,
    /// Jobs awaiting placement after this tick.
    pub pending_jobs: usize,
    /// Lifecycle census after this tick.
    pub counts: StateCounts,
    /// Defect criteria in force during this tick (`None` in build-out).
    pub criteria_threshold: Option<f64>,
}

impl TickSummary {
    /// Appends this tick as one JSONL line (including the trailing
    /// newline). Field order and float formatting are fixed, so traces
    /// byte-compare across thread and shard counts.
    pub fn write_jsonl(&self, out: &mut String) {
        let c = &self.counts;
        let _ = write!(
            out,
            "{{\"tick\":{},\"hour\":{:.3},\"incidents\":{},\"samples\":{},\"proposals\":{},\
             \"validations_started\":{},\"defects_confirmed\":{},\"incident_quarantines\":{},\
             \"repairs_completed\":{},\"jobs_started\":{},\"jobs_completed\":{},\
             \"jobs_killed\":{},\"jobs_dropped\":{},\"pending_jobs\":{},\
             \"healthy\":{},\"busy\":{},\"suspect\":{},\"validating\":{},\
             \"quarantined\":{},\"repaired\":{},\"criteria\":",
            self.tick,
            self.hour,
            self.incidents,
            self.samples,
            self.proposals,
            self.validations_started,
            self.defects_confirmed,
            self.incident_quarantines,
            self.repairs_completed,
            self.jobs_started,
            self.jobs_completed,
            self.jobs_killed,
            self.jobs_dropped,
            self.pending_jobs,
            c.healthy,
            c.busy,
            c.suspect,
            c.validating,
            c.quarantined,
            c.repaired,
        );
        match self.criteria_threshold {
            Some(t) => {
                let _ = write!(out, "{t:.6}");
            }
            None => out.push_str("null"),
        }
        out.push_str("}\n");
    }
}

/// Whole-run totals, reported once at the end.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FleetSummary {
    /// Ticks executed.
    pub ticks: u32,
    /// Fleet size.
    pub nodes: u32,
    /// Shard count (affects nothing but the parallel decomposition).
    pub shards: u32,
    /// Total incidents ingested.
    pub incidents: u64,
    /// Total validation benchmark samples.
    pub samples: u64,
    /// Total validations started.
    pub validations: u64,
    /// Defects confirmed by benchmark verdicts.
    pub defects_confirmed: u64,
    /// Quarantines triggered by under-stress incidents.
    pub incident_quarantines: u64,
    /// Repairs completed.
    pub repairs: u64,
    /// Jobs placed.
    pub jobs_started: u64,
    /// Jobs that ran to completion.
    pub jobs_completed: u64,
    /// Jobs killed by quarantines.
    pub jobs_killed: u64,
    /// Arrivals dropped at the pending-queue cap.
    pub jobs_dropped: u64,
    /// Final lifecycle census.
    pub final_counts: StateCounts,
    /// Defect criteria in force at the end (`None` if never established).
    pub criteria_threshold: Option<f64>,
}

impl FleetSummary {
    /// Renders the deterministic end-of-run summary block (stable line
    /// order). Deliberately omits everything that is *not* part of the
    /// determinism contract: the shard count, the thread count, and any
    /// wall-clock timing — those belong on stderr. The block is therefore
    /// byte-identical across `ANUBIS_THREADS` *and* shard counts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let c = &self.final_counts;
        let _ = writeln!(out, "fleetd summary");
        let _ = writeln!(out, "  fleet: {} nodes, {} ticks", self.nodes, self.ticks);
        let _ = writeln!(
            out,
            "  events: {} incidents, {} benchmark samples",
            self.incidents, self.samples
        );
        let _ = writeln!(
            out,
            "  validation: {} started, {} defects, {} incident quarantines, {} repairs",
            self.validations, self.defects_confirmed, self.incident_quarantines, self.repairs
        );
        let _ = writeln!(
            out,
            "  jobs: {} started, {} completed, {} killed, {} dropped",
            self.jobs_started, self.jobs_completed, self.jobs_killed, self.jobs_dropped
        );
        let _ = writeln!(
            out,
            "  final: {} healthy, {} busy, {} suspect, {} validating, {} quarantined, {} repaired",
            c.healthy, c.busy, c.suspect, c.validating, c.quarantined, c.repaired
        );
        match self.criteria_threshold {
            Some(t) => {
                let _ = writeln!(out, "  criteria: score >= {t:.6}");
            }
            None => {
                let _ = writeln!(out, "  criteria: (build-out)");
            }
        }
        out
    }
}

/// The sharded continuous-validation service (see the module docs).
/// Cloning forks the whole service state (benchmark setups use this to
/// re-run a warmed fleet from a snapshot).
#[derive(Debug, Clone)]
pub struct Coordinator {
    cfg: FleetdConfig,
    table: LifecycleTable,
    shards: Vec<ShardWorker>,
    alloc: AllocationStream,
    pending: VecDeque<AllocationRequest>,
    /// Each job's member nodes, ascending, indexed by job id. A job is
    /// live while its list is non-empty: completing or killing it takes
    /// (and frees) the list. A slot stays taken until phase 2 processes
    /// the job's one `due` entry, then goes to `free_jobs`, so the table
    /// holds at most as many slots as jobs ever had due entries pending
    /// at once.
    jobs: Vec<Vec<u32>>,
    /// Slots of `jobs` whose due entry has been processed, for reuse.
    free_jobs: Vec<u32>,
    job_of: Vec<u32>,
    due: BTreeMap<u32, Vec<u32>>,
    repair_queue: VecDeque<(u32, u32)>,
    criteria_threshold: Option<f64>,
    tick: u32,
    totals: FleetSummary,
    /// Suspects left behind the validation cap, ascending.
    suspects: Vec<u32>,
    /// Nodes that turned suspect in this tick's phase 5, ascending.
    new_suspects: Vec<u32>,
    // Persistent scratch (steady state allocates only for new jobs).
    repaired_now: Vec<u32>,
    arrivals: Vec<AllocationRequest>,
    merged_suspects: Vec<u32>,
}

impl Coordinator {
    /// Builds the service: one lifecycle table, `shards` workers over
    /// contiguous node ranges, and the arrival stream.
    pub fn new(cfg: FleetdConfig) -> Self {
        let ranges = shard_ranges(cfg.nodes, cfg.shards);
        let shards: Vec<ShardWorker> = ranges
            .into_iter()
            .map(|r| ShardWorker::new(&cfg, r))
            .collect();
        let alloc = AllocationStream::new(&cfg.allocation());
        let table = LifecycleTable::new(cfg.nodes as usize);
        Self {
            shards,
            alloc,
            pending: VecDeque::new(),
            jobs: Vec::new(),
            free_jobs: Vec::new(),
            job_of: vec![NO_JOB; cfg.nodes as usize],
            due: BTreeMap::new(),
            repair_queue: VecDeque::new(),
            criteria_threshold: None,
            tick: 0,
            totals: FleetSummary {
                nodes: cfg.nodes,
                shards: cfg.shards.clamp(1, cfg.nodes.max(1)),
                // The census is valid before the first tick, too.
                final_counts: table.counts(),
                ..FleetSummary::default()
            },
            table,
            suspects: Vec::new(),
            new_suspects: Vec::new(),
            repaired_now: Vec::new(),
            arrivals: Vec::new(),
            merged_suspects: Vec::new(),
            cfg,
        }
    }

    /// The run configuration.
    pub fn config(&self) -> &FleetdConfig {
        &self.cfg
    }

    /// The lifecycle table (decision state).
    pub fn table(&self) -> &LifecycleTable {
        &self.table
    }

    /// Starts recording every applied transition in the lifecycle
    /// table's journal (see [`LifecycleTable::enable_journal`]).
    pub fn enable_journal(&mut self) {
        self.table.enable_journal();
    }

    /// The shard workers, in shard (= node) order.
    pub fn shards(&self) -> &[ShardWorker] {
        &self.shards
    }

    /// The defect criteria currently in force.
    pub fn criteria_threshold(&self) -> Option<f64> {
        self.criteria_threshold
    }

    /// Ticks executed so far.
    pub fn tick_index(&self) -> u32 {
        self.tick
    }

    /// Executes one tick and returns its summary.
    #[expect(
        clippy::indexing_slicing,
        reason = "`shard_id` and `i` are loop indices below the lengths they index"
    )]
    pub fn step(&mut self) -> TickSummary {
        let t0 = f64::from(self.tick) * self.cfg.tick_hours;
        let t1 = f64::from(self.tick + 1) * self.cfg.tick_hours;
        anubis_obs::set_time(t0);
        let _span = anubis_obs::span!("fleetd.tick");
        self.alloc.poll(t1, &mut self.arrivals);
        let mut summary = self.begin_tick();

        // 4. The parallel shard phase (the only one). The snapshot the
        // shards see includes this tick's placements and repairs.
        let ctx = TickContext {
            tick: summary.tick,
            t0,
            t1,
            horizon_hours: self.cfg.horizon_hours,
            risk_threshold: self.cfg.risk_threshold,
            criteria_threshold: self.criteria_threshold,
            cooldown_ticks: self.cfg.cooldown_ticks,
        };
        let states = self.table.states();
        let repaired = self.repaired_now.as_slice();
        map_chunks_mut(&mut self.shards, 1, self.cfg.threads, |_, chunk| {
            for shard in chunk {
                shard.tick(&ctx, states, repaired);
            }
        });

        // 5. Apply proposals in fixed shard order (= global node order).
        // Shard-side counters are suppressed under the executor, so the
        // node-tick work count is summed here, on the coordinating thread.
        let (mut node_ticks, mut nodes_visited) = (0usize, 0usize);
        for shard_id in 0..self.shards.len() {
            let report = self.shards[shard_id].report();
            node_ticks += report.node_ticks;
            nodes_visited += report.nodes_visited;
            summary.incidents += report.incidents;
            summary.samples += report.samples;
            summary.proposals += report.proposals.len();
            for i in 0..report.proposals.len() {
                let (node, event) = self.shards[shard_id].report().proposals[i];
                self.apply_proposal(&mut summary, node, event);
            }
        }
        anubis_obs::counter!("fleetd.node_ticks", node_ticks as i64);
        anubis_obs::counter!("fleetd.nodes_visited", nodes_visited as i64);
        self.end_tick(summary)
    }

    /// Phases 1–3 of a tick: finish due repairs, complete due jobs, then
    /// queue `self.arrivals` (drained) and place the pending queue.
    /// Returns the tick's summary with those phases' counts filled in.
    #[expect(
        clippy::indexing_slicing,
        reason = "`job_of` has one entry per fleet node, and job members are fleet nodes"
    )]
    fn begin_tick(&mut self) -> TickSummary {
        let tick = self.tick;
        let mut summary = TickSummary {
            tick,
            hour: f64::from(tick + 1) * self.cfg.tick_hours,
            ..TickSummary::default()
        };

        // 1. Repairs that came due: Quarantined -> Repaired -> Healthy,
        // and tell the shards to rejuvenate the hardware.
        self.repaired_now.clear();
        while let Some(&(ready, node)) = self.repair_queue.front() {
            if ready > tick {
                break;
            }
            self.repair_queue.pop_front();
            if self
                .table
                .apply_if_legal(node as usize, LifecycleEvent::RepairCompleted)
                && self
                    .table
                    .apply_if_legal(node as usize, LifecycleEvent::ReturnedToService)
            {
                self.repaired_now.push(node);
                summary.repairs_completed += 1;
            }
        }
        self.repaired_now.sort_unstable();

        // 2. Jobs whose duration elapsed. A killed job's list is already
        // empty. This is the job's only due entry, so its slot is free
        // now; freeing it at kill time instead would let the stale entry
        // complete the next job placed in that slot.
        for job_id in self.due.remove(&tick).unwrap_or_default() {
            let members = self.take_members(job_id);
            self.free_jobs.push(job_id);
            if members.is_empty() {
                continue;
            }
            summary.jobs_completed += 1;
            for node in members {
                if self.job_of[node as usize] == job_id {
                    self.table
                        .apply_if_legal(node as usize, LifecycleEvent::JobCompleted);
                    self.job_of[node as usize] = NO_JOB;
                }
            }
        }

        // 3. Arrivals and FIFO placement onto healthy nodes.
        for arrival in self.arrivals.drain(..) {
            if self.pending.len() >= self.cfg.max_pending_jobs {
                summary.jobs_dropped += 1;
            } else {
                self.pending.push_back(arrival);
            }
        }
        // The healthy census caps what placement can take; the cursor
        // then jumps from healthy node to healthy node (the table's
        // bitset) only as far as the placed jobs need. Placement only
        // turns nodes behind the cursor busy, so the walk sees the tick's
        // healthy set in ascending order.
        let healthy = self.table.counts().healthy;
        let mut placed = 0usize;
        let mut cursor = 0usize;
        while let Some(front) = self.pending.front() {
            let want = front.nodes as usize;
            if want == 0 {
                self.pending.pop_front();
                continue;
            }
            if placed + want > healthy {
                break; // head-of-line blocks until capacity frees up
            }
            let arrival = match self.pending.pop_front() {
                Some(a) => a,
                None => break,
            };
            let job_id = self.free_jobs.pop().unwrap_or_else(|| {
                self.jobs.push(Vec::new());
                self.jobs.len() as u32 - 1
            });
            let mut members = Vec::with_capacity(want);
            while members.len() < want {
                let Some(node) = self.table.next_healthy(cursor) else {
                    break;
                };
                self.table.apply_if_legal(node, LifecycleEvent::JobAssigned);
                self.job_of[node] = job_id;
                members.push(node as u32);
                cursor = node + 1;
            }
            if let Some(slot) = self.jobs.get_mut(job_id as usize) {
                *slot = members;
            }
            let duration_ticks =
                ((arrival.duration_hours / self.cfg.tick_hours).ceil() as u32).max(1);
            self.due
                .entry(tick + duration_ticks)
                .or_default()
                .push(job_id);
            placed += want;
            summary.jobs_started += 1;
        }
        summary
    }

    /// Phase 5 for one shard proposal: applies `event` to `node` when it
    /// is legal, and turns a quarantine into a killed job and a queued
    /// repair.
    fn apply_proposal(&mut self, summary: &mut TickSummary, node: u32, event: LifecycleEvent) {
        if event == LifecycleEvent::RiskCrossed {
            // The only way into `Suspect` is from `Healthy`; the
            // idempotent re-flag of a suspect changes nothing, so skip it.
            // Proposals arrive in node order, so the list stays ascending.
            let healthy = self
                .table
                .state(node as usize)
                .is_some_and(NodeState::is_healthy);
            if healthy && self.table.apply_if_legal(node as usize, event) {
                self.new_suspects.push(node);
            }
            return;
        }
        if !self.table.apply_if_legal(node as usize, event) {
            return;
        }
        match event {
            LifecycleEvent::IncidentObserved => {
                summary.incident_quarantines += 1;
                if self.kill_job_of(node) {
                    summary.jobs_killed += 1;
                }
            }
            LifecycleEvent::DefectConfirmed => summary.defects_confirmed += 1,
            _ => return,
        }
        self.repair_queue
            .push_back((self.tick + self.cfg.repair_ticks, node));
    }

    /// Phases 6–7 of a tick: start validations, refresh the criteria,
    /// and fold the finished `summary` into the run totals.
    fn end_tick(&mut self, mut summary: TickSummary) -> TickSummary {
        // 6. Start validations on suspects, ascending, up to the budget.
        // Every suspect is either left over from an earlier tick or new in
        // this tick's phase 5; merging the two ascending lists visits them
        // in node order without walking the fleet. Whatever the budget
        // leaves stays for the next tick.
        let cap = self.cfg.validation_cap();
        merge_ascending(
            &self.suspects,
            &self.new_suspects,
            &mut self.merged_suspects,
        );
        self.new_suspects.clear();
        self.suspects.clear();
        for &node in &self.merged_suspects {
            // Skip a listed node that left `Suspect` another way (a
            // cleared risk).
            if !self
                .table
                .state(node as usize)
                .is_some_and(NodeState::is_suspect)
            {
                continue;
            }
            if summary.validations_started < cap
                && self
                    .table
                    .apply_if_legal(node as usize, LifecycleEvent::ValidationStarted)
            {
                summary.validations_started += 1;
            } else {
                self.suspects.push(node);
            }
        }

        // 7. Periodic criteria refresh: the quantile is selected from the
        // shard sketches' sorted runs, with no merged fleet copy.
        if (self.tick + 1).is_multiple_of(self.cfg.merge_every_ticks.max(1)) {
            let _merge = anubis_obs::span!("fleetd.merge");
            let sketches = self.shards.iter().map(ShardWorker::sketch);
            let samples: usize = sketches.clone().map(EcdfSketch::len).sum();
            anubis_obs::counter!("fleetd.sketch_elements_merged", samples as i64);
            if samples >= self.cfg.min_criteria_samples.max(1) {
                self.criteria_threshold =
                    Some(EcdfSketch::quantile_of(sketches, self.cfg.defect_quantile));
            }
        }

        summary.counts = self.table.counts();
        summary.pending_jobs = self.pending.len();
        summary.criteria_threshold = self.criteria_threshold;
        anubis_obs::set_time(summary.hour); // the open tick span covers [t0, t1]
        anubis_obs::counter!("fleetd.incidents", summary.incidents as i64);
        anubis_obs::counter!("fleetd.samples", summary.samples as i64);
        anubis_obs::counter!("fleetd.validations", i64::from(summary.validations_started));
        anubis_obs::counter!(
            "fleetd.quarantines",
            (summary.defects_confirmed + summary.incident_quarantines) as i64
        );

        self.tick += 1;
        let totals = &mut self.totals;
        totals.ticks = self.tick;
        totals.incidents += summary.incidents as u64;
        totals.samples += summary.samples as u64;
        totals.validations += u64::from(summary.validations_started);
        totals.defects_confirmed += summary.defects_confirmed as u64;
        totals.incident_quarantines += summary.incident_quarantines as u64;
        totals.repairs += summary.repairs_completed as u64;
        totals.jobs_started += summary.jobs_started as u64;
        totals.jobs_completed += summary.jobs_completed as u64;
        totals.jobs_killed += summary.jobs_killed as u64;
        totals.jobs_dropped += summary.jobs_dropped as u64;
        totals.final_counts = summary.counts;
        totals.criteria_threshold = self.criteria_threshold;
        summary
    }

    /// Takes job `job_id`'s member list, leaving it empty (the job is no
    /// longer live). Empty for a dead job or [`NO_JOB`].
    fn take_members(&mut self, job_id: u32) -> Vec<u32> {
        self.jobs
            .get_mut(job_id as usize)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Kills the job occupying `node` (the node itself was just
    /// quarantined): surviving members return to healthy, the job's due
    /// entry is left to lapse. Returns whether a live job was killed.
    #[expect(
        clippy::indexing_slicing,
        reason = "`job_of` has one entry per fleet node, and job members are fleet nodes"
    )]
    fn kill_job_of(&mut self, node: u32) -> bool {
        let job_id = std::mem::replace(&mut self.job_of[node as usize], NO_JOB);
        let members = self.take_members(job_id);
        if members.is_empty() {
            return false;
        }
        for member in members {
            if member != node && self.job_of[member as usize] == job_id {
                self.table
                    .apply_if_legal(member as usize, LifecycleEvent::JobCompleted);
                self.job_of[member as usize] = NO_JOB;
            }
        }
        true
    }

    /// Runs `ticks` ticks, invoking `on_tick` after each, and returns the
    /// run totals.
    pub fn run(&mut self, ticks: u32, mut on_tick: impl FnMut(&TickSummary)) -> FleetSummary {
        for _ in 0..ticks {
            let summary = self.step();
            on_tick(&summary);
        }
        self.totals
    }

    /// The run totals so far.
    pub fn totals(&self) -> FleetSummary {
        self.totals
    }
}

/// Merges two ascending node lists into `out` (cleared first).
#[expect(
    clippy::indexing_slicing,
    reason = "the merge loop leaves `i <= a.len()` and `j <= b.len()`"
)]
fn merge_ascending(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        if x <= y {
            out.push(x);
            i += 1;
        } else {
            out.push(y);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod modelcheck;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_table_holds_no_more_slots_than_pending_due_entries() {
        let mut fleet = Coordinator::new(FleetdConfig {
            nodes: 400,
            shards: 4,
            ..FleetdConfig::default()
        });
        let mut peak_pending = 0;
        for _ in 0..2_000 {
            fleet.step();
            let pending: usize = fleet.due.values().map(Vec::len).sum();
            peak_pending = peak_pending.max(pending);
            assert_eq!(
                fleet.jobs.len(),
                pending + fleet.free_jobs.len(),
                "every slot is either pending its due entry or free"
            );
            assert!(
                fleet.jobs.len() <= peak_pending,
                "{} slots for at most {peak_pending} pending jobs",
                fleet.jobs.len()
            );
        }
        let totals = fleet.totals();
        assert!(
            totals.jobs_killed > 0 && totals.jobs_completed > 0,
            "the run must both kill and complete jobs"
        );
        assert!(
            (fleet.jobs.len() as u64) < totals.jobs_started / 10,
            "{} slots for {} jobs started",
            fleet.jobs.len(),
            totals.jobs_started
        );
    }

    #[test]
    fn fresh_coordinator_census_covers_the_fleet() {
        let fleet = Coordinator::new(FleetdConfig {
            nodes: 100,
            shards: 4,
            ..FleetdConfig::default()
        });
        let totals = fleet.totals();
        assert_eq!(totals.final_counts.total(), 100);
        assert_eq!(totals.final_counts.healthy, 100);
    }
}
