//! The event-driven cluster simulator.
//!
//! ## Degradation model
//!
//! Every node alternates between *healthy* and *latent-defective*. While
//! stressed (running jobs **or** validation benchmarks — both exercise the
//! hardware), a healthy node develops a hidden defect after an exponential
//! `defect_onset_hours` of exposure (redundancy silently breaking —
//! Section 2.2). A fresh latent defect smolders: it first manifests as a
//! workload incident only after an exponential `first_incident_hours` of
//! further exposure. Once a defect has manifested and was only *partially*
//! repaired (reactive troubleshooting restores just enough redundancy to
//! unblock the workload), it relapses much faster —
//! `relapse_incident_hours` — producing the paper's crash-loop and
//! collapsing MTBI under the no-validation baseline.
//!
//! Validation at job-allocation time catches a latent defect with the
//! policy's coverage probability: the node is swapped against the hot
//! buffer (`swap_hours`), fully restored, and the catch is counted as an
//! incident (a defect occurred; it just never reached a customer). A
//! missed or unvalidated defect interrupts the job: under validation
//! policies the node is swapped and fully restored; under *Absence* it is
//! troubleshot for `troubleshoot_hours` and stays latent with probability
//! `latent_keep_probability`.
//!
//! Jobs replay from an allocation trace through job/node queues with
//! first-fit backfill (stressed replay, scheduled best-effort); an
//! interrupted job returns to the queue rear and continues where it left
//! off (paper Section 5.2, step 6).

use crate::policy::{Policy, PolicyKind, ValidationDecision};
use anubis_arena::Arena;
use anubis_hwsim::noise::exponential;
use anubis_lifecycle::{LifecycleEvent, NodeLifecycle};
use anubis_selector::NodeStatus;
use anubis_traces::{AllocationRequest, SourceMix};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Simulation configuration (calibration documented per field).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSimConfig {
    /// Cluster size in nodes.
    pub nodes: u32,
    /// Simulated horizon in hours (the paper simulates 30 days).
    pub horizon_hours: f64,
    /// Mean exposure-hours until a healthy node develops a latent defect.
    pub defect_onset_hours: f64,
    /// Mean exposure-hours from a *fresh* latent defect to its first
    /// workload incident.
    pub first_incident_hours: f64,
    /// Mean exposure-hours to relapse after a partial (troubleshooting)
    /// repair.
    pub relapse_incident_hours: f64,
    /// Fraction of nodes that start with a latent defect (the paper's
    /// trace cluster is already worn).
    pub initial_latent_fraction: f64,
    /// Probability troubleshooting leaves the latent defect in place
    /// (partial redundancy repair).
    pub latent_keep_probability: f64,
    /// Reactive troubleshooting duration (1.5 days per Figure 2).
    pub troubleshoot_hours: f64,
    /// Hot-buffer swap duration under validation policies.
    pub swap_hours: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClusterSimConfig {
    fn default() -> Self {
        Self {
            nodes: 128,
            horizon_hours: 720.0,
            defect_onset_hours: 120.0,
            first_incident_hours: 40.0,
            relapse_incident_hours: 2.5,
            initial_latent_fraction: 0.25,
            latent_keep_probability: 1.0,
            troubleshoot_hours: 36.0,
            swap_hours: 1.0,
            seed: 11,
        }
    }
}

/// Aggregate outcome of one simulated policy run (the Figure 8 / Table 4
/// rows).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct SimOutcome {
    /// Which policy ran.
    pub policy: PolicyKind,
    /// Mean node utilization (busy time / horizon).
    pub avg_utilization: f64,
    /// Mean validation hours per node.
    pub avg_validation_hours: f64,
    /// Cluster MTBI: total busy time / total incidents (total busy time
    /// when no incidents occurred).
    pub mtbi_hours: f64,
    /// Mean incidents per node (proactive catches included).
    pub incidents_per_node: f64,
    /// Mean *customer-visible* incidents per node (mid-job interruptions
    /// only; proactive catches excluded).
    pub customer_incidents_per_node: f64,
    /// Mean repair/swap hours per node.
    pub avg_repair_hours: f64,
    /// Completed jobs.
    pub jobs_completed: u64,
    /// Job interruptions (mid-job incidents).
    pub jobs_interrupted: u64,
    /// Cluster utilization per day (for the Figure 8 curve).
    pub daily_utilization: Vec<f64>,
}

#[derive(Debug, Clone)]
struct SimNode {
    latent: bool,
    /// Whether the current latent defect has already caused an incident
    /// (partially repaired defects relapse quickly).
    manifested: bool,
    busy: f64,
    validation: f64,
    repair: f64,
    incidents: u32,
    status: NodeStatus,
    /// Operational lifecycle, driven exclusively through the
    /// `anubis-lifecycle` transition function.
    life: NodeLifecycle,
}

/// Applies a lifecycle event to a node. The simulator's event sequences
/// are legal by construction, so an illegal transition here is a
/// simulator bug, asserted in debug builds.
#[expect(
    clippy::disallowed_macros,
    reason = "a debug-only check that the simulator's event sequences are legal"
)]
fn drive(node: &mut SimNode, event: LifecycleEvent) {
    let applied = node.life.apply(event);
    debug_assert!(applied.is_ok(), "sim lifecycle violation: {applied:?}");
    let _ = applied;
}

#[derive(Debug, Clone)]
struct PendingJob {
    nodes_needed: u32,
    remaining_hours: f64,
}

/// The job queue in arrival order, with a lower bound on its requests.
#[derive(Debug)]
struct PendingQueue {
    jobs: VecDeque<PendingJob>,
    /// No queued job needs fewer nodes than this: lowered by every push,
    /// and set to the exact minimum (`u32::MAX` when empty) by every
    /// backfill scan that reaches the end of the queue.
    min_needed: u32,
}

impl PendingQueue {
    fn new() -> Self {
        Self {
            jobs: VecDeque::new(),
            min_needed: u32::MAX,
        }
    }

    fn push(&mut self, job: PendingJob) {
        self.min_needed = self.min_needed.min(job.nodes_needed);
        self.jobs.push_back(job);
    }
}

#[derive(Debug, Clone)]
struct ActiveJob {
    nodes: Vec<u32>,
    start: f64,
    /// Busy-time onset sample per node (hours from job start), used to
    /// update latency state at job end.
    onsets: Vec<f64>,
    /// The pending incident: `(index into nodes, busy hours from start)`.
    incident: Option<(usize, f64)>,
    remaining_hours: f64,
}

/// Pooled per-allocation scratch for the event loop. `members` and
/// `onsets` buffers travel inside [`ActiveJob`] while the job runs and
/// come back to the pool at `JobFinish`; `statuses` is a per-call
/// temporary for the policy decision. After warm-up the allocation path
/// takes every buffer from the pools (the root `tests/alloc_counts.rs`
/// pins `simulate`'s exact allocation count).
#[derive(Debug, Default)]
struct SimArenas {
    members: Arena<Vec<u32>>,
    statuses: Arena<Vec<NodeStatus>>,
    onsets: Arena<Vec<f64>>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    Arrival(usize),
    NodeReady(u32),
    JobFinish(u64),
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by (time, seq) through reversal.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Runs the simulation of one policy over an allocation trace.
///
/// # Examples
///
/// ```
/// use anubis_cluster::{simulate, ClusterSimConfig, Policy};
/// use anubis_traces::{generate_allocation_trace, AllocationConfig};
///
/// let config = ClusterSimConfig { nodes: 32, horizon_hours: 240.0, ..Default::default() };
/// let jobs = generate_allocation_trace(&AllocationConfig {
///     duration_hours: 240.0,
///     ..AllocationConfig::stressed(32)
/// });
/// let outcome = simulate(&config, &jobs, &Policy::Ideal);
/// assert!(outcome.avg_utilization > 0.6);
/// assert_eq!(outcome.jobs_interrupted, 0);
/// ```
#[expect(
    clippy::indexing_slicing,
    reason = "node ids index the `config.nodes` sim nodes, day slots stay inside the horizon's day count, and job offsets index the job's own lists"
)]
pub fn simulate(
    config: &ClusterSimConfig,
    trace: &[AllocationRequest],
    policy: &Policy<'_>,
) -> SimOutcome {
    anubis_obs::set_time(0.0);
    let _span = anubis_obs::span!("cluster.simulate");
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mix = SourceMix::azure_like();
    let n = config.nodes as usize;
    let mut nodes: Vec<SimNode> = (0..n)
        .map(|_| SimNode {
            latent: rng.random::<f64>() < config.initial_latent_fraction,
            manifested: false,
            busy: 0.0,
            validation: 0.0,
            repair: 0.0,
            incidents: 0,
            status: NodeStatus::fresh(),
            life: NodeLifecycle::new(),
        })
        .collect();

    let mut events: BinaryHeap<Event> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut push = |events: &mut BinaryHeap<Event>, time: f64, kind: EventKind| {
        events.push(Event { time, seq, kind });
        seq += 1;
    };
    for (i, request) in trace.iter().enumerate() {
        push(&mut events, request.submit_hour, EventKind::Arrival(i));
    }

    let mut pending = PendingQueue::new();
    let mut idle: VecDeque<u32> = (0..config.nodes).collect();
    // Running jobs, keyed by their finish event's `seq`: unique, and
    // ascending in start order. Finished jobs leave the map, so its size
    // follows the jobs running at once, not every job ever started.
    let mut active: BTreeMap<u64, ActiveJob> = BTreeMap::new();
    let mut jobs_completed = 0u64;
    let mut jobs_interrupted = 0u64;
    let days = (config.horizon_hours / 24.0).ceil() as usize;
    let mut daily_busy = vec![0.0f64; days.max(1)];

    // Charges busy node-hours over [a, b), clipped to the horizon, into
    // the per-day buckets.
    let charge_daily = |daily: &mut [f64], a: f64, b: f64, horizon: f64| {
        let b = b.min(horizon);
        if b <= a {
            return;
        }
        let mut t = a;
        while t < b {
            let day = (t / 24.0) as usize;
            let day_end = ((day + 1) as f64) * 24.0;
            let upto = day_end.min(b);
            if day < daily.len() {
                daily[day] += upto - t;
            }
            t = upto;
        }
    };

    // Allocation: called whenever nodes free up or jobs arrive.
    #[allow(clippy::too_many_arguments)]
    #[expect(
        clippy::disallowed_macros,
        clippy::indexing_slicing,
        reason = "node ids index the `config.nodes` sim nodes; a debug-only check that a placement fills the request"
    )]
    fn try_allocate(
        now: f64,
        config: &ClusterSimConfig,
        policy: &Policy<'_>,
        mix: &SourceMix,
        rng: &mut ChaCha8Rng,
        nodes: &mut [SimNode],
        pending: &mut PendingQueue,
        idle: &mut VecDeque<u32>,
        active: &mut BTreeMap<u64, ActiveJob>,
        events: &mut BinaryHeap<Event>,
        seq: &mut u64,
        arenas: &SimArenas,
    ) {
        // First-fit backfill: a large job waiting at the head must not
        // idle capacity that smaller jobs behind it could use (the paper
        // schedules best-effort; strict FIFO loses ~3% utilization even
        // under the Ideal policy). Once the idle pool is smaller than
        // every queued request (`min_needed` bounds them from below), no
        // job further on can start, so the scan stops there: the same
        // jobs start in the same order, without walking the rest of the
        // queue on every event.
        let mut queue_index = 0;
        let mut smallest_skipped = u32::MAX;
        while queue_index < pending.jobs.len() {
            if idle.len() < pending.min_needed as usize {
                return;
            }
            // (The two `else` arms are unreachable; returning leaves
            // `min_needed` a valid bound.)
            let Some(needed) = pending.jobs.get(queue_index).map(|job| job.nodes_needed) else {
                return;
            };
            if needed as usize > idle.len() {
                smallest_skipped = smallest_skipped.min(needed);
                queue_index += 1;
                continue;
            }
            let Some(job) = pending.jobs.remove(queue_index) else {
                return;
            };
            // The fit check above guarantees enough idle nodes. The
            // buffer is pooled: it rides inside the `ActiveJob` and
            // returns to the arena at `JobFinish`.
            let mut members = arenas.members.take();
            members.extend((0..job.nodes_needed).filter_map(|_| idle.pop_front()));
            debug_assert_eq!(members.len(), job.nodes_needed as usize);

            let mut statuses = arenas.statuses.take();
            statuses.extend(members.iter().map(|&m| nodes[m as usize].status));
            let decision = policy.decide(&statuses, job.remaining_hours, rng);
            arenas.statuses.give(statuses);
            let validation_hours = decision.duration_hours;
            // A non-skip decision is the policy's risk threshold crossing:
            // the members leave the schedulable pool and run benchmarks.
            let validating = decision != ValidationDecision::SKIP;
            let mut job_start = now + validation_hours;
            let mut any_swap = false;

            let mut onsets = arenas.onsets.take();
            let mut incident: Option<(usize, f64)> = None;
            for (idx, &m) in members.iter().enumerate() {
                let node = &mut nodes[m as usize];
                if validating {
                    drive(node, LifecycleEvent::RiskCrossed);
                    drive(node, LifecycleEvent::ValidationStarted);
                }
                node.validation += validation_hours;
                // Proactive catch of a latent defect existing at
                // validation time.
                if node.latent && decision.coverage > 0.0 && rng.random::<f64>() < decision.coverage
                {
                    node.latent = false;
                    node.manifested = false;
                    node.incidents += 1;
                    node.repair += config.swap_hours;
                    node.status.record_incident(mix.sample(rng));
                    any_swap = true;
                    anubis_obs::event!("sim.proactive_catch");
                    // Hot-buffer swap: the defective node is quarantined
                    // and the swapped-in replacement resumes validation.
                    drive(node, LifecycleEvent::DefectConfirmed);
                    drive(node, LifecycleEvent::RepairCompleted);
                    drive(node, LifecycleEvent::ReturnedToService);
                    drive(node, LifecycleEvent::RiskCrossed);
                    drive(node, LifecycleEvent::ValidationStarted);
                }
                // Defect trajectory over validation + job exposure. The
                // benchmarks stress the hardware too, so onset clocks run
                // during validation; a defect born mid-validation is only
                // caught with the same coverage odds.
                let (mut onset, mut manifest) = if node.latent {
                    let hours = if node.manifested {
                        config.relapse_incident_hours
                    } else {
                        config.first_incident_hours
                    };
                    (
                        -validation_hours,
                        exponential(rng, 1.0 / hours) - validation_hours,
                    )
                } else {
                    let onset =
                        exponential(rng, 1.0 / config.defect_onset_hours) - validation_hours;
                    let manifest = onset + exponential(rng, 1.0 / config.first_incident_hours);
                    (onset, manifest)
                };
                if onset < 0.0 && !node.latent {
                    // Defect developed during the validation run itself.
                    if decision.coverage > 0.0 && rng.random::<f64>() < decision.coverage {
                        node.incidents += 1;
                        node.repair += config.swap_hours;
                        node.status.record_incident(mix.sample(rng));
                        any_swap = true;
                        drive(node, LifecycleEvent::DefectConfirmed);
                        drive(node, LifecycleEvent::RepairCompleted);
                        drive(node, LifecycleEvent::ReturnedToService);
                        drive(node, LifecycleEvent::RiskCrossed);
                        drive(node, LifecycleEvent::ValidationStarted);
                        // Swapped-in node: fresh trajectory from job start.
                        onset = exponential(rng, 1.0 / config.defect_onset_hours);
                        manifest = onset + exponential(rng, 1.0 / config.first_incident_hours);
                    }
                }
                onsets.push(onset);
                // A defect manifesting during validation (negative time)
                // hits the job immediately at start.
                let manifest = manifest.max(0.0);
                if policy.incidents_enabled() && manifest < job.remaining_hours {
                    match incident {
                        Some((_, t)) if t <= manifest => {}
                        _ => incident = Some((idx, manifest)),
                    }
                }
                // The (possibly swapped) member passed its benchmarks and
                // takes the job.
                if validating {
                    drive(node, LifecycleEvent::ValidationPassed);
                }
                drive(node, LifecycleEvent::JobAssigned);
            }
            if any_swap {
                job_start += config.swap_hours;
            }
            let event_offset = incident.map_or(job.remaining_hours, |(_, t)| t);
            let finish_time = job_start + event_offset;
            active.insert(
                *seq,
                ActiveJob {
                    nodes: members,
                    start: job_start,
                    onsets,
                    incident,
                    remaining_hours: job.remaining_hours,
                },
            );
            events.push(Event {
                time: finish_time,
                seq: *seq,
                kind: EventKind::JobFinish(*seq),
            });
            *seq += 1;
        }
        // The whole queue was scanned: every job left in it was skipped.
        pending.min_needed = smallest_skipped;
    }

    let mut seq_counter = seq;
    let arenas = SimArenas::default();
    try_allocate(
        0.0,
        config,
        policy,
        &mix,
        &mut rng,
        &mut nodes,
        &mut pending,
        &mut idle,
        &mut active,
        &mut events,
        &mut seq_counter,
        &arenas,
    );

    while let Some(event) = events.pop() {
        if event.time > config.horizon_hours {
            break;
        }
        let now = event.time;
        anubis_obs::set_time(now);
        match event.kind {
            EventKind::Arrival(i) => {
                let request = &trace[i];
                if request.nodes <= config.nodes {
                    pending.push(PendingJob {
                        nodes_needed: request.nodes,
                        remaining_hours: request.duration_hours,
                    });
                }
            }
            EventKind::NodeReady(node) => {
                // Quarantined since its incident; repair just finished.
                drive(&mut nodes[node as usize], LifecycleEvent::RepairCompleted);
                drive(&mut nodes[node as usize], LifecycleEvent::ReturnedToService);
                idle.push_back(node);
            }
            EventKind::JobFinish(key) => {
                // Each job's finish event is scheduled exactly once.
                let Some(job) = active.remove(&key) else {
                    continue;
                };
                let elapsed = (now - job.start).max(0.0);
                for (idx, &m) in job.nodes.iter().enumerate() {
                    let node = &mut nodes[m as usize];
                    node.busy += elapsed;
                    node.status.advance(elapsed);
                    // Silent defect onset during the run.
                    if !node.latent && job.onsets[idx] < elapsed {
                        node.latent = true;
                    }
                }
                charge_daily(&mut daily_busy, job.start, now, config.horizon_hours);
                // Multi-node busy: one bucket line per node.
                if job.nodes.len() > 1 {
                    for _ in 1..job.nodes.len() {
                        charge_daily(&mut daily_busy, job.start, now, config.horizon_hours);
                    }
                }
                if let Some((incident_idx, _)) = job.incident {
                    jobs_interrupted += 1;
                    anubis_obs::event!("sim.job_interrupted");
                    let incident_node = job.nodes[incident_idx];
                    {
                        let node = &mut nodes[incident_node as usize];
                        node.incidents += 1;
                        node.status.record_incident(mix.sample(&mut rng));
                        node.latent = true;
                        node.manifested = true;
                        // Busy → Quarantined; back in service at NodeReady.
                        drive(node, LifecycleEvent::IncidentObserved);
                    }
                    let ready_at = if policy.full_restore_on_incident() {
                        let node = &mut nodes[incident_node as usize];
                        node.latent = false;
                        node.manifested = false;
                        node.repair += config.swap_hours;
                        let status = node.status;
                        let post = policy.decide_post_incident(&status, &mut rng);
                        nodes[incident_node as usize].validation += post.duration_hours;
                        now + config.swap_hours + post.duration_hours
                    } else {
                        let node = &mut nodes[incident_node as usize];
                        node.repair += config.troubleshoot_hours;
                        if rng.random::<f64>() >= config.latent_keep_probability {
                            node.latent = false;
                            node.manifested = false;
                        }
                        now + config.troubleshoot_hours
                    };
                    events.push(Event {
                        time: ready_at,
                        seq: seq_counter,
                        kind: EventKind::NodeReady(incident_node),
                    });
                    seq_counter += 1;
                    for (idx, &m) in job.nodes.iter().enumerate() {
                        if idx != incident_idx {
                            drive(&mut nodes[m as usize], LifecycleEvent::JobCompleted);
                            idle.push_back(m);
                        }
                    }
                    let remaining = job.remaining_hours - elapsed;
                    if remaining > 0.05 {
                        pending.push(PendingJob {
                            nodes_needed: job.nodes.len() as u32,
                            remaining_hours: remaining,
                        });
                    }
                } else {
                    jobs_completed += 1;
                    for &m in &job.nodes {
                        drive(&mut nodes[m as usize], LifecycleEvent::JobCompleted);
                        idle.push_back(m);
                    }
                }
                // The job's buffers go back to the pool for the next
                // allocation.
                let ActiveJob {
                    nodes: members,
                    onsets,
                    ..
                } = job;
                arenas.members.give(members);
                arenas.onsets.give(onsets);
            }
        }
        try_allocate(
            now,
            config,
            policy,
            &mix,
            &mut rng,
            &mut nodes,
            &mut pending,
            &mut idle,
            &mut active,
            &mut events,
            &mut seq_counter,
            &arenas,
        );
    }

    // Jobs still running at the horizon: charge busy time up to it.
    for job in active.values() {
        let end = config.horizon_hours;
        if end > job.start {
            let elapsed = end - job.start;
            for &m in &job.nodes {
                nodes[m as usize].busy += elapsed;
                charge_daily(&mut daily_busy, job.start, end, config.horizon_hours);
            }
        }
    }

    let n_f = n as f64;
    let avg_utilization = nodes.iter().map(|x| x.busy).sum::<f64>() / (n_f * config.horizon_hours);
    let avg_validation_hours = nodes.iter().map(|x| x.validation).sum::<f64>() / n_f;
    let avg_repair_hours = nodes.iter().map(|x| x.repair).sum::<f64>() / n_f;
    let total_incidents: u32 = nodes.iter().map(|x| x.incidents).sum();
    let incidents_per_node = f64::from(total_incidents) / n_f;
    let total_busy: f64 = nodes.iter().map(|x| x.busy).sum();
    let mtbi_hours = total_busy / f64::from(total_incidents.max(1));
    let daily_utilization: Vec<f64> = daily_busy.iter().map(|b| b / (n_f * 24.0)).collect();

    anubis_obs::set_time(config.horizon_hours);
    anubis_obs::counter!("sim.jobs_completed", jobs_completed as i64);
    anubis_obs::counter!("sim.jobs_interrupted", jobs_interrupted as i64);
    anubis_obs::counter!("sim.incidents", i64::from(total_incidents));

    SimOutcome {
        policy: policy.kind(),
        avg_utilization,
        avg_validation_hours,
        mtbi_hours,
        incidents_per_node,
        customer_incidents_per_node: jobs_interrupted as f64 / n_f,
        avg_repair_hours,
        jobs_completed,
        jobs_interrupted,
        daily_utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anubis_benchsuite::BenchmarkId;
    use anubis_selector::{CoverageTable, ExponentialModel, Selector, SelectorConfig};
    use anubis_traces::{generate_allocation_trace, AllocationConfig};

    fn trace(nodes: u32) -> Vec<AllocationRequest> {
        generate_allocation_trace(&AllocationConfig::stressed(nodes))
    }

    fn config() -> ClusterSimConfig {
        ClusterSimConfig {
            nodes: 64,
            ..Default::default()
        }
    }

    /// A coverage table where a handful of benchmarks covers ~95% of
    /// defects, approximating the build-out history.
    fn coverage() -> CoverageTable {
        let mut table = CoverageTable::new();
        for d in 0..60u64 {
            table.record(BenchmarkId::IbHcaLoopback, d);
        }
        for d in 50..80u64 {
            table.record(BenchmarkId::GpuH2dBandwidth, d);
        }
        for d in 80..95u64 {
            table.record(BenchmarkId::CpuLatency, d);
        }
        for d in 0..100u64 {
            table.record(BenchmarkId::GpuStress, d);
        }
        table
    }

    fn selector() -> Selector {
        // Rate roughly matching the sim's defect onset.
        Selector::new(
            Box::new(ExponentialModel { rate: 1.0 / 140.0 }),
            coverage(),
            SelectorConfig::default(),
        )
    }

    #[test]
    fn ideal_policy_has_no_incidents_and_high_utilization() {
        let outcome = simulate(&config(), &trace(64), &Policy::Ideal);
        assert_eq!(outcome.incidents_per_node, 0.0);
        assert_eq!(outcome.jobs_interrupted, 0);
        assert!(
            outcome.avg_utilization > 0.9,
            "ideal util {}",
            outcome.avg_utilization
        );
        assert_eq!(outcome.avg_validation_hours, 0.0);
    }

    #[test]
    fn absence_collapses_into_crash_loops() {
        let outcome = simulate(&config(), &trace(64), &Policy::Absence);
        assert!(
            outcome.avg_utilization < 0.45,
            "absence util {}",
            outcome.avg_utilization
        );
        assert!(
            outcome.mtbi_hours < 60.0,
            "absence MTBI {}",
            outcome.mtbi_hours
        );
        assert!(outcome.incidents_per_node > 5.0);
        assert!(outcome.jobs_interrupted > 100);
    }

    #[test]
    fn selector_beats_absence_by_an_order_of_magnitude() {
        let cfg = config();
        let t = trace(64);
        let absence = simulate(&cfg, &t, &Policy::Absence);
        let sel = selector();
        let with_selector = simulate(&cfg, &t, &Policy::Selector(&sel));
        assert!(
            with_selector.mtbi_hours > 8.0 * absence.mtbi_hours,
            "MTBI {} vs {}",
            with_selector.mtbi_hours,
            absence.mtbi_hours
        );
        assert!(
            with_selector.avg_utilization > 3.0 * absence.avg_utilization,
            "util {} vs {}",
            with_selector.avg_utilization,
            absence.avg_utilization
        );
    }

    #[test]
    fn selector_validates_far_less_than_full_set() {
        let cfg = config();
        let t = trace(64);
        let full = simulate(&cfg, &t, &Policy::FullSet);
        let sel = selector();
        let with_selector = simulate(&cfg, &t, &Policy::Selector(&sel));
        assert!(
            with_selector.avg_validation_hours < 0.35 * full.avg_validation_hours,
            "validation {} vs {}",
            with_selector.avg_validation_hours,
            full.avg_validation_hours
        );
        assert!(
            with_selector.avg_utilization > full.avg_utilization,
            "util {} vs {}",
            with_selector.avg_utilization,
            full.avg_utilization
        );
        // Selector misses a few defects the full set would catch, but
        // stays close (relative bound: absolute margins drift with
        // throughput, which scales total defect exposure).
        assert!(
            with_selector.incidents_per_node >= 0.85 * full.incidents_per_node,
            "incidents {} vs {}",
            with_selector.incidents_per_node,
            full.incidents_per_node
        );
    }

    #[test]
    fn daily_utilization_timeline_shape() {
        let outcome = simulate(&config(), &trace(64), &Policy::Ideal);
        assert_eq!(outcome.daily_utilization.len(), 30);
        for &u in &outcome.daily_utilization {
            assert!((0.0..=1.01).contains(&u), "daily util {u}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = config();
        let t = trace(64);
        let a = simulate(&cfg, &t, &Policy::FullSet);
        let b = simulate(&cfg, &t, &Policy::FullSet);
        assert_eq!(a, b);
    }

    #[test]
    fn time_accounting_is_bounded() {
        let cfg = config();
        let t = trace(64);
        let sel = selector();
        for policy in [Policy::Absence, Policy::FullSet, Policy::Selector(&sel)] {
            let outcome = simulate(&cfg, &t, &policy);
            // busy + validation + repair can spill slightly past the
            // horizon (events straddling the boundary) but must stay
            // physical.
            let total = outcome.avg_utilization * cfg.horizon_hours
                + outcome.avg_validation_hours
                + outcome.avg_repair_hours;
            assert!(
                total <= cfg.horizon_hours * 1.15,
                "{:?}: accounted {total}h",
                outcome.policy
            );
        }
    }

    #[test]
    fn random_subset_is_worse_than_selector() {
        let cfg = config();
        let t = trace(64);
        let table = coverage();
        let random = simulate(
            &cfg,
            &t,
            &Policy::RandomSubset {
                coverage: &table,
                count: 4,
            },
        );
        let sel = selector();
        let with_selector = simulate(&cfg, &t, &Policy::Selector(&sel));
        // Random picks waste validation time on low-coverage benchmarks
        // and let far more defects reach customer jobs.
        assert!(
            with_selector.jobs_interrupted * 3 < random.jobs_interrupted * 2,
            "interruptions: selector {} vs random {}",
            with_selector.jobs_interrupted,
            random.jobs_interrupted
        );
        assert!(
            with_selector.avg_validation_hours < 0.5 * random.avg_validation_hours,
            "validation: selector {} vs random {}",
            with_selector.avg_validation_hours,
            random.avg_validation_hours
        );
        assert!(with_selector.avg_utilization >= random.avg_utilization - 0.01);
    }
}
