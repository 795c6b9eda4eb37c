//! Exhaustive model check of the coordinator that ships.
//!
//! The checker drives a real [`Coordinator`] through the same three
//! methods [`Coordinator::step`] calls — `begin_tick`, `apply_proposal`
//! and `end_tick` — and replaces only the two inputs a tick does not
//! decide itself: the arrival poll and the shard phase. Each tick it
//! enumerates every stimulus the real inputs could produce:
//!
//! - **arrivals:** none, or one job of 1–2 nodes lasting 1–2 ticks;
//! - **shard proposals**, per node, by the state the shards see (after
//!   phases 1–3): healthy → none or `RiskCrossed`; busy → none or
//!   `IncidentObserved`; validating → `ValidationPassed`,
//!   `DefectConfirmed` or `IncidentObserved`.
//!
//! Budgets bound the jobs, crossings, incidents and failed verdicts, so
//! the reachable state space is finite and a breadth-first search
//! visits all of it. The state hash covers the lifecycle states, the
//! live jobs (members and ticks remaining), the repair queue (ticks
//! until each repair is due), the pending queue and the budgets left,
//! never the absolute tick or a job id, so equivalent fleets at
//! different ticks are one state.
//!
//! Properties (b)–(e) are checked on every edge (every tick out of a
//! reachable state), (a) on every reachable state:
//!
//! - **(a) eventual validation.** Every node the coordinator made
//!   suspect enters `Validating` within ⌈N/cap⌉ ticks of a *quiescent*
//!   continuation: no arrivals, no new crossings, no incidents, and
//!   every verdict passes. That is the fairness assumption: fleetd
//!   promises progress only while new work stops arriving. Leaving
//!   `Suspect` any other way (a cleared risk) does not count, so the
//!   checker keeps the set of suspects still owed a validation.
//! - **(b)** no node is validating while it serves a live job;
//! - **(c)** a node is busy exactly when it is a member of a live job,
//!   and every live job's members map back to it (nodes are freed when a
//!   job ends or is killed);
//! - **(d)** every quarantined node has exactly one repair entry, and
//!   the census totals N;
//! - **(e)** validations started per tick stay within
//!   [`FleetdConfig::validation_cap`].
//!
//! A violation comes back with the shortest tick sequence that reaches
//! the violating state (the search is breadth-first), replayed from a
//! fresh fleet. Each planted-bug test applies a closure after the real
//! tick and expects exactly its property to fail.

use super::{Coordinator, TickSummary};
use crate::config::FleetdConfig;
use anubis_lifecycle::{LifecycleEvent as E, NodeState};
use anubis_traces::AllocationRequest;
use std::collections::{BTreeSet, VecDeque};
use std::fmt::{self, Write as _};

const EVENTUAL_VALIDATION: &str = "(a) eventual validation";
const NO_VALIDATION_WHILE_SERVING: &str = "(b) no validation while serving";
const JOB_MEMBERSHIP: &str = "(c) busy iff in a live job";
const REPAIR_BOOKKEEPING: &str = "(d) one repair entry per quarantined node";
const VALIDATION_CAP: &str = "(e) validations per tick within the cap";

/// Stimuli left: jobs, risk crossings, incidents, failed verdicts.
type Budgets = [u8; 4];

/// One grid point: fleet size, validation cap and budgets.
#[derive(Debug, Clone, Copy)]
struct Bounds {
    nodes: u32,
    cap: u32,
    budgets: Budgets,
}

/// The grid the shipped coordinator must pass.
#[rustfmt::skip]
const GRID: [Bounds; 6] = [
    Bounds { nodes: 3, cap: 1, budgets: [3, 3, 3, 3] },
    Bounds { nodes: 3, cap: 2, budgets: [3, 3, 3, 3] },
    Bounds { nodes: 4, cap: 1, budgets: [3, 3, 2, 2] },
    Bounds { nodes: 4, cap: 2, budgets: [3, 3, 2, 2] },
    Bounds { nodes: 5, cap: 1, budgets: [2, 2, 2, 1] },
    Bounds { nodes: 5, cap: 2, budgets: [2, 2, 2, 1] },
];

impl Bounds {
    /// A fresh fleet without shard workers: the checker supplies the
    /// shard phase's proposals itself.
    fn fleet(self) -> Coordinator {
        let mut fleet = Coordinator::new(FleetdConfig {
            nodes: self.nodes,
            shards: 1,
            threads: 1,
            tick_hours: 1.0,
            validations_per_tick: self.cap,
            repair_ticks: 2,
            max_pending_jobs: 2,
            ..FleetdConfig::default()
        });
        fleet.shards.clear();
        fleet
    }

    /// ⌈N/cap⌉: how long a quiescent fleet may take to validate every
    /// suspect.
    fn validation_deadline(self) -> u32 {
        self.nodes.div_ceil(self.cap)
    }
}

/// The checker's own state next to the fleet: budgets left, and the
/// bitmask of nodes that became suspect and have not entered
/// `Validating` since.
#[derive(Debug, Clone, Copy)]
struct Ghost {
    budgets: Budgets,
    owed: u32,
}

impl Ghost {
    /// Charges `event` to its budget; `false` when that budget is spent.
    fn charge(&mut self, event: E) -> bool {
        let slot = match event {
            E::RiskCrossed => 1,
            E::IncidentObserved => 2,
            E::DefectConfirmed => 3,
            _ => return true,
        };
        let Some(left) = self.budgets[slot].checked_sub(1) else {
            return false;
        };
        self.budgets[slot] = left;
        true
    }
}

/// One tick's inputs: the arrival (nodes, ticks) and the proposals.
#[derive(Debug, Clone, Default)]
struct Stimulus {
    arrival: Option<(u32, u32)>,
    proposals: Vec<(u32, E)>,
}

impl fmt::Display for Stimulus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.arrival {
            Some((nodes, ticks)) => write!(f, "arrive {nodes}-node job for {ticks} tick(s)")?,
            None => f.write_str("no arrival")?,
        }
        for (node, event) in &self.proposals {
            write!(f, ", n{node} {event}")?;
        }
        Ok(())
    }
}

/// A test-only defect applied after every real tick.
type Bug = fn(&mut Coordinator);

/// A violated property and its rendered shortest trace.
#[derive(Debug)]
struct Counterexample {
    property: &'static str,
    /// Ticks replayed from a fresh fleet, the quiescent tail included.
    ticks: usize,
    report: String,
}

/// State and edge counts of a clean search.
#[derive(Debug, Default)]
struct Explored {
    states: usize,
    edges: usize,
}

/// `H`ealthy, `B`usy, `S`uspect, `V`alidating, `Q`uarantined or
/// `R`epaired: the state names' initials are distinct.
fn letter(state: NodeState) -> char {
    state
        .name()
        .chars()
        .next()
        .map_or('?', |c| c.to_ascii_uppercase())
}

/// Bitmask of the nodes whose state satisfies `pred`.
fn mask(fleet: &Coordinator, pred: fn(NodeState) -> bool) -> u32 {
    let states = fleet.table.states().iter().enumerate();
    states
        .filter(|(_, &state)| pred(state))
        .fold(0, |bits, (node, _)| bits | 1 << node)
}

/// The live jobs as `(members, ticks until due)`, sorted (live jobs
/// never share a node, so the order is canonical).
fn live_jobs(fleet: &Coordinator) -> Vec<(&[u32], u32)> {
    let mut live: Vec<_> = (0u32..)
        .zip(&fleet.jobs)
        .filter(|(_, members)| !members.is_empty())
        .map(|(id, members)| {
            let due = fleet.due.iter().find(|(_, ids)| ids.contains(&id));
            let left = due.map_or(u32::MAX, |(&due, _)| due.saturating_sub(fleet.tick));
            (members.as_slice(), left)
        })
        .collect();
    live.sort_unstable();
    live
}

/// The state hash: everything a later tick reads, with ticks made
/// relative and each job named by its first member instead of its id.
fn state_key(fleet: &Coordinator, ghost: Ghost) -> Vec<u8> {
    let mut key: Vec<u8> = fleet
        .table
        .states()
        .iter()
        .map(|&s| letter(s) as u8)
        .collect();
    key.extend(fleet.job_of.iter().map(|&id| {
        let first = fleet.jobs.get(id as usize).and_then(|m| m.first());
        first.map_or(u8::MAX, |&node| node as u8)
    }));
    for (members, left) in live_jobs(fleet) {
        key.push(members.len() as u8);
        key.extend(members.iter().map(|&node| node as u8));
        key.push(left as u8);
    }
    key.push(u8::MAX);
    for &(ready, node) in &fleet.repair_queue {
        key.extend([node as u8, ready.saturating_sub(fleet.tick) as u8]);
    }
    key.push(u8::MAX);
    for arrival in &fleet.pending {
        key.extend([arrival.nodes as u8, arrival.duration_hours as u8]);
    }
    key.push(u8::MAX);
    key.extend(ghost.budgets);
    key.push(ghost.owed as u8);
    key
}

/// Phases 1–3 with `arrival` in place of the poll.
fn begin(fleet: &mut Coordinator, ghost: &mut Ghost, arrival: Option<(u32, u32)>) -> TickSummary {
    if let Some((nodes, ticks)) = arrival {
        ghost.budgets[0] -= 1;
        fleet.arrivals.push(AllocationRequest {
            submit_hour: f64::from(fleet.tick),
            nodes,
            duration_hours: f64::from(ticks),
        });
    }
    fleet.begin_tick()
}

/// Phase 5 with `proposals` in place of the shard reports, then phases
/// 6–7, then the planted bug.
fn finish(
    fleet: &mut Coordinator,
    ghost: &mut Ghost,
    mut summary: TickSummary,
    proposals: &[(u32, E)],
    bug: Bug,
) {
    for &(node, event) in proposals {
        ghost.charge(event);
        fleet.apply_proposal(&mut summary, node, event);
    }
    let suspects = mask(fleet, NodeState::is_suspect);
    fleet.end_tick(summary);
    bug(fleet);
    ghost.owed = (ghost.owed | suspects) & !mask(fleet, NodeState::is_validating);
}

/// Every proposal set the shards could emit for `states` within the
/// budgets left.
fn proposal_sets(states: &[NodeState], ghost: Ghost) -> Vec<Vec<(u32, E)>> {
    let mut sets = vec![(Vec::new(), ghost)];
    for (node, &state) in states.iter().enumerate() {
        let choices: &[Option<E>] = if state.is_healthy() {
            &[None, Some(E::RiskCrossed)]
        } else if state.is_busy() {
            &[None, Some(E::IncidentObserved)]
        } else if state.is_validating() {
            &[
                Some(E::ValidationPassed),
                Some(E::DefectConfirmed),
                Some(E::IncidentObserved),
            ]
        } else {
            continue;
        };
        let mut next = Vec::with_capacity(sets.len() * choices.len());
        for (set, ghost) in &sets {
            for &choice in choices {
                let (mut set, mut ghost) = (set.clone(), *ghost);
                if let Some(event) = choice {
                    if !ghost.charge(event) {
                        continue;
                    }
                    set.push((node as u32, event));
                }
                next.push((set, ghost));
            }
        }
        sets = next;
    }
    sets.into_iter().map(|(set, _)| set).collect()
}

/// Checks the safety properties (b)–(e) across one tick.
fn safety(before: &Coordinator, after: &Coordinator) -> Result<(), (&'static str, String)> {
    let nodes = after.cfg.nodes;
    for node in 0..nodes {
        let state = after.table.states()[node as usize];
        let in_any_job = after.jobs.iter().any(|members| members.contains(&node));
        if state.is_validating() && in_any_job {
            let detail = format!("node {node} is validating while it serves a live job");
            return Err((NO_VALIDATION_WHILE_SERVING, detail));
        }
        let job = after.jobs.get(after.job_of[node as usize] as usize);
        let live_job = job.is_some_and(|members| members.contains(&node));
        if state.is_busy() != live_job {
            let detail = format!("node {node} busy={} live_job={live_job}", state.is_busy());
            return Err((JOB_MEMBERSHIP, detail));
        }
    }
    for (job_id, members) in (0u32..).zip(&after.jobs) {
        if let Some(stray) = members
            .iter()
            .find(|&&m| after.job_of[m as usize] != job_id)
        {
            let detail = format!("live job member {stray} does not map back to its job");
            return Err((JOB_MEMBERSHIP, detail));
        }
    }
    let census = after.table.counts().total();
    if census != nodes as usize {
        return Err((
            REPAIR_BOOKKEEPING,
            format!("census totals {census}, not {nodes}"),
        ));
    }
    for node in 0..nodes {
        let entries = after
            .repair_queue
            .iter()
            .filter(|&&(_, n)| n == node)
            .count();
        if after.table.states()[node as usize].is_quarantined() && entries != 1 {
            let detail = format!("quarantined node {node} has {entries} repair entries");
            return Err((REPAIR_BOOKKEEPING, detail));
        }
    }
    let was_validating = mask(before, NodeState::is_validating);
    let started = (mask(after, NodeState::is_validating) & !was_validating).count_ones();
    let cap = after.cfg.validation_cap();
    if started > cap {
        let detail = format!("{started} validations started in one tick, cap {cap}");
        return Err((VALIDATION_CAP, detail));
    }
    Ok(())
}

/// Property (a) from one state: runs the quiescent continuation for up
/// to ⌈N/cap⌉ ticks. On a violation, returns what went wrong and the
/// quiescent stimuli it took.
fn eventual_validation(
    fleet: &Coordinator,
    ghost: Ghost,
    bounds: Bounds,
    bug: Bug,
) -> Option<(String, Vec<Stimulus>)> {
    let (mut fleet, mut ghost) = (fleet.clone(), ghost);
    let mut tail = Vec::new();
    while ghost.owed != 0 {
        if tail.len() == bounds.validation_deadline() as usize {
            let owed: Vec<u32> = (0..bounds.nodes)
                .filter(|n| ghost.owed & 1 << n != 0)
                .collect();
            let deadline = tail.len();
            let detail = format!("suspect(s) {owed:?} not validated in {deadline} quiescent ticks");
            return Some((detail, tail));
        }
        let summary = begin(&mut fleet, &mut ghost, None);
        let passes: Vec<_> = (0..bounds.nodes)
            .filter(|&n| fleet.table.states()[n as usize].is_validating())
            .map(|n| (n, E::ValidationPassed))
            .collect();
        finish(&mut fleet, &mut ghost, summary, &passes, bug);
        tail.push(Stimulus {
            arrival: None,
            proposals: passes,
        });
    }
    None
}

/// Renders the fleet after a tick: states, live jobs with ticks until
/// due, repair queue with ticks until due, and the pending count.
fn describe(fleet: &Coordinator) -> String {
    let states: String = fleet.table.states().iter().map(|&s| letter(s)).collect();
    let jobs: Vec<String> = live_jobs(fleet)
        .iter()
        .map(|(members, left)| format!("{members:?}+{left}"))
        .collect();
    let repairs: Vec<String> = fleet
        .repair_queue
        .iter()
        .map(|&(ready, node)| format!("n{node}+{}", ready.saturating_sub(fleet.tick)))
        .collect();
    let (jobs, repairs, pending) = (jobs.join(" "), repairs.join(" "), fleet.pending.len());
    format!("{states}  jobs [{jobs}]  repairs [{repairs}]  pending {pending}")
}

/// Replays `stimuli` from a fresh fleet into a numbered trace.
fn replay(bounds: Bounds, bug: Bug, stimuli: &[Stimulus], quiescent_from: usize) -> String {
    let mut fleet = bounds.fleet();
    let mut ghost = Ghost {
        budgets: bounds.budgets,
        owed: 0,
    };
    let mut trace = format!("  start: {}\n", describe(&fleet));
    for (i, stimulus) in stimuli.iter().enumerate() {
        let summary = begin(&mut fleet, &mut ghost, stimulus.arrival);
        finish(&mut fleet, &mut ghost, summary, &stimulus.proposals, bug);
        let tag = if i >= quiescent_from {
            " (quiescent)"
        } else {
            ""
        };
        let _ = writeln!(
            trace,
            "  tick {}{tag}: {stimulus}\n    -> {}",
            i + 1,
            describe(&fleet)
        );
    }
    trace
}

/// Breadth-first search over every reachable fleet under `bounds`, with
/// `bug` applied after each tick.
fn explore(bounds: Bounds, bug: Bug) -> Result<Explored, Counterexample> {
    let root = bounds.fleet();
    let ghost = Ghost {
        budgets: bounds.budgets,
        owed: 0,
    };
    let mut seen = BTreeSet::from([state_key(&root, ghost)]);
    // Per state: its parent and the stimulus that reached it.
    let mut parents: Vec<(usize, Stimulus)> = vec![(0, Stimulus::default())];
    let mut queue = VecDeque::from([(0usize, root, ghost)]);
    let mut explored = Explored::default();
    while let Some((id, fleet, ghost)) = queue.pop_front() {
        explored.states += 1;
        let arrivals = [None, Some((1, 1)), Some((1, 2)), Some((2, 1)), Some((2, 2))];
        let arrivals = if ghost.budgets[0] == 0 {
            &arrivals[..1]
        } else {
            &arrivals[..]
        };
        for &arrival in arrivals {
            let (mut begun, mut begun_ghost) = (fleet.clone(), ghost);
            let summary = begin(&mut begun, &mut begun_ghost, arrival);
            for proposals in proposal_sets(begun.table.states(), begun_ghost) {
                explored.edges += 1;
                let (mut next, mut next_ghost) = (begun.clone(), begun_ghost);
                finish(&mut next, &mut next_ghost, summary, &proposals, bug);
                // (e) compares the masks across the tick, so every edge
                // is checked, also one into a state already seen.
                let new = seen.insert(state_key(&next, next_ghost));
                let failure = match safety(&fleet, &next) {
                    Err(failure) => Some((failure, Vec::new())),
                    Ok(()) if !new => continue,
                    Ok(()) => eventual_validation(&next, next_ghost, bounds, bug)
                        .map(|(detail, tail)| ((EVENTUAL_VALIDATION, detail), tail)),
                };
                let next_id = parents.len();
                parents.push((id, Stimulus { arrival, proposals }));
                let Some(((property, detail), tail)) = failure else {
                    queue.push_back((next_id, next, next_ghost));
                    continue;
                };
                let mut stimuli = Vec::new();
                let mut at = next_id;
                while at != 0 {
                    stimuli.push(parents[at].1.clone());
                    at = parents[at].0;
                }
                stimuli.reverse();
                let quiescent_from = stimuli.len();
                stimuli.extend(tail);
                let report = format!(
                    "property {property} violated: {detail} ({bounds:?})\n\
                     counterexample trace ({} tick(s)):\n{}",
                    stimuli.len(),
                    replay(bounds, bug, &stimuli, quiescent_from)
                );
                return Err(Counterexample {
                    property,
                    ticks: stimuli.len(),
                    report,
                });
            }
        }
    }
    Ok(explored)
}

#[test]
fn shipped_coordinator_satisfies_every_property_on_the_grid() {
    let mut total = Explored::default();
    for bounds in GRID {
        let explored = explore(bounds, |_| {}).unwrap_or_else(|c| panic!("{}", c.report));
        println!(
            "{bounds:?}: {} states, {} edges",
            explored.states, explored.edges
        );
        total.states += explored.states;
        total.edges += explored.edges;
    }
    println!("grid: {} states, {} edges", total.states, total.edges);
    assert!(total.states > 10_000, "{total:?}");
}

/// Expects `bug` to break exactly `property` on the first grid point,
/// with a trace of `ticks` ticks (the shortest), and returns the report.
fn expect_violation(bug: Bug, property: &str, ticks: usize) -> String {
    let Err(counterexample) = explore(GRID[0], bug) else {
        panic!("{property} bug went unnoticed");
    };
    let report = counterexample.report;
    assert_eq!(counterexample.property, property, "{report}");
    assert_eq!(counterexample.ticks, ticks, "{report}");
    assert_eq!(report.matches("  tick ").count(), ticks, "{report}");
    println!("{report}");
    report
}

/// The lowest node whose state satisfies `pred`.
fn first(fleet: &Coordinator, pred: fn(&NodeState) -> bool) -> Option<usize> {
    fleet.table.states().iter().position(pred)
}

#[test]
fn clearing_suspects_breaks_eventual_validation() {
    // Two crossings under cap 1 leave one suspect after phase 6; the bug
    // clears it, and three quiescent ticks never validate it.
    let clear_suspects: Bug = |fleet| {
        for node in 0..fleet.cfg.nodes as usize {
            fleet.table.apply_if_legal(node, E::RiskCleared);
        }
    };
    let report = expect_violation(clear_suspects, EVENTUAL_VALIDATION, 4);
    assert!(report.contains("(quiescent)"), "{report}");
}

#[test]
fn preempting_a_busy_node_breaks_no_validation_while_serving() {
    let preempt: Bug = |fleet| {
        if let Some(node) = first(fleet, |s| s.is_busy()) {
            for event in [E::JobCompleted, E::RiskCrossed, E::ValidationStarted] {
                fleet.table.apply_if_legal(node, event);
            }
        }
    };
    expect_violation(preempt, NO_VALIDATION_WHILE_SERVING, 1);
}

#[test]
fn releasing_a_node_from_a_live_job_breaks_job_membership() {
    let release: Bug = |fleet| {
        if let Some(node) = first(fleet, |s| s.is_busy()) {
            fleet.table.apply_if_legal(node, E::JobCompleted);
        }
    };
    expect_violation(release, JOB_MEMBERSHIP, 1);
}

#[test]
fn forgetting_repairs_breaks_repair_bookkeeping() {
    expect_violation(|fleet| fleet.repair_queue.clear(), REPAIR_BOOKKEEPING, 1);
}

#[test]
fn one_validation_past_the_cap_breaks_the_cap() {
    let one_more: Bug = |fleet| {
        if let Some(node) = first(fleet, |s| s.is_suspect()) {
            fleet.table.apply_if_legal(node, E::ValidationStarted);
        }
    };
    expect_violation(one_more, VALIDATION_CAP, 1);
}
