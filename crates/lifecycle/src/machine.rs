//! The node-lifecycle state machine and its single transition function.
//!
//! The machine encodes the operator loop of paper Section 3: a node
//! serves jobs while healthy, is flagged *suspect* when its incident
//! probability crosses the Selector's threshold, runs validation
//! benchmarks, and is quarantined/repaired when a defect is confirmed.
//! Two discipline rules are built into the transition table itself:
//!
//! - a node never starts validation while serving a job (there is no
//!   `Busy` + [`LifecycleEvent::ValidationStarted`] transition), and
//! - a suspect node never takes a new job before it was validated (no
//!   `Suspect` + [`LifecycleEvent::JobAssigned`] transition) — a crossed
//!   threshold cannot be skipped.
//!
//! Everything else in the workspace must change node state exclusively
//! through [`transition`] (usually via the [`NodeLifecycle`] wrapper).
//! The compiler enforces that: [`NodeState`] is opaque, its variants live
//! in a crate-private enum, so no other crate can construct or match a
//! state — it can only obtain one from [`NodeLifecycle`],
//! [`LifecycleTable`](crate::LifecycleTable) or [`transition`].

use std::error::Error;
use std::fmt;

/// Operational lifecycle state of one fleet node.
///
/// Opaque outside `anubis-lifecycle`: interrogate it with the `is_*`
/// predicates; the variants cannot be named, so a state cannot be
/// constructed except by the machine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeState(pub(crate) State);

/// The variants behind [`NodeState`], private to this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum State {
    /// In service and idle; no elevated risk known.
    Healthy,
    /// In service, running a customer job.
    Busy,
    /// Incident probability crossed the Selector threshold; awaiting
    /// validation (still in service, but not schedulable).
    Suspect,
    /// Validation benchmarks are running; out of service.
    Validating,
    /// Confirmed defective; out of service awaiting repair.
    Quarantined,
    /// Repair finished; awaiting return to service.
    Repaired,
}

impl NodeState {
    /// The state every node starts in.
    pub(crate) const HEALTHY: Self = Self(State::Healthy);

    /// Whether the node is `Healthy`.
    pub fn is_healthy(self) -> bool {
        self.0 == State::Healthy
    }

    /// Whether the node is serving a job.
    pub fn is_busy(self) -> bool {
        self.0 == State::Busy
    }

    /// Whether the node awaits validation after a threshold crossing.
    pub fn is_suspect(self) -> bool {
        self.0 == State::Suspect
    }

    /// Whether validation benchmarks are running on the node.
    pub fn is_validating(self) -> bool {
        self.0 == State::Validating
    }

    /// Whether the node is quarantined as confirmed-defective.
    pub fn is_quarantined(self) -> bool {
        self.0 == State::Quarantined
    }

    /// Whether the node finished repair but has not returned to service.
    pub fn is_repaired(self) -> bool {
        self.0 == State::Repaired
    }

    /// Whether the node counts toward serving capacity: `Healthy`,
    /// `Busy`, or `Suspect` (a suspect node is still in the fleet — it
    /// only stops taking *new* work).
    pub fn in_service(self) -> bool {
        matches!(self.0, State::Healthy | State::Busy | State::Suspect)
    }

    /// Stable lower-case name, for traces and logs.
    pub fn name(self) -> &'static str {
        match self.0 {
            State::Healthy => "healthy",
            State::Busy => "busy",
            State::Suspect => "suspect",
            State::Validating => "validating",
            State::Quarantined => "quarantined",
            State::Repaired => "repaired",
        }
    }
}

/// Prints the bare variant name (`Healthy`), like a derived enum `Debug`.
impl fmt::Debug for NodeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl fmt::Display for NodeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Events that move a node through the lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleEvent {
    /// The Selector's incident probability crossed the threshold.
    RiskCrossed,
    /// A model refresh lowered the probability back under the threshold.
    RiskCleared,
    /// The orchestrator placed a customer job on the node.
    JobAssigned,
    /// The node's job finished normally.
    JobCompleted,
    /// Validation benchmarks started on the node.
    ValidationStarted,
    /// Validation passed: no defect found.
    ValidationPassed,
    /// Validation confirmed a defect.
    DefectConfirmed,
    /// A customer-visible incident struck the node mid-stress.
    IncidentObserved,
    /// Repair (or hot-buffer swap) finished.
    RepairCompleted,
    /// The repaired node re-entered the serving pool.
    ReturnedToService,
}

impl LifecycleEvent {
    /// Stable lower-kebab name, for traces and logs.
    pub fn name(self) -> &'static str {
        match self {
            Self::RiskCrossed => "risk-crossed",
            Self::RiskCleared => "risk-cleared",
            Self::JobAssigned => "job-assigned",
            Self::JobCompleted => "job-completed",
            Self::ValidationStarted => "validation-started",
            Self::ValidationPassed => "validation-passed",
            Self::DefectConfirmed => "defect-confirmed",
            Self::IncidentObserved => "incident-observed",
            Self::RepairCompleted => "repair-completed",
            Self::ReturnedToService => "returned-to-service",
        }
    }
}

impl fmt::Display for LifecycleEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An event that is illegal in the current state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionError {
    /// The state the event was applied in.
    pub from: NodeState,
    /// The rejected event.
    pub event: LifecycleEvent,
}

impl fmt::Display for TransitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "illegal lifecycle transition: `{}` in state `{}`",
            self.event, self.from
        )
    }
}

impl Error for TransitionError {}

/// The single transition function of the node lifecycle.
///
/// Every state change in the workspace routes through here; the match is
/// exhaustive over the legal pairs and everything else is a
/// [`TransitionError`]. Notable rejections (the discipline the model
/// checker relies on): `Busy` + `ValidationStarted` and `Suspect` +
/// `JobAssigned`.
///
/// # Errors
///
/// Returns [`TransitionError`] when `event` is not legal in `state`.
///
/// # Examples
///
/// ```
/// use anubis_lifecycle::{transition, LifecycleEvent, NodeLifecycle};
///
/// let healthy = NodeLifecycle::new().state();
/// let s = transition(healthy, LifecycleEvent::RiskCrossed).unwrap();
/// assert!(s.is_suspect());
/// // A suspect node cannot take a job before it was validated.
/// assert!(transition(s, LifecycleEvent::JobAssigned).is_err());
/// ```
pub fn transition(state: NodeState, event: LifecycleEvent) -> Result<NodeState, TransitionError> {
    use LifecycleEvent as E;
    use State as S;
    let next = match (state.0, event) {
        // Risk assessment (the Selector).
        (S::Healthy, E::RiskCrossed) => S::Suspect,
        (S::Suspect, E::RiskCrossed) => S::Suspect, // idempotent re-flag
        (S::Suspect, E::RiskCleared) => S::Healthy,
        // Job scheduling: only healthy nodes take work.
        (S::Healthy, E::JobAssigned) => S::Busy,
        (S::Busy, E::JobCompleted) => S::Healthy,
        // Validation (the Validator): suspects only — never a busy node.
        (S::Suspect, E::ValidationStarted) => S::Validating,
        (S::Validating, E::ValidationPassed) => S::Healthy,
        (S::Validating, E::DefectConfirmed) => S::Quarantined,
        // Incidents confirm a defect under stress (job or benchmarks).
        (S::Busy, E::IncidentObserved) => S::Quarantined,
        (S::Validating, E::IncidentObserved) => S::Quarantined,
        // Repair and return to service.
        (S::Quarantined, E::RepairCompleted) => S::Repaired,
        (S::Repaired, E::ReturnedToService) => S::Healthy,
        (_, event) => return Err(TransitionError { from: state, event }),
    };
    Ok(NodeState(next))
}

/// Tracks one node's lifecycle, routing every change through
/// [`transition`].
///
/// The inner state is private on purpose: holders cannot bypass the
/// machine, and no other crate can construct a bare [`NodeState`] to
/// sidestep it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLifecycle {
    state: NodeState,
}

impl Default for NodeLifecycle {
    fn default() -> Self {
        Self::new()
    }
}

impl NodeLifecycle {
    /// A fresh node, starting `Healthy`.
    pub fn new() -> Self {
        Self {
            state: NodeState::HEALTHY,
        }
    }

    /// The current state.
    pub fn state(&self) -> NodeState {
        self.state
    }

    /// Applies `event` through [`transition`], updating the tracked state.
    ///
    /// # Errors
    ///
    /// Returns [`TransitionError`] (state unchanged) when the event is
    /// illegal in the current state.
    pub fn apply(&mut self, event: LifecycleEvent) -> Result<NodeState, TransitionError> {
        let next = transition(self.state, event)?;
        self.state = next;
        Ok(next)
    }

    /// Whether `event` would be legal in the current state.
    pub fn can(&self, event: LifecycleEvent) -> bool {
        transition(self.state(), event).is_ok()
    }

    /// Whether the node counts toward serving capacity.
    pub fn in_service(&self) -> bool {
        self.state().in_service()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LifecycleEvent as E;

    const HEALTHY: NodeState = NodeState(State::Healthy);
    const BUSY: NodeState = NodeState(State::Busy);
    const SUSPECT: NodeState = NodeState(State::Suspect);
    const VALIDATING: NodeState = NodeState(State::Validating);
    const QUARANTINED: NodeState = NodeState(State::Quarantined);
    const REPAIRED: NodeState = NodeState(State::Repaired);

    const ALL_STATES: [NodeState; 6] = [HEALTHY, BUSY, SUSPECT, VALIDATING, QUARANTINED, REPAIRED];
    const ALL_EVENTS: [LifecycleEvent; 10] = [
        E::RiskCrossed,
        E::RiskCleared,
        E::JobAssigned,
        E::JobCompleted,
        E::ValidationStarted,
        E::ValidationPassed,
        E::DefectConfirmed,
        E::IncidentObserved,
        E::RepairCompleted,
        E::ReturnedToService,
    ];

    #[test]
    fn happy_path_through_the_whole_lifecycle() {
        let mut life = NodeLifecycle::new();
        assert!(life.state().is_healthy());
        assert_eq!(life.apply(E::RiskCrossed).unwrap(), SUSPECT);
        assert_eq!(life.apply(E::ValidationStarted).unwrap(), VALIDATING);
        assert_eq!(life.apply(E::DefectConfirmed).unwrap(), QUARANTINED);
        assert_eq!(life.apply(E::RepairCompleted).unwrap(), REPAIRED);
        assert_eq!(life.apply(E::ReturnedToService).unwrap(), HEALTHY);
        assert_eq!(life.apply(E::JobAssigned).unwrap(), BUSY);
        assert_eq!(life.apply(E::JobCompleted).unwrap(), HEALTHY);
    }

    #[test]
    fn busy_node_never_starts_validation() {
        assert!(transition(BUSY, E::ValidationStarted).is_err());
    }

    #[test]
    fn suspect_node_never_takes_a_job() {
        assert!(transition(SUSPECT, E::JobAssigned).is_err());
    }

    #[test]
    fn validation_requires_a_crossed_threshold() {
        assert!(transition(HEALTHY, E::ValidationStarted).is_err());
    }

    #[test]
    fn failed_apply_leaves_state_unchanged() {
        let mut life = NodeLifecycle::new();
        life.apply(E::JobAssigned).unwrap();
        let err = life.apply(E::ValidationStarted).unwrap_err();
        assert_eq!(err.from, BUSY);
        assert_eq!(err.event, E::ValidationStarted);
        assert!(life.state().is_busy());
    }

    #[test]
    fn exactly_the_documented_pairs_are_legal() {
        let mut legal = 0usize;
        for &state in &ALL_STATES {
            for &event in &ALL_EVENTS {
                if transition(state, event).is_ok() {
                    legal += 1;
                }
            }
        }
        assert_eq!(legal, 12, "transition table size is pinned");
    }

    #[test]
    fn in_service_matches_states() {
        for &state in &ALL_STATES {
            let expected = matches!(state.0, State::Healthy | State::Busy | State::Suspect);
            assert_eq!(state.in_service(), expected, "{state}");
        }
    }

    #[test]
    fn predicates_and_names_are_consistent() {
        assert!(HEALTHY.is_healthy());
        assert!(BUSY.is_busy());
        assert!(SUSPECT.is_suspect());
        assert!(VALIDATING.is_validating());
        assert!(QUARANTINED.is_quarantined());
        assert!(REPAIRED.is_repaired());
        let names: Vec<&str> = ALL_STATES.iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn error_display_names_state_and_event() {
        let err = transition(BUSY, E::ValidationStarted).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("validation-started"), "{text}");
        assert!(text.contains("busy"), "{text}");
    }

    // The state-enumerating properties: exhaustive over every state, so
    // they live here, where the variants can be named.

    /// Discipline property 2 at the machine level: `ValidationStarted`
    /// succeeds from `Suspect` and from nowhere else — in particular never
    /// from `Busy` (no validation on a node serving a job).
    #[test]
    fn validation_only_starts_on_suspects() {
        for state in ALL_STATES {
            let outcome = transition(state, E::ValidationStarted);
            assert_eq!(outcome.is_ok(), state.is_suspect(), "{state}");
        }
    }

    /// Jobs only land on healthy nodes: a crossed threshold (`Suspect`)
    /// can never be skipped by scheduling work onto the node.
    #[test]
    fn jobs_only_land_on_healthy_nodes() {
        for state in ALL_STATES {
            let outcome = transition(state, E::JobAssigned);
            assert_eq!(outcome.is_ok(), state.is_healthy(), "{state}");
        }
    }

    /// `in_service` changes under legal transitions only where the
    /// capacity property expects: only `ValidationStarted` and
    /// `IncidentObserved` take a node out of service, and only
    /// `ValidationPassed` and `ReturnedToService` bring one back.
    #[test]
    fn service_membership_changes_only_at_known_events() {
        for state in ALL_STATES {
            for event in ALL_EVENTS {
                let Ok(next) = transition(state, event) else {
                    continue;
                };
                if state.in_service() && !next.in_service() {
                    assert!(
                        matches!(event, E::ValidationStarted | E::IncidentObserved),
                        "{state} --{event}--> {next}"
                    );
                }
                if !state.in_service() && next.in_service() {
                    assert!(
                        matches!(event, E::ValidationPassed | E::ReturnedToService),
                        "{state} --{event}--> {next}"
                    );
                }
            }
        }
    }

    #[test]
    fn debug_prints_the_bare_variant() {
        assert_eq!(format!("{HEALTHY:?}"), "Healthy");
        assert_eq!(format!("{QUARANTINED:?}"), "Quarantined");
    }
}
