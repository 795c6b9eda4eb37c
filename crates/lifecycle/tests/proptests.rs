//! Property-based harnesses driving the lifecycle machine and the
//! coordinator model through randomized event streams.
//!
//! These complement the exhaustive enumerator in `model.rs`: the
//! enumerator proves the three properties for small bounded models, and
//! these proptests hammer the same invariants along random walks through
//! larger configurations. The properties that enumerate every state live
//! in `machine.rs`'s unit tests: `NodeState`'s variants cannot be named
//! outside the crate.

use anubis_lifecycle::{
    check_model, transition, CoordinatorBugs, LifecycleEvent, ModelConfig, NodeLifecycle, Property,
};
use proptest::prelude::*;

const ALL_EVENTS: [LifecycleEvent; 10] = [
    LifecycleEvent::RiskCrossed,
    LifecycleEvent::RiskCleared,
    LifecycleEvent::JobAssigned,
    LifecycleEvent::JobCompleted,
    LifecycleEvent::ValidationStarted,
    LifecycleEvent::ValidationPassed,
    LifecycleEvent::DefectConfirmed,
    LifecycleEvent::IncidentObserved,
    LifecycleEvent::RepairCompleted,
    LifecycleEvent::ReturnedToService,
];

fn arb_event() -> impl Strategy<Value = LifecycleEvent> {
    (0usize..ALL_EVENTS.len()).prop_map(|i| ALL_EVENTS[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any event stream applied through `NodeLifecycle` keeps the node in
    /// a reachable, well-defined state, and every rejected event leaves
    /// the state untouched.
    #[test]
    fn random_event_streams_never_corrupt_state(
        events in prop::collection::vec(arb_event(), 0..64)
    ) {
        let mut life = NodeLifecycle::new();
        for event in events {
            let before = life.state();
            match life.apply(event) {
                Ok(next) => {
                    prop_assert_eq!(next, life.state());
                    // The wrapper agrees with the bare transition function.
                    prop_assert_eq!(transition(before, event), Ok(next));
                }
                Err(err) => {
                    prop_assert_eq!(life.state(), before);
                    prop_assert_eq!(err.from, before);
                    prop_assert_eq!(err.event, event);
                }
            }
        }
    }
}

fn arb_config() -> impl Strategy<Value = ModelConfig> {
    (3usize..=5, 1usize..=2, 0usize..=3, 0usize..=3, 0usize..=2).prop_map(
        |(nodes, floor, jobs, risk, incidents)| ModelConfig {
            nodes,
            min_in_service: floor.min(nodes - 1),
            jobs,
            risk_crossings: risk,
            incidents,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The correct coordinator satisfies all three properties on every
    /// valid small configuration, not just the defaults.
    #[test]
    fn correct_coordinator_holds_on_random_configs(cfg in arb_config()) {
        let outcome = check_model(&cfg, &CoordinatorBugs::default()).unwrap();
        prop_assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
    }

    /// Every injected bug that is reachable under the configuration's
    /// budgets produces a violation of exactly its matching property, and
    /// the counterexample trace replays from the initial state.
    #[test]
    fn injected_bugs_violate_their_property(cfg in arb_config(), which in 0usize..3) {
        let (bugs, expected) = match which {
            0 => (
                CoordinatorBugs { forget_pending_risk: true, ..Default::default() },
                Property::EventualValidation,
            ),
            1 => (
                CoordinatorBugs { validate_while_busy: true, ..Default::default() },
                Property::NoValidationWhileServing,
            ),
            _ => (
                CoordinatorBugs { ignore_capacity_floor: true, ..Default::default() },
                Property::CapacityFloor,
            ),
        };
        let outcome = check_model(&cfg, &bugs).unwrap();
        if let Some(violation) = outcome.violation {
            prop_assert_eq!(violation.property, expected);
            prop_assert!(violation.trace.first().is_some_and(|s| s.starts_with("initial:")));
        } else {
            // The bug needs at least one job + one crossing (and for the
            // floor bug, a floor that can actually be crossed) to fire.
            prop_assert!(cfg.jobs == 0 || cfg.risk_crossings == 0 || which == 2);
        }
    }
}
