//! Property-based harness driving the lifecycle machine through
//! randomized event streams. The properties that enumerate every state
//! live in `machine.rs`'s unit tests: `NodeState`'s variants cannot be
//! named outside the crate. The coordinator that applies these events is
//! model-checked in `anubis-fleetd` (`coordinator/modelcheck.rs`).

use anubis_lifecycle::{transition, LifecycleEvent, NodeLifecycle};
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
