//! Property-based harness driving the lifecycle machine through
//! randomized event streams. The properties that enumerate every state
//! live in `machine.rs`'s unit tests: `NodeState`'s variants cannot be
//! named outside the crate. The coordinator that applies these events is
//! model-checked in `anubis-fleetd` (`coordinator/modelcheck.rs`).

use anubis_lifecycle::{transition, LifecycleEvent, LifecycleTable, NodeLifecycle};
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

    /// `LifecycleTable::next_healthy` (a word scan of the healthy bitset)
    /// agrees with a linear scan of `states()` from every start, past the
    /// end included, after random transitions. The sizes straddle the
    /// bitset's 64-node words.
    #[test]
    fn next_healthy_matches_a_linear_scan(
        nodes in prop::sample::select(vec![0usize, 1, 63, 64, 65, 130]),
        steps in prop::collection::vec((0usize..130, arb_event()), 0..400)
    ) {
        let mut table = LifecycleTable::new(nodes);
        // Round 0 checks the fresh table.
        let rounds = std::iter::once(&steps[..0]).chain(steps.chunks(100));
        for (round, chunk) in rounds.enumerate() {
            for &(node, event) in chunk {
                // Illegal events are rejected and change nothing.
                table.apply_if_legal(node % nodes.max(1), event);
            }
            let states = table.states();
            for from in 0..nodes + 66 {
                let linear = states
                    .iter()
                    .enumerate()
                    .skip(from)
                    .find(|(_, state)| state.is_healthy())
                    .map(|(node, _)| node);
                prop_assert_eq!(table.next_healthy(from), linear, "round {}, from {}", round, from);
            }
            prop_assert_eq!(
                (0..nodes).filter(|&n| table.next_healthy(n) == Some(n)).count(),
                table.counts().healthy
            );
        }
    }
}
