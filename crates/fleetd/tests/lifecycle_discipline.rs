//! Lifecycle discipline of the coordinator: every state change the
//! service makes goes through `anubis_lifecycle::transition` — verified
//! by replaying the table's transition journal against the bare
//! transition function over randomized service configurations.

use anubis_fleetd::{Coordinator, FleetdConfig};
use anubis_lifecycle::transition;
use proptest::prelude::*;

/// Runs the service with the journal on and returns the coordinator.
fn run_journaled(cfg: FleetdConfig) -> Coordinator {
    let ticks = cfg.ticks;
    let mut fleet = Coordinator::new(cfg);
    fleet.enable_journal();
    fleet.run(ticks, |_| {});
    fleet
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For arbitrary fleet shapes, every journaled transition is exactly
    /// a legal `transition(from, event)` step, and consecutive records of
    /// one node chain (each `from` equals the node's previous `to`).
    #[test]
    fn every_observed_transition_is_legal(
        nodes in 50u32..300,
        shards in 1u32..9,
        ticks in 10u32..50,
        seed in 0u64..1000,
    ) {
        let fleet = run_journaled(FleetdConfig {
            nodes,
            shards,
            ticks,
            threads: 1,
            seed,
            ..FleetdConfig::default()
        });
        let journal = fleet.table().journal();
        let mut last: Vec<Option<anubis_lifecycle::NodeState>> =
            vec![None; nodes as usize];
        for record in journal {
            prop_assert_eq!(
                transition(record.from, record.event),
                Ok(record.to),
                "journaled step must be a legal transition: node {} {:?} --{:?}--> {:?}",
                record.node, record.from, record.event, record.to
            );
            if let Some(prev) = last[record.node as usize] {
                prop_assert_eq!(
                    prev, record.from,
                    "node {}'s journal must chain", record.node
                );
            }
            last[record.node as usize] = Some(record.to);
        }
        // The journal replays to the final table state.
        for (node, state) in fleet.table().states().iter().enumerate() {
            if let Some(final_state) = last[node] {
                prop_assert_eq!(final_state, *state);
            } else {
                prop_assert!(state.is_healthy(), "untouched nodes stay healthy");
            }
        }
    }
}

#[test]
fn journal_is_nontrivial_under_stress() {
    // A deterministic config known to exercise the whole machine, so the
    // property above is not vacuously true on an empty journal.
    let fleet = run_journaled(FleetdConfig {
        nodes: 400,
        shards: 4,
        ticks: 120,
        threads: 1,
        ..FleetdConfig::default()
    });
    let journal = fleet.table().journal();
    assert!(
        journal.len() > 1000,
        "120 stressed ticks should journal thousands of transitions, got {}",
        journal.len()
    );
    use anubis_lifecycle::LifecycleEvent as E;
    for event in [
        E::RiskCrossed,
        E::JobAssigned,
        E::JobCompleted,
        E::ValidationStarted,
        E::ValidationPassed,
        E::IncidentObserved,
        E::RepairCompleted,
        E::ReturnedToService,
    ] {
        assert!(
            journal.iter().any(|r| r.event == event),
            "the run should exercise {event:?}"
        );
    }
}
