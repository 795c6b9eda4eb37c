//! Property-based tests for cluster-simulation invariants.

use anubis_benchsuite::BenchmarkId;
use anubis_cluster::policy::ValidationDecision;
use anubis_cluster::{simulate, ClusterSimConfig, Policy};
use anubis_hwsim::fault::IncidentCategory;
use anubis_hwsim::testutil::seeded_rng;
use anubis_selector::select::joint_incident_probability;
use anubis_selector::{CoverageTable, NodeStatus, Selector, SelectorConfig, SurvivalModel};
use anubis_traces::{generate_allocation_trace, AllocationConfig};
use proptest::prelude::*;

/// Per-node risk that grows with the node's incident count, so the joint
/// probability depends on which statuses are in the set.
#[derive(Clone, Copy)]
struct CountModel {
    rate: f64,
}

impl SurvivalModel for CountModel {
    fn expected_tbni(&self, status: &NodeStatus) -> f64 {
        1.0 / (self.rate * f64::from(1 + status.incident_count))
    }

    fn incident_probability(&self, status: &NodeStatus, horizon: f64) -> f64 {
        1.0 - (-horizon / self.expected_tbni(status)).exp()
    }
}

/// The Selector decision as two calls — the `should_validate` gate, then
/// `select`, then the table's coverage of the subset — as bits.
fn two_call_reference(selector: &Selector, statuses: &[NodeStatus], horizon: f64) -> (u64, u64) {
    if !selector.should_validate(statuses, horizon) {
        return bits(&ValidationDecision::SKIP);
    }
    let subset = selector.select(statuses, horizon);
    if subset.is_empty() {
        return bits(&ValidationDecision::SKIP);
    }
    let hours = BenchmarkId::total_runtime_minutes(&subset) / 60.0;
    (
        hours.to_bits(),
        selector.coverage().coverage(&subset).to_bits(),
    )
}

fn bits(decision: &ValidationDecision) -> (u64, u64) {
    (
        decision.duration_hours.to_bits(),
        decision.coverage.to_bits(),
    )
}

proptest! {
    /// `Policy::Selector` decides with one `select` call; it must match
    /// the two-call reference bit for bit, before a job and after an
    /// incident, including at a joint probability of exactly p₀ and with
    /// no coverage history.
    #[test]
    fn selector_decision_matches_the_two_call_reference(
        nodes in prop::collection::vec((0.0f64..2000.0, 0u32..5), 1..12),
        horizon in 1.0f64..96.0,
        log_rate in -5.0f64..-1.5,
        p0 in 0.0f64..1.0,
        records in prop::collection::vec((0usize..31, 0u64..60), 1..80),
        with_history in any::<bool>(),
    ) {
        let mut history = CoverageTable::new();
        for &(bench, defect) in records.iter().filter(|_| with_history) {
            history.record(BenchmarkId::ALL[bench], defect);
        }
        let statuses: Vec<NodeStatus> = nodes
            .iter()
            .map(|&(hours, incidents)| {
                let mut status = NodeStatus::fresh();
                status.advance(hours);
                for _ in 0..incidents {
                    status.record_incident(IncidentCategory::GpuCompute);
                }
                status
            })
            .collect();
        let model = CountModel { rate: 10f64.powf(log_rate) };
        let p_joint = joint_incident_probability(&model, &statuses, horizon);
        for p0 in [p0, p_joint] {
            let config = SelectorConfig { p0 };
            let selector = Selector::new(Box::new(model), history.clone(), config);
            let policy = Policy::Selector(&selector);
            let decision = policy.decide(&statuses, horizon, &mut seeded_rng(0));
            prop_assert_eq!(bits(&decision), two_call_reference(&selector, &statuses, horizon));
            if p0 == p_joint {
                prop_assert_eq!(decision, ValidationDecision::SKIP);
            }
            let after = policy.decide_post_incident(&statuses[0], &mut seeded_rng(0));
            prop_assert_eq!(bits(&after), two_call_reference(&selector, &statuses[..1], 24.0));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Physical bounds hold under any seed and policy: utilization in
    /// [0, 1], non-negative accounting, and total accounted time per node
    /// never wildly exceeds the horizon.
    #[test]
    fn outcomes_are_physical(seed in 0u64..500, policy_idx in 0usize..3) {
        let config = ClusterSimConfig { nodes: 24, horizon_hours: 240.0, seed, ..Default::default() };
        let trace = generate_allocation_trace(&AllocationConfig {
            duration_hours: 240.0,
            seed: seed ^ 0xfeed,
            ..AllocationConfig::stressed(24)
        });
        let policy = match policy_idx {
            0 => Policy::Absence,
            1 => Policy::FullSet,
            _ => Policy::Ideal,
        };
        let outcome = simulate(&config, &trace, &policy);
        prop_assert!((0.0..=1.0).contains(&outcome.avg_utilization));
        prop_assert!(outcome.avg_validation_hours >= 0.0);
        prop_assert!(outcome.avg_repair_hours >= 0.0);
        prop_assert!(outcome.mtbi_hours >= 0.0);
        prop_assert!(outcome.incidents_per_node >= 0.0);
        let accounted = outcome.avg_utilization * config.horizon_hours
            + outcome.avg_validation_hours
            + outcome.avg_repair_hours;
        prop_assert!(accounted <= config.horizon_hours * 1.2, "accounted {accounted}");
        // Daily buckets are proper utilizations.
        for &u in &outcome.daily_utilization {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&u));
        }
    }

    /// The ideal policy dominates absence on every quality metric, for
    /// any seed.
    #[test]
    fn ideal_dominates_absence(seed in 0u64..200) {
        let config = ClusterSimConfig { nodes: 24, horizon_hours: 240.0, seed, ..Default::default() };
        let trace = generate_allocation_trace(&AllocationConfig {
            duration_hours: 240.0,
            seed: seed ^ 0xabcd,
            ..AllocationConfig::stressed(24)
        });
        let ideal = simulate(&config, &trace, &Policy::Ideal);
        let absence = simulate(&config, &trace, &Policy::Absence);
        prop_assert!(ideal.avg_utilization >= absence.avg_utilization);
        // Note: completed-job *counts* are not comparable — absence churns
        // through short fragments while ideal may be mid-flight on long
        // jobs at the horizon — so compare delivered busy time instead.
        prop_assert_eq!(ideal.jobs_interrupted, 0);
        prop_assert_eq!(ideal.incidents_per_node, 0.0);
    }

    /// Customer-visible incidents never exceed total incidents.
    #[test]
    fn incident_accounting_is_consistent(seed in 0u64..200) {
        let config = ClusterSimConfig { nodes: 16, horizon_hours: 240.0, seed, ..Default::default() };
        let trace = generate_allocation_trace(&AllocationConfig {
            duration_hours: 240.0,
            seed,
            ..AllocationConfig::stressed(16)
        });
        let outcome = simulate(&config, &trace, &Policy::FullSet);
        prop_assert!(
            outcome.customer_incidents_per_node <= outcome.incidents_per_node + 1e-9
        );
    }
}
