//! The top-level ANUBIS system object.

use crate::events::{EventOutcome, ValidationEvent};
use anubis_benchsuite::{BenchmarkId, SuiteError};
use anubis_hwsim::{NodeId, NodeSim};
use anubis_lifecycle::{LifecycleEvent, NodeLifecycle};
use anubis_netsim::FatTree;
use anubis_selector::{NodeStatus, Selector};
use anubis_validator::{Validator, ValidatorConfig};
use std::collections::BTreeMap;

/// System configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnubisConfig {
    /// Validator configuration (similarity threshold, centroid method).
    pub validator: ValidatorConfig,
}

/// The ANUBIS proactive-validation system (paper Figure 7).
///
/// Owns the Validator and the (optional, because it requires a fitted
/// survival model) Selector, tracks node statuses, and handles
/// orchestration events. Newly-found defects feed the Selector's coverage
/// history, closing the paper's evolution loop.
///
/// # Examples
///
/// ```
/// use anubis::{Anubis, AnubisConfig, ValidationEvent};
/// use anubis::hwsim::{NodeId, NodeSim, NodeSpec};
///
/// let mut system = Anubis::new(AnubisConfig::default());
/// let mut nodes: Vec<NodeSim> =
///     (0..8).map(|i| NodeSim::new(NodeId(i), NodeSpec::a100_8x(), 3)).collect();
/// let members: Vec<usize> = (0..8).collect();
/// // Cluster build-out: full-set run + criteria learning.
/// let outcome = system
///     .handle_event(&ValidationEvent::NodesAdded, &mut nodes, &members, None)
///     .unwrap();
/// assert!(outcome.validated);
/// ```
#[derive(Debug)]
pub struct Anubis {
    validator: Validator,
    selector: Option<Selector>,
    statuses: BTreeMap<NodeId, NodeStatus>,
    lives: BTreeMap<NodeId, NodeLifecycle>,
    defect_counter: u64,
}

impl Anubis {
    /// Creates the system with no criteria learned and no Selector.
    pub fn new(config: AnubisConfig) -> Self {
        Self {
            validator: Validator::new(config.validator),
            selector: None,
            statuses: BTreeMap::new(),
            lives: BTreeMap::new(),
            defect_counter: 0,
        }
    }

    /// Installs a Selector (survival model + coverage history).
    pub fn with_selector(mut self, selector: Selector) -> Self {
        self.selector = Some(selector);
        self
    }

    /// The Validator.
    pub fn validator(&self) -> &Validator {
        &self.validator
    }

    /// The Selector, if installed.
    pub fn selector(&self) -> Option<&Selector> {
        self.selector.as_ref()
    }

    /// Current status of a node (fresh if never seen).
    pub fn status_of(&self, node: NodeId) -> NodeStatus {
        self.statuses.get(&node).copied().unwrap_or_default()
    }

    /// Current lifecycle of a node (healthy if never seen). All changes
    /// route through the `anubis-lifecycle` transition function.
    pub fn lifecycle_of(&self, node: NodeId) -> NodeLifecycle {
        self.lives.get(&node).copied().unwrap_or_default()
    }

    /// Applies a lifecycle event to a node when it is legal in the node's
    /// current state, returning whether it was applied.
    ///
    /// Silently gated rather than asserted: the managed fleet can
    /// legitimately hold nodes whose machine state rejects an event — a
    /// defective node the caller keeps in its node set stays `Quarantined`
    /// through repeated re-validation, and a repaired node stays
    /// `Quarantined` until a validation pass re-certifies it.
    fn drive(&mut self, node: NodeId, event: LifecycleEvent) -> bool {
        let life = self.lives.entry(node).or_default();
        if life.can(event) {
            life.apply(event).is_ok()
        } else {
            false
        }
    }

    /// Records validation verdicts for every node in `ids`: flagged nodes
    /// are quarantined; the rest leave validation healthy. A `Quarantined`
    /// node that passes is re-certified (repair completed, returned to
    /// service).
    fn record_verdicts(&mut self, ids: &[NodeId], flagged: &BTreeMap<NodeId, Vec<BenchmarkId>>) {
        for &id in ids {
            if flagged.contains_key(&id) {
                self.drive(id, LifecycleEvent::DefectConfirmed);
            } else if self.lifecycle_of(id).state().is_quarantined() {
                self.drive(id, LifecycleEvent::RepairCompleted);
                self.drive(id, LifecycleEvent::ReturnedToService);
            } else {
                self.drive(id, LifecycleEvent::ValidationPassed);
            }
        }
    }

    /// Advances every tracked node's clocks (call as simulated time
    /// passes).
    pub fn advance_hours(&mut self, hours: f64) {
        for status in self.statuses.values_mut() {
            status.advance(hours);
        }
    }

    /// Handles an orchestration event over the given node set.
    ///
    /// `members[i]` is the fabric index of `nodes[i]`; `fabric` is needed
    /// only when multi-node benchmarks end up selected.
    ///
    /// # Errors
    ///
    /// [`SuiteError::MemberMismatch`] when `members` and `nodes` differ in
    /// length, before any node's status or lifecycle is touched; otherwise
    /// whatever the Validator's benchmark run returns.
    pub fn handle_event(
        &mut self,
        event: &ValidationEvent,
        nodes: &mut [NodeSim],
        members: &[usize],
        fabric: Option<&FatTree>,
    ) -> Result<EventOutcome, SuiteError> {
        if nodes.len() != members.len() {
            return Err(SuiteError::MemberMismatch {
                nodes: nodes.len(),
                members: members.len(),
            });
        }
        for node in nodes.iter() {
            self.statuses.entry(node.id()).or_default();
            self.lives.entry(node.id()).or_default();
        }
        let ids: Vec<NodeId> = nodes.iter().map(NodeSim::id).collect();
        let _span = anubis_obs::span!(match event {
            ValidationEvent::NodesAdded => "event.nodes_added",
            ValidationEvent::JobAllocation { .. } => "event.job_allocation",
            ValidationEvent::RegularCheck { .. } => "event.regular_check",
            ValidationEvent::IncidentReported { .. } => "event.incident_reported",
        });
        match event {
            ValidationEvent::NodesAdded => {
                // Quality gate: full set, criteria learned from this run.
                // Build-out treats every unknown node as having crossed the
                // risk threshold — it must prove itself before serving.
                for &id in &ids {
                    self.drive(id, LifecycleEvent::RiskCrossed);
                    self.drive(id, LifecycleEvent::ValidationStarted);
                }
                let single = BenchmarkId::single_node();
                let set: Vec<BenchmarkId> = if fabric.is_some() {
                    BenchmarkId::ALL.to_vec()
                } else {
                    single
                };
                let report = self.validator.validate(&set, nodes, members, fabric)?;
                // Bootstrap: (re)learn criteria on the gathered data, then
                // re-filter with the fresh criteria.
                self.validator
                    .learn_criteria(&report.data)
                    .map_err(SuiteError::Metrics)?;
                let outcome = self.validator.filter_data(&report.data);
                self.record_defects(&outcome.flagged);
                self.record_verdicts(&ids, &outcome.flagged);
                Ok(EventOutcome {
                    validated: true,
                    benchmarks: set,
                    defective: outcome.defective_nodes(),
                    duration_minutes: report.duration_minutes,
                })
            }
            ValidationEvent::JobAllocation { horizon_hours }
            | ValidationEvent::RegularCheck { horizon_hours } => {
                let statuses: Vec<NodeStatus> =
                    nodes.iter().map(|n| self.status_of(n.id())).collect();
                let subset = match &self.selector {
                    // `select` returns an empty subset exactly when the
                    // joint risk is ≤ p₀ (what `assess` maps to
                    // `RiskCleared`): the event becomes a skip below.
                    Some(selector) => selector.select(&statuses, *horizon_hours),
                    // Without a Selector, fall back to the full set (the
                    // conservative quality-gate behaviour).
                    None => BenchmarkId::ALL.to_vec(),
                };
                if subset.is_empty() {
                    // Release any node still flagged from an earlier
                    // crossing; the model refresh lowered its risk.
                    for &id in &ids {
                        self.drive(id, LifecycleEvent::RiskCleared);
                    }
                    return Ok(EventOutcome::skipped());
                }
                let subset: Vec<BenchmarkId> = subset
                    .into_iter()
                    .filter(|b| {
                        fabric.is_some() || b.spec().phase == anubis_benchsuite::Phase::SingleNode
                    })
                    .collect();
                for &id in &ids {
                    self.drive(id, LifecycleEvent::RiskCrossed);
                    self.drive(id, LifecycleEvent::ValidationStarted);
                }
                let report = self.validator.validate(&subset, nodes, members, fabric)?;
                self.record_defects(&report.flagged);
                self.record_verdicts(&ids, &report.flagged);
                Ok(EventOutcome {
                    validated: true,
                    benchmarks: subset,
                    defective: report.defective_nodes(),
                    duration_minutes: report.duration_minutes,
                })
            }
            ValidationEvent::IncidentReported { node, category } => {
                if let Some(status) = self.statuses.get_mut(node) {
                    status.record_incident(*category);
                }
                // Cordoned node: validate it alone with a Selector subset
                // (or the full single-node set without one).
                let Some(idx) = nodes.iter().position(|n| n.id() == *node) else {
                    return Ok(EventOutcome::skipped());
                };
                let status = self.status_of(*node);
                let subset: Vec<BenchmarkId> = match &self.selector {
                    Some(selector) => selector.select_from(
                        std::slice::from_ref(&status),
                        24.0,
                        &BenchmarkId::single_node(),
                    ),
                    None => BenchmarkId::single_node(),
                };
                if subset.is_empty() {
                    return Ok(EventOutcome::skipped());
                }
                // The incident is this node's threshold crossing.
                self.drive(*node, LifecycleEvent::RiskCrossed);
                self.drive(*node, LifecycleEvent::ValidationStarted);
                let node_slice = &mut nodes[idx..=idx];
                let report =
                    self.validator
                        .validate(&subset, node_slice, &members[idx..=idx], None)?;
                self.record_defects(&report.flagged);
                self.record_verdicts(std::slice::from_ref(node), &report.flagged);
                Ok(EventOutcome {
                    validated: true,
                    benchmarks: subset,
                    defective: report.defective_nodes(),
                    duration_minutes: report.duration_minutes,
                })
            }
        }
    }

    /// Feeds found defects into the Selector's coverage history (the
    /// evolution loop of Figure 7).
    fn record_defects(&mut self, flagged: &BTreeMap<NodeId, Vec<BenchmarkId>>) {
        anubis_obs::counter!("system.defective_nodes", flagged.len() as i64);
        let Some(selector) = &mut self.selector else {
            return;
        };
        for benches in flagged.values() {
            let defect_id = self.defect_counter;
            self.defect_counter += 1;
            for &bench in benches {
                selector.coverage_mut().record(bench, defect_id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anubis_hwsim::fault::IncidentCategory;
    use anubis_hwsim::{FaultKind, NodeSpec};
    use anubis_selector::{CoverageTable, ExponentialModel, SelectorConfig};

    fn fleet(n: u32, seed: u64) -> (Vec<NodeSim>, Vec<usize>) {
        let nodes: Vec<NodeSim> = (0..n)
            .map(|i| NodeSim::new(NodeId(i), NodeSpec::a100_8x(), seed))
            .collect();
        let members = (0..n as usize).collect();
        (nodes, members)
    }

    fn risky_selector() -> Selector {
        let mut coverage = CoverageTable::new();
        for d in 0..10u64 {
            coverage.record(BenchmarkId::GpuGemmFp16, d);
        }
        for d in 5..12u64 {
            coverage.record(BenchmarkId::IbHcaLoopback, d);
        }
        Selector::new(
            Box::new(ExponentialModel { rate: 0.02 }),
            coverage,
            SelectorConfig::default(),
        )
    }

    #[test]
    fn nodes_added_learns_criteria_and_flags_defects() {
        let mut system = Anubis::new(AnubisConfig::default());
        let (mut nodes, members) = fleet(12, 5);
        nodes[3].inject_fault(FaultKind::PcieDowngrade { severity: 0.5 });
        let outcome = system
            .handle_event(&ValidationEvent::NodesAdded, &mut nodes, &members, None)
            .unwrap();
        assert!(outcome.validated);
        assert!(
            outcome.defective.contains(&NodeId(3)),
            "{:?}",
            outcome.defective
        );
        assert!(!system.validator().filter().is_empty(), "criteria learned");
    }

    #[test]
    fn job_allocation_without_selector_runs_full_single_node_set() {
        let mut system = Anubis::new(AnubisConfig::default());
        let (mut nodes, members) = fleet(6, 7);
        // Bootstrap criteria first.
        system
            .handle_event(&ValidationEvent::NodesAdded, &mut nodes, &members, None)
            .unwrap();
        let outcome = system
            .handle_event(
                &ValidationEvent::JobAllocation {
                    horizon_hours: 24.0,
                },
                &mut nodes,
                &members,
                None,
            )
            .unwrap();
        assert!(outcome.validated);
        assert!(outcome.benchmarks.len() >= BenchmarkId::single_node().len());
    }

    #[test]
    fn selector_skips_then_selects_subset() {
        let (mut nodes, members) = fleet(4, 9);
        // A selector with a negligible incident rate: validation skipped.
        let safe = Selector::new(
            Box::new(ExponentialModel { rate: 1e-9 }),
            CoverageTable::new(),
            SelectorConfig::default(),
        );
        let mut system = Anubis::new(AnubisConfig::default()).with_selector(safe);
        system
            .handle_event(&ValidationEvent::NodesAdded, &mut nodes, &members, None)
            .unwrap();
        let outcome = system
            .handle_event(
                &ValidationEvent::JobAllocation {
                    horizon_hours: 24.0,
                },
                &mut nodes,
                &members,
                None,
            )
            .unwrap();
        assert!(!outcome.validated, "low risk skips validation");

        // A risky selector picks a small subset instead.
        let mut system = Anubis::new(AnubisConfig::default()).with_selector(risky_selector());
        system
            .handle_event(&ValidationEvent::NodesAdded, &mut nodes, &members, None)
            .unwrap();
        let outcome = system
            .handle_event(
                &ValidationEvent::JobAllocation {
                    horizon_hours: 24.0,
                },
                &mut nodes,
                &members,
                None,
            )
            .unwrap();
        assert!(outcome.validated);
        assert!(
            outcome.benchmarks.len() < BenchmarkId::ALL.len() / 2,
            "subset, not the full suite: {:?}",
            outcome.benchmarks
        );
    }

    #[test]
    fn incident_updates_status_and_validates_the_node() {
        let (mut nodes, members) = fleet(4, 11);
        let mut system = Anubis::new(AnubisConfig::default()).with_selector(risky_selector());
        system
            .handle_event(&ValidationEvent::NodesAdded, &mut nodes, &members, None)
            .unwrap();
        nodes[2].inject_fault(FaultKind::GpuComputeDegraded { severity: 0.4 });
        let outcome = system
            .handle_event(
                &ValidationEvent::IncidentReported {
                    node: NodeId(2),
                    category: IncidentCategory::GpuCompute,
                },
                &mut nodes,
                &members,
                None,
            )
            .unwrap();
        assert_eq!(system.status_of(NodeId(2)).incident_count, 1);
        assert!(outcome.validated);
        assert_eq!(outcome.defective, vec![NodeId(2)]);
    }

    #[test]
    fn defects_feed_coverage_history() {
        let (mut nodes, members) = fleet(8, 13);
        let mut system = Anubis::new(AnubisConfig::default()).with_selector(risky_selector());
        system
            .handle_event(&ValidationEvent::NodesAdded, &mut nodes, &members, None)
            .unwrap();
        let before = system.selector().unwrap().coverage().total_defects();
        nodes[1].inject_fault(FaultKind::DiskSlow { severity: 0.6 });
        system
            .handle_event(
                &ValidationEvent::RegularCheck {
                    horizon_hours: 48.0,
                },
                &mut nodes,
                &members,
                None,
            )
            .unwrap();
        let after = system.selector().unwrap().coverage().total_defects();
        // The disk defect is only recorded if the selected subset included
        // a disk benchmark; at minimum the counter never decreases.
        assert!(after >= before);
    }

    #[test]
    fn lifecycle_tracks_build_out_verdicts() {
        let mut system = Anubis::new(AnubisConfig::default());
        let (mut nodes, members) = fleet(12, 5);
        nodes[3].inject_fault(FaultKind::PcieDowngrade { severity: 0.5 });
        system
            .handle_event(&ValidationEvent::NodesAdded, &mut nodes, &members, None)
            .unwrap();
        assert!(system.lifecycle_of(NodeId(3)).state().is_quarantined());
        assert!(system.lifecycle_of(NodeId(0)).state().is_healthy());
        assert!(
            system.lifecycle_of(NodeId(99)).state().is_healthy(),
            "unknown node is fresh"
        );
    }

    #[test]
    fn passing_validation_recertifies_a_quarantined_node() {
        let mut system = Anubis::new(AnubisConfig::default());
        let (mut nodes, members) = fleet(8, 5);
        nodes[2].inject_fault(FaultKind::GpuComputeDegraded { severity: 0.4 });
        system
            .handle_event(&ValidationEvent::NodesAdded, &mut nodes, &members, None)
            .unwrap();
        assert!(system.lifecycle_of(NodeId(2)).state().is_quarantined());
        // Hardware replaced behind the same id; the next check passes and
        // re-certifies the node (repair completed, returned to service).
        nodes[2] = NodeSim::new(NodeId(2), NodeSpec::a100_8x(), 5);
        let outcome = system
            .handle_event(
                &ValidationEvent::RegularCheck {
                    horizon_hours: 24.0,
                },
                &mut nodes,
                &members,
                None,
            )
            .unwrap();
        assert!(outcome.validated);
        assert!(!outcome.defective.contains(&NodeId(2)), "{outcome:?}");
        assert!(system.lifecycle_of(NodeId(2)).state().is_healthy());
    }

    #[test]
    fn incident_quarantines_the_defective_node() {
        let (mut nodes, members) = fleet(4, 11);
        let mut system = Anubis::new(AnubisConfig::default()).with_selector(risky_selector());
        system
            .handle_event(&ValidationEvent::NodesAdded, &mut nodes, &members, None)
            .unwrap();
        nodes[2].inject_fault(FaultKind::GpuComputeDegraded { severity: 0.4 });
        system
            .handle_event(
                &ValidationEvent::IncidentReported {
                    node: NodeId(2),
                    category: IncidentCategory::GpuCompute,
                },
                &mut nodes,
                &members,
                None,
            )
            .unwrap();
        assert!(system.lifecycle_of(NodeId(2)).state().is_quarantined());
        assert!(system.lifecycle_of(NodeId(0)).state().is_healthy());
    }

    #[test]
    fn skipped_check_clears_suspects() {
        let (mut nodes, members) = fleet(4, 9);
        let safe = Selector::new(
            Box::new(ExponentialModel { rate: 1e-9 }),
            CoverageTable::new(),
            SelectorConfig::default(),
        );
        let mut system = Anubis::new(AnubisConfig::default()).with_selector(safe);
        system
            .handle_event(&ValidationEvent::NodesAdded, &mut nodes, &members, None)
            .unwrap();
        let outcome = system
            .handle_event(
                &ValidationEvent::JobAllocation {
                    horizon_hours: 24.0,
                },
                &mut nodes,
                &members,
                None,
            )
            .unwrap();
        assert!(!outcome.validated);
        for i in 0..4 {
            assert!(system.lifecycle_of(NodeId(i)).state().is_healthy());
        }
    }

    #[test]
    fn incident_for_unknown_node_is_skipped() {
        let (mut nodes, members) = fleet(2, 15);
        let mut system = Anubis::new(AnubisConfig::default());
        let outcome = system
            .handle_event(
                &ValidationEvent::IncidentReported {
                    node: NodeId(99),
                    category: IncidentCategory::Disk,
                },
                &mut nodes,
                &members,
                None,
            )
            .unwrap();
        assert!(!outcome.validated);
    }

    #[test]
    fn member_mismatch_is_rejected_before_any_state_moves() {
        let (mut nodes, members) = fleet(4, 19);
        let mut system = Anubis::new(AnubisConfig::default()).with_selector(risky_selector());
        system
            .handle_event(&ValidationEvent::NodesAdded, &mut nodes, &members, None)
            .unwrap();
        let snapshot = |system: &Anubis| -> Vec<(NodeLifecycle, NodeStatus)> {
            (0..4)
                .map(|i| (system.lifecycle_of(NodeId(i)), system.status_of(NodeId(i))))
                .collect()
        };
        let before = snapshot(&system);
        let events = [
            ValidationEvent::NodesAdded,
            ValidationEvent::JobAllocation {
                horizon_hours: 24.0,
            },
            ValidationEvent::RegularCheck {
                horizon_hours: 24.0,
            },
            ValidationEvent::IncidentReported {
                node: NodeId(3),
                category: IncidentCategory::Disk,
            },
        ];
        for event in &events {
            let result = system.handle_event(event, &mut nodes, &members[..1], None);
            let mismatch = SuiteError::MemberMismatch {
                nodes: 4,
                members: 1,
            };
            assert_eq!(result, Err(mismatch), "{event:?}");
            assert_eq!(snapshot(&system), before, "{event:?}");
        }
    }

    #[test]
    fn advance_hours_moves_clocks() {
        let (mut nodes, members) = fleet(2, 17);
        let mut system = Anubis::new(AnubisConfig::default());
        system
            .handle_event(&ValidationEvent::NodesAdded, &mut nodes, &members, None)
            .unwrap();
        system.advance_hours(10.0);
        assert_eq!(system.status_of(NodeId(0)).uptime_hours, 10.0);
        assert_eq!(
            system.status_of(NodeId(42)).uptime_hours,
            0.0,
            "unknown node is fresh"
        );
    }
}
