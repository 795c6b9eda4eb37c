//! Orchestration events that trigger validation (paper Section 3.1).

use anubis_benchsuite::BenchmarkId;
use anubis_hwsim::fault::IncidentCategory;
use anubis_hwsim::NodeId;

/// Events the orchestration system feeds into ANUBIS.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationEvent {
    /// New nodes joined the cluster, or cluster-wide firmware/software was
    /// upgraded: the quality gate runs the full benchmark set and
    /// (re)learns criteria.
    NodesAdded,
    /// A customer job is about to be allocated to specific nodes for an
    /// expected duration.
    JobAllocation {
        /// Expected job duration in hours (the Selector's horizon).
        horizon_hours: f64,
    },
    /// A customer reported an incident; the node is cordoned and must be
    /// validated before returning to service.
    IncidentReported {
        /// The implicated node.
        node: NodeId,
        /// The incident's root-cause category (from the ticket).
        category: IncidentCategory,
    },
    /// Periodic risk check over existing nodes.
    RegularCheck {
        /// Risk horizon in hours.
        horizon_hours: f64,
    },
}

/// Outcome of handling one event.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventOutcome {
    /// Whether any benchmarks were executed.
    pub validated: bool,
    /// The benchmarks that ran (empty when validation was skipped).
    pub benchmarks: Vec<BenchmarkId>,
    /// Nodes filtered as defective.
    pub defective: Vec<NodeId>,
    /// Validation wall-clock cost in minutes.
    pub duration_minutes: f64,
}

impl EventOutcome {
    /// An outcome representing a skipped validation.
    pub fn skipped() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skipped_outcome_is_empty() {
        let outcome = EventOutcome::skipped();
        assert!(!outcome.validated);
        assert!(outcome.defective.is_empty());
        assert_eq!(outcome.duration_minutes, 0.0);
    }

    #[test]
    fn events_are_comparable() {
        assert_eq!(
            ValidationEvent::JobAllocation {
                horizon_hours: 24.0
            },
            ValidationEvent::JobAllocation {
                horizon_hours: 24.0
            }
        );
        assert_ne!(
            ValidationEvent::NodesAdded,
            ValidationEvent::RegularCheck {
                horizon_hours: 24.0
            }
        );
    }
}
