//! Validation policies for the cluster simulation.

use anubis_benchsuite::BenchmarkId;
use anubis_selector::{CoverageTable, NodeStatus, Selector};
use rand::seq::index::sample as index_sample;
use rand_chacha::ChaCha8Rng;

/// Identifies a policy for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum PolicyKind {
    /// No validation; incidents repaired reactively by troubleshooting.
    Absence,
    /// Full benchmark set on every allocation and after every incident.
    FullSet,
    /// The ANUBIS Selector (Algorithm 1 subsets, skip when low-risk).
    Selector,
    /// Ablation: a uniformly random subset of fixed size per validation.
    RandomSubset,
    /// Upper bound: no incidents ever occur.
    Ideal,
}

impl PolicyKind {
    /// Display name used in the experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Absence => "Absence",
            Self::FullSet => "Full Set",
            Self::Selector => "ANUBIS Selector",
            Self::RandomSubset => "Random Subset",
            Self::Ideal => "Ideal",
        }
    }
}

/// A validation decision for one job allocation (or post-incident check).
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationDecision {
    /// Wall-clock validation duration in hours (0 = skipped).
    pub duration_hours: f64,
    /// Probability the validation catches a latent/upcoming defect.
    pub coverage: f64,
}

impl ValidationDecision {
    /// The skip decision.
    pub const SKIP: Self = Self {
        duration_hours: 0.0,
        coverage: 0.0,
    };

    /// Running `subset`, scored against `history`.
    fn running(subset: &[BenchmarkId], history: &CoverageTable) -> Self {
        Self {
            duration_hours: BenchmarkId::total_runtime_minutes(subset) / 60.0,
            coverage: history.coverage(subset),
        }
    }
}

/// A validation policy driving the simulator.
pub enum Policy<'a> {
    /// No validation.
    Absence,
    /// Full set, assumed to discover all incidents (`C = 1`).
    FullSet,
    /// The ANUBIS Selector.
    Selector(&'a Selector),
    /// Random `count`-benchmark subsets scored against `coverage`.
    RandomSubset {
        /// Historical coverage used to score the random pick.
        coverage: &'a CoverageTable,
        /// Benchmarks per validation.
        count: usize,
    },
    /// No incidents at all (upper bound).
    Ideal,
}

impl Policy<'_> {
    /// The reporting kind.
    pub fn kind(&self) -> PolicyKind {
        match self {
            Self::Absence => PolicyKind::Absence,
            Self::FullSet => PolicyKind::FullSet,
            Self::Selector(_) => PolicyKind::Selector,
            Self::RandomSubset { .. } => PolicyKind::RandomSubset,
            Self::Ideal => PolicyKind::Ideal,
        }
    }

    /// Whether incidents exist under this policy.
    pub fn incidents_enabled(&self) -> bool {
        !matches!(self, Self::Ideal)
    }

    /// Whether repaired nodes are fully restored (hot-buffer swap) rather
    /// than partially troubleshot.
    pub fn full_restore_on_incident(&self) -> bool {
        !matches!(self, Self::Absence | Self::Ideal)
    }

    /// Decides the pre-job validation for a node set with the given job
    /// horizon.
    pub fn decide(
        &self,
        statuses: &[NodeStatus],
        horizon_hours: f64,
        rng: &mut ChaCha8Rng,
    ) -> ValidationDecision {
        match self {
            Self::Absence | Self::Ideal => ValidationDecision::SKIP,
            Self::FullSet => ValidationDecision {
                duration_hours: BenchmarkId::total_runtime_minutes(&BenchmarkId::ALL) / 60.0,
                coverage: 1.0,
            },
            // `select` returns an empty subset exactly when the joint
            // probability is already ≤ p₀ (its first residual is
            // `p_joint · 1.0`, and its first pick is always admitted), so
            // one call makes the whole decision.
            Self::Selector(selector) => {
                let subset = selector.select(statuses, horizon_hours);
                if subset.is_empty() {
                    return ValidationDecision::SKIP;
                }
                ValidationDecision::running(&subset, selector.coverage())
            }
            Self::RandomSubset { coverage, count } => {
                let n = BenchmarkId::ALL.len();
                let count = (*count).min(n);
                let picks: Vec<BenchmarkId> = index_sample(rng, n, count)
                    .into_iter()
                    .map(|i| BenchmarkId::ALL[i])
                    .collect();
                ValidationDecision::running(&picks, coverage)
            }
        }
    }

    /// Decides the post-incident validation (the paper revalidates after
    /// each incident under validation policies): the swapped-in node alone
    /// over a day's horizon. The Selector picks per-node subsets, the full
    /// set re-runs everything.
    pub fn decide_post_incident(
        &self,
        status: &NodeStatus,
        rng: &mut ChaCha8Rng,
    ) -> ValidationDecision {
        self.decide(std::slice::from_ref(status), 24.0, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anubis_hwsim::testutil::seeded_rng;
    use anubis_selector::{ExponentialModel, SelectorConfig};

    fn rng() -> ChaCha8Rng {
        seeded_rng(1)
    }

    fn coverage_table() -> CoverageTable {
        let mut t = CoverageTable::new();
        for d in 0..8u64 {
            t.record(BenchmarkId::IbHcaLoopback, d);
        }
        for d in 6..10u64 {
            t.record(BenchmarkId::GpuGemmFp16, d);
        }
        t
    }

    #[test]
    fn absence_and_ideal_skip() {
        let statuses = vec![NodeStatus::fresh()];
        assert_eq!(
            Policy::Absence.decide(&statuses, 24.0, &mut rng()),
            ValidationDecision::SKIP
        );
        assert_eq!(
            Policy::Ideal.decide(&statuses, 24.0, &mut rng()),
            ValidationDecision::SKIP
        );
        assert!(!Policy::Ideal.incidents_enabled());
        assert!(Policy::Absence.incidents_enabled());
    }

    #[test]
    fn full_set_covers_everything_slowly() {
        let d = Policy::FullSet.decide(&[NodeStatus::fresh()], 24.0, &mut rng());
        assert_eq!(d.coverage, 1.0);
        assert!(
            d.duration_hours > 4.0,
            "full set is hours long: {}",
            d.duration_hours
        );
    }

    #[test]
    fn selector_skips_low_risk_and_validates_high_risk() {
        let table = coverage_table();
        let safe = Selector::new(
            Box::new(ExponentialModel { rate: 1e-7 }),
            table.clone(),
            SelectorConfig::default(),
        );
        let d = Policy::Selector(&safe).decide(&[NodeStatus::fresh()], 24.0, &mut rng());
        assert_eq!(d, ValidationDecision::SKIP);

        let risky = Selector::new(
            Box::new(ExponentialModel { rate: 0.05 }),
            table,
            SelectorConfig::default(),
        );
        let statuses = vec![NodeStatus::fresh(); 4];
        let d = Policy::Selector(&risky).decide(&statuses, 24.0, &mut rng());
        assert!(d.duration_hours > 0.0);
        assert!(d.coverage > 0.0);
        // The Selector subset is far cheaper than the full set.
        assert!(
            d.duration_hours < 2.0,
            "selector subset: {}h",
            d.duration_hours
        );
    }

    #[test]
    fn random_subset_scores_against_history() {
        let table = coverage_table();
        let policy = Policy::RandomSubset {
            coverage: &table,
            count: 5,
        };
        let d = policy.decide(&[NodeStatus::fresh()], 24.0, &mut rng());
        assert!(d.duration_hours > 0.0);
        assert!((0.0..=1.0).contains(&d.coverage));
    }

    #[test]
    fn restore_semantics_per_policy() {
        assert!(!Policy::Absence.full_restore_on_incident());
        assert!(Policy::FullSet.full_restore_on_incident());
        let table = coverage_table();
        let selector = Selector::new(
            Box::new(ExponentialModel { rate: 0.05 }),
            table,
            SelectorConfig::default(),
        );
        assert!(Policy::Selector(&selector).full_restore_on_incident());
    }

    #[test]
    fn kinds_have_names() {
        for kind in [
            PolicyKind::Absence,
            PolicyKind::FullSet,
            PolicyKind::Selector,
            PolicyKind::RandomSubset,
            PolicyKind::Ideal,
        ] {
            assert!(!kind.name().is_empty());
        }
    }
}
