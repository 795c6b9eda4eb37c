//! Online defect filtering (paper Eq. 4 + threshold α).

use anubis_benchsuite::{BenchmarkId, RunData};
use anubis_hwsim::NodeId;
use anubis_metrics::{one_sided_similarity, Direction, Sample};
use std::collections::{BTreeMap, BTreeSet};

/// Learned criteria for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Criteria {
    /// The reference sample `S_C` from Algorithm 2.
    pub sample: Sample,
    /// Metric direction from the benchmark spec.
    pub direction: Direction,
    /// Similarity threshold α.
    pub alpha: f64,
}

impl Criteria {
    /// One-direction similarity of an observation to this criteria.
    pub fn similarity(&self, observed: &Sample) -> f64 {
        one_sided_similarity(observed, &self.sample, self.direction)
    }

    /// Whether an observation violates the criteria (similarity `<= α`).
    pub fn is_defective(&self, observed: &Sample) -> bool {
        self.similarity(observed) <= self.alpha
    }
}

/// A set of per-benchmark criteria plus the filtering logic: a node is
/// defective if **any** of its benchmark results violates its criteria.
#[derive(Debug, Clone, Default)]
pub struct DefectFilter {
    criteria: BTreeMap<BenchmarkId, Criteria>,
}

impl DefectFilter {
    /// Creates an empty filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) the criteria for a benchmark.
    pub fn set_criteria(&mut self, bench: BenchmarkId, criteria: Criteria) {
        self.criteria.insert(bench, criteria);
    }

    /// Benchmarks with learned criteria.
    pub fn benchmarks(&self) -> Vec<BenchmarkId> {
        self.criteria.keys().copied().collect()
    }

    /// Whether any criteria have been learned.
    pub fn is_empty(&self) -> bool {
        self.criteria.is_empty()
    }

    /// Filters a run's results, returning defective nodes and, per node,
    /// the benchmarks that flagged it.
    ///
    /// Benchmarks without learned criteria are skipped (first-validation
    /// bootstrap learns them instead).
    pub fn filter(&self, data: &RunData) -> FilterOutcome {
        let mut flagged: BTreeMap<NodeId, Vec<BenchmarkId>> = BTreeMap::new();
        let mut checked: BTreeSet<NodeId> = BTreeSet::new();
        for (&bench, rows) in &data.results {
            let Some(criteria) = self.criteria.get(&bench) else {
                continue;
            };
            for (node, sample) in rows {
                checked.insert(*node);
                if criteria.is_defective(sample) {
                    flagged.entry(*node).or_default().push(bench);
                }
            }
        }
        FilterOutcome { flagged, checked }
    }
}

/// Outcome of filtering one validation run.
#[derive(Debug, Clone, Default)]
pub struct FilterOutcome {
    /// Defective nodes with the benchmarks that flagged them.
    pub flagged: BTreeMap<NodeId, Vec<BenchmarkId>>,
    /// Every node that had at least one benchmark checked.
    pub checked: BTreeSet<NodeId>,
}

impl FilterOutcome {
    /// Whether a specific node was flagged.
    pub fn is_defective(&self, node: NodeId) -> bool {
        self.flagged.contains_key(&node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(v: f64) -> Sample {
        Sample::scalar(v).unwrap()
    }

    fn throughput_criteria(value: f64) -> Criteria {
        Criteria {
            sample: scalar(value),
            direction: Direction::HigherIsBetter,
            alpha: 0.95,
        }
    }

    #[test]
    fn slow_node_is_defective_fast_node_is_not() {
        let c = throughput_criteria(100.0);
        assert!(c.is_defective(&scalar(90.0)));
        assert!(!c.is_defective(&scalar(99.0)));
        assert!(
            !c.is_defective(&scalar(120.0)),
            "faster than criteria is fine"
        );
    }

    #[test]
    fn latency_direction_flips() {
        let c = Criteria {
            sample: scalar(100.0),
            direction: Direction::LowerIsBetter,
            alpha: 0.95,
        };
        assert!(c.is_defective(&scalar(115.0)), "higher latency is a defect");
        assert!(!c.is_defective(&scalar(90.0)), "lower latency is fine");
    }

    #[test]
    fn filter_unions_benchmarks_per_node() {
        let mut filter = DefectFilter::new();
        filter.set_criteria(BenchmarkId::GpuGemmFp16, throughput_criteria(300.0));
        filter.set_criteria(BenchmarkId::GpuH2dBandwidth, throughput_criteria(24.0));
        let mut data = RunData::default();
        data.results.insert(
            BenchmarkId::GpuGemmFp16,
            vec![
                (NodeId(0), scalar(299.0)),
                (NodeId(1), scalar(200.0)),
                (NodeId(2), scalar(298.0)),
            ],
        );
        data.results.insert(
            BenchmarkId::GpuH2dBandwidth,
            vec![
                (NodeId(0), scalar(23.9)),
                (NodeId(1), scalar(23.8)),
                (NodeId(2), scalar(12.0)),
            ],
        );
        let outcome = filter.filter(&data);
        assert!(outcome.flagged.keys().eq(&[NodeId(1), NodeId(2)]));
        assert_eq!(outcome.flagged[&NodeId(1)], vec![BenchmarkId::GpuGemmFp16]);
        assert_eq!(
            outcome.flagged[&NodeId(2)],
            vec![BenchmarkId::GpuH2dBandwidth]
        );
        assert!(!outcome.is_defective(NodeId(0)));
    }

    #[test]
    fn unknown_benchmarks_are_skipped() {
        let filter = DefectFilter::new();
        let mut data = RunData::default();
        data.results
            .insert(BenchmarkId::CpuLatency, vec![(NodeId(0), scalar(500.0))]);
        let outcome = filter.filter(&data);
        assert!(outcome.flagged.is_empty());
        assert!(outcome.checked.is_empty());
    }

    #[test]
    fn alpha_controls_strictness() {
        let loose = Criteria {
            sample: scalar(100.0),
            direction: Direction::HigherIsBetter,
            alpha: 0.8,
        };
        let strict = Criteria {
            sample: scalar(100.0),
            direction: Direction::HigherIsBetter,
            alpha: 0.99,
        };
        let observed = scalar(90.0); // 10% regression
        assert!(!loose.is_defective(&observed));
        assert!(strict.is_defective(&observed));
    }
}
