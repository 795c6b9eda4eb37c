//! The end-to-end Validator object.

use crate::criteria::{calculate_criteria, CentroidMethod, CriteriaResult};
use crate::filter::{Criteria, DefectFilter, FilterOutcome};
use anubis_benchsuite::{run_set, BenchmarkId, Phase, RunData, SuiteError};
use anubis_hwsim::{NodeId, NodeSim};
use anubis_metrics::MetricsError;
use anubis_netsim::FatTree;
use std::collections::BTreeMap;

/// Bucket edges (minutes) for the validation-duration histogram: spot
/// check, Selector subset, typical full set, build-out, worst case.
const DURATION_BUCKETS: &[f64] = &[1.0, 5.0, 15.0, 60.0, 240.0];

/// Validator configuration.
#[derive(Debug, Clone, Copy)]
pub struct ValidatorConfig {
    /// Similarity threshold α (the paper uses 0.95).
    pub alpha: f64,
    /// Centroid method for Algorithm 2.
    pub centroid: CentroidMethod,
}

impl Default for ValidatorConfig {
    fn default() -> Self {
        Self {
            alpha: crate::DEFAULT_ALPHA,
            centroid: CentroidMethod::Medoid,
        }
    }
}

/// Report of one validation pass.
#[derive(Debug, Clone, Default)]
pub struct ValidationReport {
    /// Defective nodes with the benchmarks that flagged them.
    pub flagged: BTreeMap<NodeId, Vec<BenchmarkId>>,
    /// All benchmark results gathered during the validation.
    pub data: RunData,
    /// Wall-clock cost in minutes (benchmarks run serially, nodes in
    /// parallel).
    pub duration_minutes: f64,
}

/// The ANUBIS Validator: learns criteria offline and filters defective
/// nodes online, executing benchmarks in the paper's two-phase order and
/// removing defective nodes between phases.
///
/// # Examples
///
/// ```
/// use anubis_benchsuite::{run_benchmark, BenchmarkId, RunData};
/// use anubis_hwsim::{NodeId, NodeSim, NodeSpec};
/// use anubis_validator::{Validator, ValidatorConfig};
///
/// // Learn criteria from a healthy cohort.
/// let mut data = RunData::default();
/// let rows: Vec<_> = (0..8)
///     .map(|i| {
///         let mut node = NodeSim::new(NodeId(i), NodeSpec::a100_8x(), 5);
///         (node.id(), run_benchmark(BenchmarkId::GpuGemmFp16, &mut node).unwrap())
///     })
///     .collect();
/// data.results.insert(BenchmarkId::GpuGemmFp16, rows);
/// let mut validator = Validator::new(ValidatorConfig::default());
/// validator.learn_criteria(&data).unwrap();
/// assert!(!validator.filter().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Validator {
    config: ValidatorConfig,
    filter: DefectFilter,
}

impl Validator {
    /// Creates a Validator with no criteria learned yet.
    pub fn new(config: ValidatorConfig) -> Self {
        Self {
            config,
            filter: DefectFilter::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ValidatorConfig {
        &self.config
    }

    /// The current per-benchmark criteria.
    pub fn filter(&self) -> &DefectFilter {
        &self.filter
    }

    /// Learns (or refreshes) criteria from a full-set run across many
    /// nodes — the cluster build-out bootstrap.
    ///
    /// Returns the per-benchmark clustering results (including which input
    /// nodes were excluded as defective while learning).
    pub fn learn_criteria(
        &mut self,
        data: &RunData,
    ) -> Result<BTreeMap<BenchmarkId, CriteriaResult>, MetricsError> {
        let _span = anubis_obs::span!("validator.learn_criteria");
        let mut results = BTreeMap::new();
        for (&bench, rows) in &data.results {
            let _bench_span = anubis_obs::span!(bench.spec().name);
            let samples: Vec<_> = rows.iter().map(|(_, s)| s.clone()).collect();
            let result = calculate_criteria(&samples, self.config.alpha, self.config.centroid)?;
            self.filter.set_criteria(
                bench,
                Criteria {
                    sample: result.criteria.clone(),
                    direction: bench.spec().direction,
                    alpha: self.config.alpha,
                },
            );
            results.insert(bench, result);
        }
        anubis_obs::counter!("validator.criteria_learned", results.len() as i64);
        Ok(results)
    }

    /// Filters previously-gathered results against the learned criteria.
    pub fn filter_data(&self, data: &RunData) -> FilterOutcome {
        self.filter.filter(data)
    }

    /// Runs a benchmark (sub)set on nodes and filters defects, removing
    /// phase-1 defects before the multi-node phase (Section 4).
    ///
    /// `members[i]` is the fabric index of `nodes[i]`; `fabric` may be
    /// `None` when the set has no multi-node benchmarks.
    pub fn validate(
        &self,
        set: &[BenchmarkId],
        nodes: &mut [NodeSim],
        members: &[usize],
        fabric: Option<&FatTree>,
    ) -> Result<ValidationReport, SuiteError> {
        if nodes.is_empty() {
            return Err(SuiteError::EmptyNodeSet);
        }
        if nodes.len() != members.len() {
            return Err(SuiteError::MemberMismatch {
                nodes: nodes.len(),
                members: members.len(),
            });
        }
        let _span = anubis_obs::span!("validator.validate");
        let duration_minutes = BenchmarkId::total_runtime_minutes(set);
        anubis_obs::hist!(
            "validator.duration_minutes",
            duration_minutes,
            DURATION_BUCKETS
        );
        let (single, multi): (Vec<BenchmarkId>, Vec<BenchmarkId>) = set
            .iter()
            .partition(|b| b.spec().phase == Phase::SingleNode);

        // Phase 1: single-node benchmarks on every node.
        let mut data = run_set(&single, nodes, None)?;
        let mut flagged = self.filter.filter(&data).flagged;

        // Phase 2: multi-node benchmarks on clones of the surviving nodes,
        // so the original nodes' RNGs do not advance.
        if !multi.is_empty() {
            let (mut survivors, survivor_members): (Vec<NodeSim>, Vec<usize>) = nodes
                .iter()
                .zip(members)
                .filter(|(node, _)| !flagged.contains_key(&node.id()))
                .map(|(node, &member)| (node.clone(), member))
                .unzip();
            let fabric = fabric.map(|tree| (tree, survivor_members.as_slice()));
            let phase2 = run_set(&multi, &mut survivors, fabric)?;
            for (node, benches) in self.filter.filter(&phase2).flagged {
                flagged.entry(node).or_default().extend(benches);
            }
            data.merge(phase2);
        }
        Ok(ValidationReport {
            flagged,
            data,
            duration_minutes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anubis_hwsim::{FaultKind, NodeSpec};
    use anubis_netsim::{FatTree, FatTreeConfig};

    fn fleet(n: u32, seed: u64) -> Vec<NodeSim> {
        (0..n)
            .map(|i| NodeSim::new(NodeId(i), NodeSpec::a100_8x(), seed))
            .collect()
    }

    fn bootstrap_validator(nodes: &mut [NodeSim], set: &[BenchmarkId]) -> Validator {
        let data = run_set(set, nodes, None).unwrap();
        let mut validator = Validator::new(ValidatorConfig::default());
        validator.learn_criteria(&data).unwrap();
        validator
    }

    #[test]
    fn learns_criteria_and_flags_injected_defects() {
        let set = [BenchmarkId::GpuGemmFp16, BenchmarkId::GpuH2dBandwidth];
        let mut healthy = fleet(16, 3);
        let validator = bootstrap_validator(&mut healthy, &set);

        let mut nodes = fleet(4, 77);
        nodes[1].inject_fault(FaultKind::GpuComputeDegraded { severity: 0.3 });
        nodes[3].inject_fault(FaultKind::PcieDowngrade { severity: 0.5 });
        let members = vec![0, 1, 2, 3];
        let report = validator
            .validate(&set, &mut nodes, &members, None)
            .unwrap();
        assert!(report.flagged.keys().eq(&[NodeId(1), NodeId(3)]));
        assert_eq!(report.flagged[&NodeId(1)], vec![BenchmarkId::GpuGemmFp16]);
        assert_eq!(
            report.flagged[&NodeId(3)],
            vec![BenchmarkId::GpuH2dBandwidth]
        );
    }

    #[test]
    fn healthy_nodes_pass() {
        let set = [
            BenchmarkId::GpuGemmFp16,
            BenchmarkId::CpuLatency,
            BenchmarkId::DiskSeqRead,
        ];
        let mut pool = fleet(16, 5);
        let validator = bootstrap_validator(&mut pool, &set);
        let mut nodes = fleet(6, 123);
        let members = vec![0, 1, 2, 3, 4, 5];
        let report = validator
            .validate(&set, &mut nodes, &members, None)
            .unwrap();
        assert!(report.flagged.is_empty(), "{:?}", report.flagged);
    }

    #[test]
    fn two_phase_removes_defects_before_multi_node() {
        let single = [BenchmarkId::GpuGemmFp16];
        let multi = [BenchmarkId::MultiNodeAllReduce];
        let fabric = FatTree::build(FatTreeConfig::figure3_testbed()).unwrap();

        // Bootstrap criteria for both phases.
        let mut pool = fleet(12, 9);
        let mut validator = bootstrap_validator(&mut pool, &single);
        let mut multi_pool = fleet(12, 9);
        let members: Vec<usize> = (0..12).collect();
        let data = run_set(&multi, &mut multi_pool, Some((&fabric, &members))).unwrap();
        validator.learn_criteria(&data).unwrap();

        // One compute-defective node must be excluded in phase 1 and not
        // poison phase 2.
        let mut nodes = fleet(4, 21);
        nodes[0].inject_fault(FaultKind::GpuComputeDegraded { severity: 0.5 });
        let set = [single[0], multi[0]];
        let report = validator
            .validate(&set, &mut nodes, &[0, 1, 2, 3], Some(&fabric))
            .unwrap();
        assert!(report.flagged.contains_key(&NodeId(0)));
        // Phase 2 data exists and excludes node 0.
        let rows = report.data.samples_for(multi[0]).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|(id, _)| *id != NodeId(0)));
    }

    #[test]
    fn validate_requires_fabric_for_multi_node() {
        let validator = Validator::new(ValidatorConfig::default());
        let mut nodes = fleet(2, 1);
        let err = validator.validate(
            &[BenchmarkId::MultiNodeAllReduce],
            &mut nodes,
            &[0, 1],
            None,
        );
        assert!(matches!(err, Err(SuiteError::MissingFabric(_))));
    }

    #[test]
    fn report_duration_matches_set_runtime() {
        let set = [BenchmarkId::GpuGemmFp16, BenchmarkId::CpuLatency];
        let mut pool = fleet(8, 2);
        let validator = bootstrap_validator(&mut pool, &set);
        let mut nodes = fleet(2, 8);
        let report = validator.validate(&set, &mut nodes, &[0, 1], None).unwrap();
        assert_eq!(
            report.duration_minutes,
            BenchmarkId::total_runtime_minutes(&set)
        );
    }
}
