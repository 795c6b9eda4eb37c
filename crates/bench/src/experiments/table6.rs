//! Table 6: effectiveness and repeatability in real deployment.
//!
//! The build-out fleet runs the full single-node benchmark set; criteria
//! are learned with Algorithm 2; the table reports, per benchmark group,
//! the fraction of the fleet it filtered as defective and the
//! repeatability among the surviving healthy nodes.

use crate::table::{pct, render_table};
use anubis_benchsuite::{run_set, BenchmarkId};
use anubis_hwsim::{NodeId, NodeSim};
use anubis_metrics::{mean_pairwise_similarity, Sample};
use anubis_traces::{generate_buildout_fleet, BuildoutConfig};
use anubis_validator::{calculate_criteria, CentroidMethod};
use std::collections::BTreeSet;
use std::fmt;

/// Configuration for the Table 6 reproduction.
#[derive(Debug, Clone)]
pub struct Table6Config {
    /// Fleet size (the paper's dataset: 3k+ VMs; Algorithm 2 is O(n²), so
    /// the default is scaled to keep the run minutes-scale).
    pub vms: u32,
    /// Similarity threshold α.
    pub alpha: f64,
    /// Healthy nodes sampled for the repeatability column.
    pub repeatability_sample: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Table6Config {
    fn default() -> Self {
        Self {
            vms: 800,
            alpha: 0.95,
            repeatability_sample: 150,
            seed: 2024,
        }
    }
}

impl Table6Config {
    /// A fast preset for tests.
    pub fn quick() -> Self {
        Self {
            vms: 150,
            repeatability_sample: 40,
            ..Self::default()
        }
    }
}

/// The benchmark groups Table 6 reports, mapped to our suite ids.
pub fn table6_groups() -> Vec<(&'static str, Vec<BenchmarkId>)> {
    vec![
        ("IB HCA loopback", vec![BenchmarkId::IbHcaLoopback]),
        (
            "H2D/D2H bandwidth",
            vec![BenchmarkId::GpuH2dBandwidth, BenchmarkId::GpuD2hBandwidth],
        ),
        ("BERT models", vec![BenchmarkId::TrainBert]),
        ("CPU latency", vec![BenchmarkId::CpuLatency]),
        (
            "IB single-node all-reduce",
            vec![BenchmarkId::IbSingleNodeAllReduce],
        ),
        ("ResNet models", vec![BenchmarkId::TrainResNet]),
        ("GPT-2 models", vec![BenchmarkId::TrainGpt2]),
        ("LSTM models", vec![BenchmarkId::TrainLstm]),
        ("DenseNet models", vec![BenchmarkId::TrainDenseNet]),
        (
            "MatMul/all-reduce overlap",
            vec![BenchmarkId::MatmulAllReduceOverlap],
        ),
        ("NVLink all-reduce", vec![BenchmarkId::NvlinkAllReduce]),
        (
            "GPU GEMM",
            vec![BenchmarkId::GpuGemmFp32, BenchmarkId::GpuGemmFp16],
        ),
    ]
}

/// One Table 6 row.
#[derive(Debug, Clone, serde::Serialize)]
pub struct GroupOutcome {
    /// Benchmark group label.
    pub label: &'static str,
    /// Repeatability among healthy nodes.
    pub repeatability: f64,
    /// Fraction of the fleet this group filtered as defective.
    pub defect_share: f64,
}

/// Result: rows sorted by defect share, plus the overall defect rate.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Table6Result {
    /// Per-group rows, descending by defect share.
    pub groups: Vec<GroupOutcome>,
    /// Unique defective nodes / fleet size (paper: 10.36%).
    pub total_defect_rate: f64,
    /// Fleet size used.
    pub vms: u32,
}

/// Runs the experiment.
pub fn run(config: &Table6Config) -> Table6Result {
    let mut fleet: Vec<NodeSim> = generate_buildout_fleet(&BuildoutConfig {
        vms: config.vms,
        seed: config.seed,
    });

    let mut all_defective: BTreeSet<NodeId> = BTreeSet::new();
    let mut groups = Vec::new();
    for (label, benches) in table6_groups() {
        let mut group_defective: BTreeSet<NodeId> = BTreeSet::new();
        let mut repeatabilities = Vec::new();
        for bench in benches {
            let data = run_set(&[bench], &mut fleet, None).expect("single-node benchmark");
            let samples: Vec<(NodeId, Sample)> = data
                .samples_for(bench)
                .expect("benchmark just ran")
                .to_vec();
            let raw: Vec<Sample> = samples.iter().map(|(_, s)| s.clone()).collect();
            let result = calculate_criteria(&raw, config.alpha, CentroidMethod::Medoid)
                .expect("non-empty fleet");
            for &idx in &result.defects {
                group_defective.insert(samples[idx].0);
            }
            // Repeatability among healthy nodes (subsampled for O(n²)).
            let healthy: Vec<Sample> = samples
                .iter()
                .enumerate()
                .filter(|(i, _)| !result.defects.contains(i))
                .take(config.repeatability_sample)
                .map(|(_, (_, s))| s.clone())
                .collect();
            repeatabilities.push(mean_pairwise_similarity(&healthy));
        }
        all_defective.extend(&group_defective);
        groups.push(GroupOutcome {
            label,
            repeatability: repeatabilities.iter().sum::<f64>()
                / repeatabilities.len().max(1) as f64,
            defect_share: group_defective.len() as f64 / f64::from(config.vms),
        });
    }
    groups.sort_by(|a, b| b.defect_share.total_cmp(&a.defect_share));
    Table6Result {
        groups,
        total_defect_rate: all_defective.len() as f64 / f64::from(config.vms),
        vms: config.vms,
    }
}

impl fmt::Display for Table6Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 6: effectiveness and repeatability ({} VMs)",
            self.vms
        )?;
        let rows: Vec<Vec<String>> = self
            .groups
            .iter()
            .map(|g| {
                vec![
                    g.label.to_string(),
                    pct(g.repeatability),
                    pct(g.defect_share),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &["Benchmark", "Repeatability", "# Defects / # Total"],
                &rows
            )
        )?;
        writeln!(
            f,
            "Total unique defective nodes: {}",
            pct(self.total_defect_rate)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overall_defect_rate_matches_deployment() {
        let result = run(&Table6Config::quick());
        assert!(
            (0.05..=0.18).contains(&result.total_defect_rate),
            "total defect rate {}",
            result.total_defect_rate
        );
    }

    #[test]
    fn loopback_finds_the_most_defects() {
        let result = run(&Table6Config::quick());
        assert_eq!(
            result.groups[0].label, "IB HCA loopback",
            "{:?}",
            result.groups
        );
        assert!(result.groups[0].defect_share > 0.02);
    }

    #[test]
    fn healthy_repeatability_is_high() {
        let result = run(&Table6Config::quick());
        for g in &result.groups {
            assert!(
                g.repeatability > 0.95,
                "{}: repeatability {}",
                g.label,
                g.repeatability
            );
        }
    }

    #[test]
    fn renders() {
        let text = run(&Table6Config::quick()).to_string();
        assert!(text.contains("Table 6"));
        assert!(text.contains("IB HCA loopback"));
    }
}
