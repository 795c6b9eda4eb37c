//! Benchmark execution over simulated nodes and fabric.

use crate::id::{BenchmarkId, Phase};
use anubis_hwsim::node::DiskMode;
use anubis_hwsim::{NodeId, NodeSim, NoiseModel, Precision};
use anubis_metrics::{MetricsError, Sample};
use anubis_netsim::collective::{all_to_all_completion_s, ring_allreduce_busbw};
use anubis_netsim::{concurrent_pair_bandwidths, full_scan_rounds, FatTree, NetError};
use anubis_workload::{simulate_multi_node_training, simulate_training, ModelId, TrainingOptions};
use std::collections::BTreeMap;
use std::fmt;

/// Errors from benchmark execution.
#[derive(Debug, Clone, PartialEq)]
pub enum SuiteError {
    /// A multi-node benchmark was run through the single-node entry point
    /// (or vice versa).
    PhaseMismatch(BenchmarkId),
    /// A multi-node benchmark ran without a fabric.
    MissingFabric(BenchmarkId),
    /// The node set was empty.
    EmptyNodeSet,
    /// `members` and `nodes` disagreed in length.
    MemberMismatch {
        /// Number of nodes supplied.
        nodes: usize,
        /// Number of member indices supplied.
        members: usize,
    },
    /// Malformed measurements (should not happen with the simulator).
    Metrics(MetricsError),
    /// Topology error from the fabric.
    Net(NetError),
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::PhaseMismatch(b) => write!(f, "benchmark `{b}` run in the wrong phase"),
            Self::MissingFabric(b) => write!(f, "benchmark `{b}` needs a network fabric"),
            Self::EmptyNodeSet => write!(f, "no nodes to validate"),
            Self::MemberMismatch { nodes, members } => {
                write!(f, "{nodes} nodes but {members} fabric members")
            }
            Self::Metrics(e) => write!(f, "measurement error: {e}"),
            Self::Net(e) => write!(f, "network error: {e}"),
        }
    }
}

impl std::error::Error for SuiteError {}

impl From<MetricsError> for SuiteError {
    fn from(e: MetricsError) -> Self {
        Self::Metrics(e)
    }
}

impl From<NetError> for SuiteError {
    fn from(e: NetError) -> Self {
        Self::Net(e)
    }
}

/// Results of running a benchmark (sub)set: per benchmark, one sample per
/// node.
#[derive(Debug, Clone, Default)]
pub struct RunData {
    /// Benchmark → `(node, sample)` pairs.
    pub results: BTreeMap<BenchmarkId, Vec<(NodeId, Sample)>>,
}

impl RunData {
    /// Merges another run's results into this one.
    pub fn merge(&mut self, other: RunData) {
        for (bench, mut rows) in other.results {
            self.results.entry(bench).or_default().append(&mut rows);
        }
    }

    /// Samples for one benchmark, if it was run.
    pub fn samples_for(&self, bench: BenchmarkId) -> Option<&[(NodeId, Sample)]> {
        self.results.get(&bench).map(Vec::as_slice)
    }

    /// All benchmarks present.
    pub fn benchmarks(&self) -> Vec<BenchmarkId> {
        self.results.keys().copied().collect()
    }
}

/// Measurement repetitions for scalar micro-benchmarks.
const MICRO_REPS: usize = 32;
/// Recorded steps for end-to-end training benchmarks.
const E2E_STEPS: usize = 160;

fn repeat(node: &mut NodeSim, reps: usize, mut f: impl FnMut(&mut NodeSim) -> f64) -> Vec<f64> {
    (0..reps).map(|_| f(node)).collect()
}

/// Runs one **single-node** benchmark on a node.
///
/// # Examples
///
/// ```
/// use anubis_benchsuite::{run_benchmark, BenchmarkId};
/// use anubis_hwsim::{NodeId, NodeSim, NodeSpec};
///
/// let mut node = NodeSim::new(NodeId(0), NodeSpec::a100_8x(), 7);
/// let sample = run_benchmark(BenchmarkId::GpuGemmFp16, &mut node).unwrap();
/// assert!(sample.mean() > 250.0); // near A100 FP16 peak × efficiency
/// ```
pub fn run_benchmark(id: BenchmarkId, node: &mut NodeSim) -> Result<Sample, SuiteError> {
    if id.spec().phase != Phase::SingleNode {
        return Err(SuiteError::PhaseMismatch(id));
    }
    let values = match id {
        BenchmarkId::KernelLaunch => {
            repeat(node, 64, anubis_hwsim::NodeSim::measure_kernel_launch_us)
        }
        BenchmarkId::GpuGemmFp32 => repeat(node, MICRO_REPS, |n| {
            n.measure_gemm_tflops(Precision::Fp32, 8192)
        }),
        BenchmarkId::GpuGemmFp16 => repeat(node, MICRO_REPS, |n| {
            n.measure_gemm_tflops(Precision::Fp16, 8192)
        }),
        BenchmarkId::CublasKernels => {
            let mut values = Vec::with_capacity(24);
            for &size in &[1024usize, 2048, 4096] {
                values.extend(repeat(node, 8, |n| {
                    n.measure_gemm_tflops(Precision::Fp16, size)
                }));
            }
            values
        }
        BenchmarkId::CudnnKernels => {
            let mut values = Vec::with_capacity(24);
            for &size in &[512usize, 1024, 2048] {
                values.extend(repeat(node, 8, |n| {
                    n.measure_gemm_tflops(Precision::Fp16, size)
                }));
            }
            values
        }
        BenchmarkId::GpuBurn => repeat(node, MICRO_REPS, |n| {
            n.measure_gpu_burn_tflops(Precision::Fp16)
        }),
        BenchmarkId::CpuLatency => repeat(node, 64, anubis_hwsim::NodeSim::measure_cpu_latency_ns),
        BenchmarkId::GpuH2dBandwidth => {
            repeat(node, MICRO_REPS, anubis_hwsim::NodeSim::measure_h2d_gbps)
        }
        BenchmarkId::GpuD2hBandwidth => {
            repeat(node, MICRO_REPS, anubis_hwsim::NodeSim::measure_d2h_gbps)
        }
        BenchmarkId::GpuCopyBandwidth => repeat(
            node,
            MICRO_REPS,
            anubis_hwsim::NodeSim::measure_gpu_copy_gbps,
        ),
        BenchmarkId::NvlinkAllReduce => repeat(node, MICRO_REPS, |n| {
            n.measure_nvlink_allreduce_gbps(64 << 20)
        }),
        BenchmarkId::IbHcaLoopback => repeat(
            node,
            MICRO_REPS,
            anubis_hwsim::NodeSim::measure_hca_loopback_gbps,
        ),
        BenchmarkId::IbSingleNodeAllReduce => repeat(node, MICRO_REPS, |n| {
            n.measure_ib_single_node_allreduce_gbps()
        }),
        BenchmarkId::MatmulAllReduceOverlap => repeat(node, MICRO_REPS, |n| {
            n.measure_overlap_matmul_allreduce_tflops(Precision::Fp16)
        }),
        BenchmarkId::ShardingMatmul => repeat(node, MICRO_REPS, |n| {
            n.measure_sharding_matmul_tflops(Precision::Fp16)
        }),
        BenchmarkId::DiskSeqRead => repeat(node, 16, |n| n.measure_disk(DiskMode::SeqRead)),
        BenchmarkId::DiskSeqWrite => repeat(node, 16, |n| n.measure_disk(DiskMode::SeqWrite)),
        BenchmarkId::DiskRandRead => repeat(node, 16, |n| n.measure_disk(DiskMode::RandRead)),
        BenchmarkId::DiskRandWrite => repeat(node, 16, |n| n.measure_disk(DiskMode::RandWrite)),
        BenchmarkId::TrainResNet => train(node, ModelId::ResNet50, E2E_STEPS),
        BenchmarkId::TrainDenseNet => train(node, ModelId::DenseNet169, E2E_STEPS),
        BenchmarkId::TrainVgg => train(node, ModelId::Vgg16, E2E_STEPS),
        BenchmarkId::TrainLstm => train(node, ModelId::Lstm, E2E_STEPS),
        BenchmarkId::TrainBert => train(node, ModelId::BertLarge, E2E_STEPS),
        BenchmarkId::TrainGpt2 => train(node, ModelId::Gpt2Small, E2E_STEPS),
        BenchmarkId::GpuStress => train(node, ModelId::Gpt2Large, 2 * E2E_STEPS),
        BenchmarkId::AllPairRdma
        | BenchmarkId::MultiNodeAllReduce
        | BenchmarkId::MultiNodeAllGather
        | BenchmarkId::MultiNodeAllToAll
        | BenchmarkId::MultiNodeTraining => return Err(SuiteError::PhaseMismatch(id)),
    };
    Ok(Sample::new(values)?)
}

/// Warmup steps an end-to-end validation run discards (the Appendix B
/// tuned windows always skip the JIT/autotune transient).
const E2E_WARMUP_TRIM: usize = 32;

fn train(node: &mut NodeSim, model: ModelId, steps: usize) -> Vec<f64> {
    let options = TrainingOptions::validation(steps + E2E_WARMUP_TRIM);
    let series = simulate_training(node, &model.config(), &options);
    series.into_iter().skip(E2E_WARMUP_TRIM).collect()
}

/// Runs one **multi-node** benchmark over a node set and fabric, returning
/// one sample per node (parallel to `nodes`).
#[expect(
    clippy::indexing_slicing,
    reason = "scan pairs index the nodes, and `members` is checked to be as long"
)]
pub fn run_benchmark_multi(
    id: BenchmarkId,
    nodes: &mut [NodeSim],
    members: &[usize],
    fabric: &FatTree,
) -> Result<Vec<Sample>, SuiteError> {
    if id.spec().phase != Phase::MultiNode {
        return Err(SuiteError::PhaseMismatch(id));
    }
    if nodes.is_empty() {
        return Err(SuiteError::EmptyNodeSet);
    }
    if nodes.len() != members.len() {
        return Err(SuiteError::MemberMismatch {
            nodes: nodes.len(),
            members: members.len(),
        });
    }
    match id {
        BenchmarkId::AllPairRdma => {
            // Appendix A full scan: per node, collect its pairwise
            // bandwidth in each round.
            let mut per_node: Vec<Vec<f64>> = vec![Vec::new(); nodes.len()];
            for round in full_scan_rounds(nodes.len()) {
                let fabric_pairs: Vec<(usize, usize)> = round
                    .iter()
                    .map(|&(a, b)| (members[a], members[b]))
                    .collect();
                let bws = concurrent_pair_bandwidths(fabric, &fabric_pairs)?;
                for (&(a, b), bw) in round.iter().zip(&bws) {
                    for &idx in &[a, b] {
                        let nic = nodes[idx].impact().network_bandwidth;
                        let noisy = bw * nic * nodes[idx].draw_noise(NoiseModel::NETWORK);
                        per_node[idx].push(noisy);
                    }
                }
            }
            per_node
                .into_iter()
                .map(|v| Sample::new(v).map_err(SuiteError::from))
                .collect()
        }
        BenchmarkId::MultiNodeAllReduce | BenchmarkId::MultiNodeAllGather => {
            let base = ring_allreduce_busbw(fabric, members)?;
            let scale = if id == BenchmarkId::MultiNodeAllGather {
                0.98
            } else {
                1.0
            };
            collect_network_samples(nodes, base * scale)
        }
        BenchmarkId::MultiNodeAllToAll => {
            let bytes_per_pair = 16.0 * (1 << 20) as f64;
            let t = all_to_all_completion_s(fabric, members, bytes_per_pair)?;
            let per_node_gbps = if t.is_finite() && t > 0.0 {
                bytes_per_pair * (members.len() as f64 - 1.0) / t / 1e9
            } else {
                0.0
            };
            collect_network_samples(nodes, per_node_gbps)
        }
        BenchmarkId::MultiNodeTraining => {
            let series = simulate_multi_node_training(
                nodes,
                members,
                fabric,
                &ModelId::Gpt2Small.config(),
                &TrainingOptions::validation(96),
            );
            let sample = Sample::new(series)?;
            Ok(vec![sample; nodes.len()])
        }
        _ => Err(SuiteError::PhaseMismatch(id)),
    }
}

fn collect_network_samples(nodes: &mut [NodeSim], base: f64) -> Result<Vec<Sample>, SuiteError> {
    nodes
        .iter_mut()
        .map(|node| {
            let nic = node.impact().network_bandwidth;
            let values: Vec<f64> = (0..16)
                .map(|_| (base * nic * node.draw_noise(NoiseModel::NETWORK)).max(0.0))
                .collect();
            Sample::new(values).map_err(SuiteError::from)
        })
        .collect()
}

/// Runs a benchmark (sub)set over a node set in the paper's two-phase
/// order: single-node benchmarks per node, then multi-node benchmarks (if a
/// fabric is supplied).
///
/// `members[i]` is the fabric index of `nodes[i]`. Multi-node benchmarks in
/// `set` error with [`SuiteError::MissingFabric`] when `fabric` is `None`.
pub fn run_set(
    set: &[BenchmarkId],
    nodes: &mut [NodeSim],
    members: &[usize],
    fabric: Option<&FatTree>,
) -> Result<RunData, SuiteError> {
    if nodes.is_empty() {
        return Err(SuiteError::EmptyNodeSet);
    }
    if nodes.len() != members.len() {
        return Err(SuiteError::MemberMismatch {
            nodes: nodes.len(),
            members: members.len(),
        });
    }
    let mut data = RunData::default();
    // Phase 1: single-node benchmarks.
    for &bench in set.iter().filter(|b| b.spec().phase == Phase::SingleNode) {
        let _span = anubis_obs::span!(bench.spec().name);
        let mut rows = Vec::with_capacity(nodes.len());
        for node in nodes.iter_mut() {
            rows.push((node.id(), run_benchmark(bench, node)?));
        }
        anubis_obs::counter!("runner.node_runs", rows.len() as i64);
        data.results.insert(bench, rows);
    }
    // Phase 2: multi-node benchmarks.
    let multi: Vec<BenchmarkId> = set
        .iter()
        .copied()
        .filter(|b| b.spec().phase == Phase::MultiNode)
        .collect();
    if let Some(&first_multi) = multi.first() {
        let fabric = match fabric {
            Some(f) => f,
            None => return Err(SuiteError::MissingFabric(first_multi)),
        };
        if nodes.len() >= 2 {
            for bench in multi {
                let _span = anubis_obs::span!(bench.spec().name);
                let samples = run_benchmark_multi(bench, nodes, members, fabric)?;
                let rows = nodes
                    .iter()
                    .zip(samples)
                    .map(|(n, s)| (n.id(), s))
                    .collect();
                data.results.insert(bench, rows);
            }
        }
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anubis_hwsim::{FaultKind, NodeSpec};
    use anubis_netsim::FatTreeConfig;

    fn node(id: u32, seed: u64) -> NodeSim {
        NodeSim::new(NodeId(id), NodeSpec::a100_8x(), seed)
    }

    #[test]
    fn every_single_node_benchmark_produces_a_sample() {
        let mut n = node(0, 1);
        for bench in BenchmarkId::single_node() {
            let sample = run_benchmark(bench, &mut n).unwrap();
            assert!(!sample.is_empty(), "{bench}");
            assert!(sample.min() >= 0.0, "{bench}");
        }
    }

    #[test]
    fn phase_mismatch_is_rejected() {
        let mut n = node(0, 1);
        assert_eq!(
            run_benchmark(BenchmarkId::AllPairRdma, &mut n),
            Err(SuiteError::PhaseMismatch(BenchmarkId::AllPairRdma))
        );
        let fabric = FatTree::build(FatTreeConfig::figure3_testbed()).unwrap();
        let mut nodes = vec![node(0, 1), node(1, 2)];
        assert!(matches!(
            run_benchmark_multi(BenchmarkId::GpuGemmFp16, &mut nodes, &[0, 1], &fabric),
            Err(SuiteError::PhaseMismatch(_))
        ));
    }

    #[test]
    fn defective_node_shows_in_the_right_benchmark() {
        let mut healthy = node(0, 5);
        let mut defective = node(1, 5);
        defective.inject_fault(FaultKind::HcaDegraded { severity: 0.4 });
        let h = run_benchmark(BenchmarkId::IbHcaLoopback, &mut healthy).unwrap();
        let d = run_benchmark(BenchmarkId::IbHcaLoopback, &mut defective).unwrap();
        assert!(d.mean() < h.mean() * 0.7);
        // GEMM is untouched.
        let hg = run_benchmark(BenchmarkId::GpuGemmFp16, &mut healthy).unwrap();
        let dg = run_benchmark(BenchmarkId::GpuGemmFp16, &mut defective).unwrap();
        assert!((hg.mean() - dg.mean()).abs() / hg.mean() < 0.02);
    }

    #[test]
    fn all_pair_rdma_gives_each_node_n_minus_1_values() {
        let fabric = FatTree::build(FatTreeConfig::figure3_testbed()).unwrap();
        let mut nodes: Vec<NodeSim> = (0..8).map(|i| node(i, 3)).collect();
        let members: Vec<usize> = (0..8).collect();
        let samples =
            run_benchmark_multi(BenchmarkId::AllPairRdma, &mut nodes, &members, &fabric).unwrap();
        assert_eq!(samples.len(), 8);
        for s in &samples {
            assert_eq!(s.len(), 7, "one pairing per round");
        }
    }

    #[test]
    fn multi_node_allreduce_flags_bad_nic() {
        let fabric = FatTree::build(FatTreeConfig::figure3_testbed()).unwrap();
        let mut nodes: Vec<NodeSim> = (0..4).map(|i| node(i, 9)).collect();
        nodes[2].inject_fault(FaultKind::IbLinkBer { severity: 0.5 });
        let members: Vec<usize> = (0..4).collect();
        let samples = run_benchmark_multi(
            BenchmarkId::MultiNodeAllReduce,
            &mut nodes,
            &members,
            &fabric,
        )
        .unwrap();
        assert!(samples[2].mean() < samples[0].mean() * 0.6);
    }

    #[test]
    fn run_set_two_phases() {
        let fabric = FatTree::build(FatTreeConfig::figure3_testbed()).unwrap();
        let mut nodes: Vec<NodeSim> = (0..4).map(|i| node(i, 11)).collect();
        let members: Vec<usize> = (0..4).collect();
        let set = [
            BenchmarkId::GpuGemmFp16,
            BenchmarkId::CpuLatency,
            BenchmarkId::MultiNodeAllReduce,
        ];
        let data = run_set(&set, &mut nodes, &members, Some(&fabric)).unwrap();
        assert_eq!(data.benchmarks().len(), 3);
        assert_eq!(data.samples_for(BenchmarkId::GpuGemmFp16).unwrap().len(), 4);
        assert_eq!(
            data.samples_for(BenchmarkId::MultiNodeAllReduce)
                .unwrap()
                .len(),
            4
        );
    }

    #[test]
    fn run_set_requires_fabric_for_multi_node() {
        let mut nodes: Vec<NodeSim> = (0..2).map(|i| node(i, 13)).collect();
        let err = run_set(&[BenchmarkId::MultiNodeAllToAll], &mut nodes, &[0, 1], None);
        assert!(matches!(err, Err(SuiteError::MissingFabric(_))));
    }

    #[test]
    fn run_set_validates_inputs() {
        let mut nodes: Vec<NodeSim> = vec![];
        assert!(matches!(
            run_set(&[BenchmarkId::GpuGemmFp16], &mut nodes, &[], None),
            Err(SuiteError::EmptyNodeSet)
        ));
        let mut nodes = vec![node(0, 1)];
        assert!(matches!(
            run_set(&[BenchmarkId::GpuGemmFp16], &mut nodes, &[0, 1], None),
            Err(SuiteError::MemberMismatch { .. })
        ));
    }

    #[test]
    fn merge_accumulates_rows() {
        let mut a = RunData::default();
        let mut b = RunData::default();
        a.results.insert(
            BenchmarkId::CpuLatency,
            vec![(NodeId(0), Sample::scalar(95.0).unwrap())],
        );
        b.results.insert(
            BenchmarkId::CpuLatency,
            vec![(NodeId(1), Sample::scalar(96.0).unwrap())],
        );
        a.merge(b);
        assert_eq!(a.samples_for(BenchmarkId::CpuLatency).unwrap().len(), 2);
    }
}
