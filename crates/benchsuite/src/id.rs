//! Benchmark identifiers and static metadata.

use anubis_metrics::Direction;

/// Micro vs. end-to-end benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchCategory {
    /// Component-wise or pattern-wise micro-benchmark.
    Micro,
    /// End-to-end model training benchmark.
    EndToEnd,
}

/// Execution phase (Section 4: single-node first, then multi-node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Runs independently on each node.
    SingleNode,
    /// Needs a set of nodes and the network fabric.
    MultiNode,
}

/// Static metadata of one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkSpec {
    /// Display name matching Table 2.
    pub name: &'static str,
    /// Micro or end-to-end.
    pub category: BenchCategory,
    /// Single-node or multi-node phase.
    pub phase: Phase,
    /// Whether larger measurements are better.
    pub direction: Direction,
    /// Metric unit for display.
    pub unit: &'static str,
    /// Nominal running time in minutes (the `t_i` of Algorithm 1).
    pub runtime_minutes: f64,
}

/// Every benchmark in the ANUBIS suite (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BenchmarkId {
    // --- Single-node micro: computation ---
    /// GPU kernel-launch latency.
    KernelLaunch,
    /// Large square GEMM, FP32.
    GpuGemmFp32,
    /// Large square GEMM, FP16 (tensor cores).
    GpuGemmFp16,
    /// cuBLAS kernel set with common shapes.
    CublasKernels,
    /// cuDNN kernel set with common shapes.
    CudnnKernels,
    /// Sustained GPU burn (thermal saturation).
    GpuBurn,
    // --- Single-node micro: communication ---
    /// Host memory latency.
    CpuLatency,
    /// Host→device copy bandwidth.
    GpuH2dBandwidth,
    /// Device→host copy bandwidth.
    GpuD2hBandwidth,
    /// On-device copy bandwidth.
    GpuCopyBandwidth,
    /// Intra-node all-reduce over NVLink/xGMI.
    NvlinkAllReduce,
    /// InfiniBand HCA loopback.
    IbHcaLoopback,
    /// Single-node all-reduce over the IB rail.
    IbSingleNodeAllReduce,
    // --- Single-node micro: computation/communication overlap ---
    /// GEMM concurrent with all-reduce (the Section 2.1 pattern).
    MatmulAllReduceOverlap,
    /// Sharded (tensor-parallel style) MatMul.
    ShardingMatmul,
    // --- Single-node micro: disk ---
    /// FIO sequential read.
    DiskSeqRead,
    /// FIO sequential write.
    DiskSeqWrite,
    /// FIO random read.
    DiskRandRead,
    /// FIO random write.
    DiskRandWrite,
    // --- Single-node end-to-end training ---
    /// ResNet-family training.
    TrainResNet,
    /// DenseNet-family training.
    TrainDenseNet,
    /// VGG-family training.
    TrainVgg,
    /// LSTM training.
    TrainLstm,
    /// BERT training.
    TrainBert,
    /// GPT-2 training.
    TrainGpt2,
    /// Long-running GPT-2 large stress.
    GpuStress,
    // --- Multi-node ---
    /// All-pair RDMA scan (Appendix A schedules).
    AllPairRdma,
    /// Multi-node all-reduce.
    MultiNodeAllReduce,
    /// Multi-node all-gather.
    MultiNodeAllGather,
    /// Multi-node all-to-all.
    MultiNodeAllToAll,
    /// Multi-node distributed training.
    MultiNodeTraining,
}

impl BenchmarkId {
    /// The full suite in Table 2 order.
    pub const ALL: [BenchmarkId; 31] = [
        BenchmarkId::KernelLaunch,
        BenchmarkId::GpuGemmFp32,
        BenchmarkId::GpuGemmFp16,
        BenchmarkId::CublasKernels,
        BenchmarkId::CudnnKernels,
        BenchmarkId::GpuBurn,
        BenchmarkId::CpuLatency,
        BenchmarkId::GpuH2dBandwidth,
        BenchmarkId::GpuD2hBandwidth,
        BenchmarkId::GpuCopyBandwidth,
        BenchmarkId::NvlinkAllReduce,
        BenchmarkId::IbHcaLoopback,
        BenchmarkId::IbSingleNodeAllReduce,
        BenchmarkId::MatmulAllReduceOverlap,
        BenchmarkId::ShardingMatmul,
        BenchmarkId::DiskSeqRead,
        BenchmarkId::DiskSeqWrite,
        BenchmarkId::DiskRandRead,
        BenchmarkId::DiskRandWrite,
        BenchmarkId::TrainResNet,
        BenchmarkId::TrainDenseNet,
        BenchmarkId::TrainVgg,
        BenchmarkId::TrainLstm,
        BenchmarkId::TrainBert,
        BenchmarkId::TrainGpt2,
        BenchmarkId::GpuStress,
        BenchmarkId::AllPairRdma,
        BenchmarkId::MultiNodeAllReduce,
        BenchmarkId::MultiNodeAllGather,
        BenchmarkId::MultiNodeAllToAll,
        BenchmarkId::MultiNodeTraining,
    ];

    /// All single-node benchmarks.
    pub fn single_node() -> Vec<BenchmarkId> {
        Self::ALL
            .iter()
            .copied()
            .filter(|b| b.spec().phase == Phase::SingleNode)
            .collect()
    }

    /// Static metadata.
    pub fn spec(&self) -> BenchmarkSpec {
        use BenchCategory::{EndToEnd, Micro};
        use Direction::{HigherIsBetter, LowerIsBetter};
        use Phase::{MultiNode, SingleNode};
        let spec = |name, category, phase, direction, unit, runtime_minutes| BenchmarkSpec {
            name,
            category,
            phase,
            direction,
            unit,
            runtime_minutes,
        };
        match self {
            Self::KernelLaunch => spec(
                "GPU kernel launch",
                Micro,
                SingleNode,
                LowerIsBetter,
                "µs",
                2.0,
            ),
            Self::GpuGemmFp32 => spec(
                "GPU GEMM FP32",
                Micro,
                SingleNode,
                HigherIsBetter,
                "TFLOPS",
                3.0,
            ),
            Self::GpuGemmFp16 => spec(
                "GPU GEMM FP16",
                Micro,
                SingleNode,
                HigherIsBetter,
                "TFLOPS",
                3.0,
            ),
            Self::CublasKernels => spec(
                "cuBLAS kernels",
                Micro,
                SingleNode,
                HigherIsBetter,
                "TFLOPS",
                8.0,
            ),
            Self::CudnnKernels => spec(
                "cuDNN kernels",
                Micro,
                SingleNode,
                HigherIsBetter,
                "TFLOPS",
                8.0,
            ),
            Self::GpuBurn => spec(
                "GPU burn",
                Micro,
                SingleNode,
                HigherIsBetter,
                "TFLOPS",
                15.0,
            ),
            Self::CpuLatency => spec("CPU latency", Micro, SingleNode, LowerIsBetter, "ns", 3.0),
            Self::GpuH2dBandwidth => spec(
                "GPU H2D bandwidth",
                Micro,
                SingleNode,
                HigherIsBetter,
                "GB/s",
                2.0,
            ),
            Self::GpuD2hBandwidth => spec(
                "GPU D2H bandwidth",
                Micro,
                SingleNode,
                HigherIsBetter,
                "GB/s",
                2.0,
            ),
            Self::GpuCopyBandwidth => spec(
                "GPU copy bandwidth",
                Micro,
                SingleNode,
                HigherIsBetter,
                "GB/s",
                2.0,
            ),
            Self::NvlinkAllReduce => spec(
                "NVLink all-reduce",
                Micro,
                SingleNode,
                HigherIsBetter,
                "GB/s",
                5.0,
            ),
            Self::IbHcaLoopback => spec(
                "IB HCA loopback",
                Micro,
                SingleNode,
                HigherIsBetter,
                "Gb/s",
                4.0,
            ),
            Self::IbSingleNodeAllReduce => spec(
                "IB single-node all-reduce",
                Micro,
                SingleNode,
                HigherIsBetter,
                "GB/s",
                5.0,
            ),
            Self::MatmulAllReduceOverlap => spec(
                "MatMul/all-reduce overlap",
                Micro,
                SingleNode,
                HigherIsBetter,
                "TFLOPS",
                6.0,
            ),
            Self::ShardingMatmul => spec(
                "Sharding MatMul",
                Micro,
                SingleNode,
                HigherIsBetter,
                "TFLOPS",
                6.0,
            ),
            Self::DiskSeqRead => spec(
                "FIO seq read",
                Micro,
                SingleNode,
                HigherIsBetter,
                "MB/s",
                3.0,
            ),
            Self::DiskSeqWrite => spec(
                "FIO seq write",
                Micro,
                SingleNode,
                HigherIsBetter,
                "MB/s",
                3.0,
            ),
            Self::DiskRandRead => spec(
                "FIO rand read",
                Micro,
                SingleNode,
                HigherIsBetter,
                "kIOPS",
                3.0,
            ),
            Self::DiskRandWrite => spec(
                "FIO rand write",
                Micro,
                SingleNode,
                HigherIsBetter,
                "kIOPS",
                3.0,
            ),
            Self::TrainResNet => spec(
                "ResNet models",
                EndToEnd,
                SingleNode,
                HigherIsBetter,
                "samples/s",
                20.0,
            ),
            Self::TrainDenseNet => spec(
                "DenseNet models",
                EndToEnd,
                SingleNode,
                HigherIsBetter,
                "samples/s",
                18.0,
            ),
            Self::TrainVgg => spec(
                "VGG models",
                EndToEnd,
                SingleNode,
                HigherIsBetter,
                "samples/s",
                18.0,
            ),
            Self::TrainLstm => spec(
                "LSTM models",
                EndToEnd,
                SingleNode,
                HigherIsBetter,
                "samples/s",
                12.0,
            ),
            Self::TrainBert => spec(
                "BERT models",
                EndToEnd,
                SingleNode,
                HigherIsBetter,
                "samples/s",
                25.0,
            ),
            Self::TrainGpt2 => spec(
                "GPT-2 models",
                EndToEnd,
                SingleNode,
                HigherIsBetter,
                "samples/s",
                25.0,
            ),
            Self::GpuStress => spec(
                "Long-running stress (GPT-2 large)",
                EndToEnd,
                SingleNode,
                HigherIsBetter,
                "samples/s",
                45.0,
            ),
            Self::AllPairRdma => spec(
                "All-pair RDMA",
                Micro,
                MultiNode,
                HigherIsBetter,
                "GB/s",
                20.0,
            ),
            Self::MultiNodeAllReduce => spec(
                "Multi-node all-reduce",
                Micro,
                MultiNode,
                HigherIsBetter,
                "GB/s",
                10.0,
            ),
            Self::MultiNodeAllGather => spec(
                "Multi-node all-gather",
                Micro,
                MultiNode,
                HigherIsBetter,
                "GB/s",
                10.0,
            ),
            Self::MultiNodeAllToAll => spec(
                "Multi-node all-to-all",
                Micro,
                MultiNode,
                HigherIsBetter,
                "GB/s",
                12.0,
            ),
            Self::MultiNodeTraining => spec(
                "Multi-node training",
                EndToEnd,
                MultiNode,
                HigherIsBetter,
                "samples/s",
                30.0,
            ),
        }
    }

    /// Total runtime in minutes of a benchmark subset (Algorithm 1 cost).
    pub fn total_runtime_minutes(set: &[BenchmarkId]) -> f64 {
        set.iter().map(|b| b.spec().runtime_minutes).sum()
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.spec().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_table2() {
        assert_eq!(BenchmarkId::ALL.len(), 31);
        assert_eq!(BenchmarkId::single_node().len(), 26);
    }

    #[test]
    fn latency_benchmarks_are_lower_is_better() {
        assert_eq!(
            BenchmarkId::KernelLaunch.spec().direction,
            Direction::LowerIsBetter
        );
        assert_eq!(
            BenchmarkId::CpuLatency.spec().direction,
            Direction::LowerIsBetter
        );
        assert_eq!(
            BenchmarkId::GpuGemmFp16.spec().direction,
            Direction::HigherIsBetter
        );
    }

    #[test]
    fn runtimes_are_positive_and_e2e_is_slower() {
        for b in BenchmarkId::ALL {
            assert!(b.spec().runtime_minutes > 0.0, "{b}");
        }
        let micro_max = BenchmarkId::ALL
            .iter()
            .filter(|b| {
                b.spec().category == BenchCategory::Micro && b.spec().phase == Phase::SingleNode
            })
            .map(|b| b.spec().runtime_minutes)
            .fold(0.0f64, f64::max);
        let e2e_min = BenchmarkId::ALL
            .iter()
            .filter(|b| b.spec().category == BenchCategory::EndToEnd)
            .map(|b| b.spec().runtime_minutes)
            .fold(f64::INFINITY, f64::min);
        assert!(
            e2e_min >= micro_max * 0.75,
            "e2e benchmarks dominate runtime"
        );
    }

    #[test]
    fn full_set_runtime_matches_magnitude() {
        let total = BenchmarkId::total_runtime_minutes(&BenchmarkId::ALL);
        // Full validation takes a few hours (the paper's quick-but-frequent
        // philosophy needs subsets, not the full set).
        assert!(total > 240.0 && total < 600.0, "total {total} minutes");
    }

    #[test]
    fn display_uses_table2_names() {
        assert_eq!(BenchmarkId::IbHcaLoopback.to_string(), "IB HCA loopback");
        assert_eq!(BenchmarkId::TrainGpt2.to_string(), "GPT-2 models");
    }
}
