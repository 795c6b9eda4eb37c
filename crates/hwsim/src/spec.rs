//! Hardware SKU specifications.

/// Numeric precision of a compute kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit IEEE floating point.
    Fp32,
    /// 16-bit floating point (tensor-core path).
    Fp16,
}

/// GPU generation, used for SKU presets and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuGeneration {
    /// NVIDIA A100 80 GB SXM.
    A100,
    /// NVIDIA H100 80 GB SXM.
    H100,
    /// AMD Instinct MI250X 120 GB.
    Mi250x,
}

/// Per-GPU hardware parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Peak dense FP32 throughput in TFLOPS.
    pub fp32_tflops: f64,
    /// Peak FP16 tensor throughput in TFLOPS.
    pub fp16_tflops: f64,
    /// HBM bandwidth in GB/s.
    pub hbm_bandwidth_gbps: f64,
    /// HBM capacity in GB.
    pub hbm_capacity_gb: f64,
    /// Number of HBM banks with spare rows (row-remapping domains).
    pub hbm_banks: u32,
    /// Spare rows per bank available for row remapping.
    pub spare_rows_per_bank: u32,
    /// Aggregate per-GPU scale-up fabric (NVLink/xGMI) bandwidth in GB/s.
    pub nvlink_bandwidth_gbps: f64,
    /// Number of scale-up fabric links per GPU.
    pub nvlink_links: u32,
    /// Kernel launch overhead in microseconds.
    pub kernel_launch_us: f64,
    /// L2 cache size in MB (the shared resource behind the overlap defect).
    pub l2_cache_mb: f64,
}

/// Host CPU/memory parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Physical core count.
    pub cores: u32,
    /// Idle DRAM load latency in nanoseconds.
    pub memory_latency_ns: f64,
    /// DRAM bandwidth in GB/s.
    pub memory_bandwidth_gbps: f64,
}

/// Local NVMe parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskSpec {
    /// Sequential read bandwidth in MB/s.
    pub seq_read_mbps: f64,
    /// Sequential write bandwidth in MB/s.
    pub seq_write_mbps: f64,
    /// 4 KiB random read IOPS.
    pub rand_read_iops: f64,
    /// 4 KiB random write IOPS.
    pub rand_write_iops: f64,
}

/// A full node (VM) specification.
///
/// # Examples
///
/// ```
/// use anubis_hwsim::NodeSpec;
///
/// let spec = NodeSpec::a100_8x();
/// assert_eq!(spec.gpus, 8);
/// assert_eq!(spec.nics, 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Human-readable SKU name.
    pub name: &'static str,
    /// GPU generation.
    pub generation: GpuGeneration,
    /// GPUs per node.
    pub gpus: usize,
    /// Per-GPU parameters.
    pub gpu: GpuSpec,
    /// Host parameters.
    pub cpu: CpuSpec,
    /// PCIe bandwidth per GPU in GB/s (host↔device path).
    pub pcie_bandwidth_gbps: f64,
    /// InfiniBand HCAs per node.
    pub nics: usize,
    /// Per-HCA bandwidth in Gb/s (line rate).
    pub nic_bandwidth_gbps: f64,
    /// Local disk parameters.
    pub disk: DiskSpec,
}

impl NodeSpec {
    /// Azure-style ND A100 v4 node: 8× A100 80 GB, 8× HDR 200 Gb/s.
    pub fn a100_8x() -> Self {
        Self {
            name: "ND96amsr_A100",
            generation: GpuGeneration::A100,
            gpus: 8,
            gpu: GpuSpec {
                fp32_tflops: 19.5,
                fp16_tflops: 312.0,
                hbm_bandwidth_gbps: 2039.0,
                hbm_capacity_gb: 80.0,
                hbm_banks: 512,
                spare_rows_per_bank: 8,
                nvlink_bandwidth_gbps: 600.0,
                nvlink_links: 12,
                kernel_launch_us: 4.0,
                l2_cache_mb: 40.0,
            },
            cpu: CpuSpec {
                cores: 96,
                memory_latency_ns: 95.0,
                memory_bandwidth_gbps: 380.0,
            },
            pcie_bandwidth_gbps: 26.0,
            nics: 8,
            nic_bandwidth_gbps: 200.0,
            disk: DiskSpec {
                seq_read_mbps: 3200.0,
                seq_write_mbps: 2600.0,
                rand_read_iops: 550_000.0,
                rand_write_iops: 420_000.0,
            },
        }
    }

    /// H100 v5-style node: 8× H100 80 GB SXM, 8× NDR 400 Gb/s.
    pub fn h100_8x() -> Self {
        Self {
            name: "ND96isr_H100",
            generation: GpuGeneration::H100,
            gpus: 8,
            gpu: GpuSpec {
                fp32_tflops: 67.0,
                fp16_tflops: 989.0,
                hbm_bandwidth_gbps: 3350.0,
                hbm_capacity_gb: 80.0,
                hbm_banks: 640,
                spare_rows_per_bank: 8,
                nvlink_bandwidth_gbps: 900.0,
                nvlink_links: 18,
                kernel_launch_us: 3.5,
                l2_cache_mb: 50.0,
            },
            cpu: CpuSpec {
                cores: 96,
                memory_latency_ns: 90.0,
                memory_bandwidth_gbps: 460.0,
            },
            pcie_bandwidth_gbps: 55.0,
            nics: 8,
            nic_bandwidth_gbps: 400.0,
            disk: DiskSpec {
                seq_read_mbps: 7000.0,
                seq_write_mbps: 5200.0,
                rand_read_iops: 1_000_000.0,
                rand_write_iops: 800_000.0,
            },
        }
    }

    /// MI250X testbed node: 8× MI250X 120 GB, 8× HDR 200 Gb/s.
    pub fn mi250x_8x() -> Self {
        Self {
            name: "ND96_MI250X",
            generation: GpuGeneration::Mi250x,
            gpus: 8,
            gpu: GpuSpec {
                fp32_tflops: 47.9,
                fp16_tflops: 383.0,
                hbm_bandwidth_gbps: 3276.0,
                hbm_capacity_gb: 128.0,
                hbm_banks: 512,
                spare_rows_per_bank: 8,
                nvlink_bandwidth_gbps: 500.0,
                nvlink_links: 8,
                kernel_launch_us: 4.5,
                l2_cache_mb: 16.0,
            },
            cpu: CpuSpec {
                cores: 96,
                memory_latency_ns: 100.0,
                memory_bandwidth_gbps: 400.0,
            },
            pcie_bandwidth_gbps: 26.0,
            nics: 8,
            nic_bandwidth_gbps: 200.0,
            disk: DiskSpec {
                seq_read_mbps: 3200.0,
                seq_write_mbps: 2600.0,
                rand_read_iops: 550_000.0,
                rand_write_iops: 420_000.0,
            },
        }
    }

    /// Peak TFLOPS per GPU for a precision.
    pub fn peak_tflops(&self, precision: Precision) -> f64 {
        match precision {
            Precision::Fp32 => self.gpu.fp32_tflops,
            Precision::Fp16 => self.gpu.fp16_tflops,
        }
    }

    /// Aggregate inter-node network bandwidth in GB/s (all HCAs, line rate
    /// converted from Gb/s).
    pub fn node_network_gbytes_per_s(&self) -> f64 {
        self.nics as f64 * self.nic_bandwidth_gbps / 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_plausible() {
        for spec in [
            NodeSpec::a100_8x(),
            NodeSpec::h100_8x(),
            NodeSpec::mi250x_8x(),
        ] {
            assert_eq!(spec.gpus, 8);
            assert!(spec.gpu.fp16_tflops > spec.gpu.fp32_tflops);
            assert!(spec.gpu.hbm_bandwidth_gbps > 1000.0);
            assert!(spec.nic_bandwidth_gbps >= 200.0);
            assert!(
                spec.gpu.spare_rows_per_bank > 0,
                "row remapping needs spare rows"
            );
        }
    }

    #[test]
    fn h100_outperforms_a100() {
        let (a, h) = (NodeSpec::a100_8x(), NodeSpec::h100_8x());
        assert!(h.peak_tflops(Precision::Fp16) > a.peak_tflops(Precision::Fp16));
        assert!(h.node_network_gbytes_per_s() > a.node_network_gbytes_per_s());
    }

    #[test]
    fn aggregate_helpers() {
        let spec = NodeSpec::a100_8x();
        assert_eq!(spec.node_network_gbytes_per_s(), 8.0 * 200.0 / 8.0);
    }
}
