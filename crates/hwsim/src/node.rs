//! The simulated GPU node.

use crate::fault::{FaultImpact, FaultKind, IncidentCategory};
use crate::health::{RedundantGroup, RowRemapState};
use crate::noise::{standard_normal, NoiseModel};
use crate::perf;
use crate::spec::{NodeSpec, Precision};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Identifier of a node within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node-{:04}", self.0)
    }
}

/// Disk benchmark mode (the FIO micro-benchmarks in Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskMode {
    /// Sequential read bandwidth (MB/s).
    SeqRead,
    /// Sequential write bandwidth (MB/s).
    SeqWrite,
    /// Random 4 KiB read (kIOPS).
    RandRead,
    /// Random 4 KiB write (kIOPS).
    RandWrite,
}

/// A simulated GPU node (VM).
///
/// Holds the SKU spec, the per-node "silicon lottery" offsets, active
/// faults with their aggregated impact, stateful redundancy (NVLink lanes,
/// HBM row remapping), and a deterministic RNG for measurement noise.
///
/// All `measure_*` methods return noisy observations like a real benchmark
/// run would; the `effective_*` methods expose the underlying true rates
/// for the workload simulator.
///
/// # Examples
///
/// ```
/// use anubis_hwsim::{FaultKind, NodeId, NodeSim, NodeSpec, Precision};
///
/// let mut node = NodeSim::new(NodeId(0), NodeSpec::a100_8x(), 42);
/// let healthy = node.measure_gemm_tflops(Precision::Fp16, 8192);
/// node.inject_fault(FaultKind::GpuComputeDegraded { severity: 0.3 });
/// let degraded = node.measure_gemm_tflops(Precision::Fp16, 8192);
/// assert!(degraded < healthy * 0.8);
/// ```
#[derive(Debug, Clone)]
pub struct NodeSim {
    id: NodeId,
    spec: NodeSpec,
    rng: ChaCha8Rng,
    silicon_compute: f64,
    silicon_bandwidth: f64,
    faults: Vec<FaultKind>,
    impact: FaultImpact,
    nvlink: RedundantGroup,
    row_remap: RowRemapState,
    remap_regression: Option<f64>,
}

impl NodeSim {
    /// Creates a healthy node with deterministic per-node variation.
    pub fn new(id: NodeId, spec: NodeSpec, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (u64::from(id.0) << 32));
        // "Not all GPUs are created equal": fixed ±0.25%-scale offsets
        // (larger position/thermal effects are modelled as faults).
        let silicon_compute = (0.0025 * standard_normal(&mut rng)).exp();
        let silicon_bandwidth = (0.0025 * standard_normal(&mut rng)).exp();
        let lanes = spec.gpu.nvlink_links * spec.gpus as u32;
        // A quarter of the scale-up lanes are redundancy.
        let nvlink = RedundantGroup::new(lanes, lanes / 4);
        Self {
            id,
            spec,
            rng,
            silicon_compute,
            silicon_bandwidth,
            faults: Vec::new(),
            impact: FaultImpact::NONE,
            nvlink,
            row_remap: RowRemapState::default(),
            remap_regression: None,
        }
    }

    /// Node identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Hardware spec.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// Currently active faults (stateful faults included).
    pub fn active_faults(&self) -> &[FaultKind] {
        &self.faults
    }

    /// Row-remapping state of the node's HBM.
    pub fn row_remap(&self) -> RowRemapState {
        self.row_remap
    }

    /// NVLink redundancy state.
    pub fn nvlink_group(&self) -> RedundantGroup {
        self.nvlink
    }

    /// Injects a fault; stateful faults (row remapping, NVLink lanes)
    /// resolve their probabilistic/ redundancy-masked effect here.
    pub fn inject_fault(&mut self, fault: FaultKind) {
        match fault {
            FaultKind::RowRemapErrors { correctable_errors } => {
                self.row_remap.record_errors(correctable_errors);
                if self.remap_regression.is_none() {
                    // Table 1: >10 CEs regress with p = 0.833; 1–10 with
                    // p = 0.056.
                    let p = if self.row_remap.is_high_risk() {
                        0.833
                    } else {
                        0.056
                    };
                    if self.rng.random::<f64>() < p {
                        let severity = self.rng.random_range(0.08..0.25);
                        self.remap_regression = Some(severity);
                    }
                }
            }
            FaultKind::NvLinkLanesDown { lanes } => {
                self.nvlink.break_units(lanes);
            }
            _ => {}
        }
        self.faults.push(fault);
        self.recompute_impact();
    }

    /// Repairs all faults in a category, mirroring targeted mitigation.
    pub fn repair_category(&mut self, category: IncidentCategory) {
        self.faults.retain(|f| f.category() != category);
        if category == IncidentCategory::GpuMemory {
            self.row_remap.reset();
            self.remap_regression = None;
        }
        if category == IncidentCategory::NvLink {
            self.nvlink.repair_all();
        }
        self.recompute_impact();
    }

    /// Full restoration: the hot-buffer swap / out-for-repair outcome.
    pub fn repair_all(&mut self) {
        self.faults.clear();
        self.row_remap.reset();
        self.remap_regression = None;
        self.nvlink.repair_all();
        self.recompute_impact();
    }

    fn recompute_impact(&mut self) {
        let mut impact = FaultImpact::NONE;
        for fault in &self.faults {
            impact = impact.combine(&fault.base_impact());
        }
        if let Some(severity) = self.remap_regression {
            impact.hbm_bandwidth *= 1.0 - severity;
        }
        impact.nvlink_bandwidth *= self.nvlink.capacity_factor();
        self.impact = impact;
    }

    /// Aggregated fault impact over all measurable paths.
    pub fn impact(&self) -> &FaultImpact {
        &self.impact
    }

    /// Whether any benchmarkable path currently deviates from nominal.
    pub fn has_detectable_defect(&self) -> bool {
        self.impact.is_noticeable()
    }

    /// Whether damage exists that no benchmark can currently see (masked
    /// redundancy loss or benign row remaps) — the paper's gray state.
    pub fn has_hidden_damage(&self) -> bool {
        let nvlink_hidden = self.nvlink.has_hidden_damage();
        let remap_hidden = self.row_remap.correctable_errors > 0 && self.remap_regression.is_none();
        nvlink_hidden || remap_hidden
    }

    // ------------------------------------------------------------------
    // Effective (true) rates, consumed by the workload simulator.
    // ------------------------------------------------------------------

    /// True achievable TFLOPS per GPU for large GEMMs.
    pub fn effective_tflops(&self, precision: Precision) -> f64 {
        self.spec.peak_tflops(precision) * self.silicon_compute * self.impact.compute
    }

    /// True HBM bandwidth in GB/s.
    pub fn effective_hbm_gbps(&self) -> f64 {
        self.spec.gpu.hbm_bandwidth_gbps * self.silicon_bandwidth * self.impact.hbm_bandwidth
    }

    /// True scale-up fabric bandwidth in GB/s per GPU.
    pub fn effective_nvlink_gbps(&self) -> f64 {
        self.spec.gpu.nvlink_bandwidth_gbps * self.silicon_bandwidth * self.impact.nvlink_bandwidth
    }

    /// True aggregate inter-node bandwidth in GB/s.
    pub fn effective_network_gbytes_per_s(&self) -> f64 {
        self.spec.node_network_gbytes_per_s() * self.impact.network_bandwidth
    }

    /// True PCIe bandwidth in GB/s.
    pub fn effective_pcie_gbps(&self) -> f64 {
        self.spec.pcie_bandwidth_gbps * self.impact.pcie_bandwidth
    }

    /// Extra multiplicative penalty on overlapped compute+communication.
    pub fn overlap_factor(&self) -> f64 {
        self.impact.overlap
    }

    /// True kernel-launch overhead in µs.
    pub fn effective_kernel_launch_us(&self) -> f64 {
        self.spec.gpu.kernel_launch_us * self.impact.kernel_launch
    }

    // ------------------------------------------------------------------
    // Noisy measurements (what a benchmark run observes).
    // ------------------------------------------------------------------

    fn noisy(&mut self, nominal: f64, model: NoiseModel) -> f64 {
        model.apply(nominal, &mut self.rng)
    }

    /// Measures a square GEMM of dimension `n`, returning TFLOPS.
    pub fn measure_gemm_tflops(&mut self, precision: Precision, n: usize) -> f64 {
        let nominal = self.effective_tflops(precision) * perf::gemm_efficiency(n);
        self.noisy(nominal, NoiseModel::MICRO)
    }

    /// Measures kernel launch latency in µs (latency metric: lower is
    /// better).
    pub fn measure_kernel_launch_us(&mut self) -> f64 {
        let nominal = self.effective_kernel_launch_us();
        self.noisy(nominal, NoiseModel::new(0.01))
    }

    /// Host→device copy bandwidth in GB/s.
    pub fn measure_h2d_gbps(&mut self) -> f64 {
        let nominal = self.effective_pcie_gbps() * 0.92;
        self.noisy(nominal, NoiseModel::MICRO)
    }

    /// Device→host copy bandwidth in GB/s (slightly below H2D).
    pub fn measure_d2h_gbps(&mut self) -> f64 {
        let nominal = self.effective_pcie_gbps() * 0.88;
        self.noisy(nominal, NoiseModel::MICRO)
    }

    /// On-device copy bandwidth in GB/s (reads+writes HBM).
    pub fn measure_gpu_copy_gbps(&mut self) -> f64 {
        let nominal = self.effective_hbm_gbps() * 0.87;
        self.noisy(nominal, NoiseModel::MICRO)
    }

    /// Intra-node all-reduce bus bandwidth over NVLink/xGMI in GB/s.
    pub fn measure_nvlink_allreduce_gbps(&mut self, message_bytes: u64) -> f64 {
        let eff = perf::bandwidth_efficiency(message_bytes, 4 << 20)
            * perf::ring_allreduce_factor(self.spec.gpus);
        let nominal = self.effective_nvlink_gbps() * eff;
        self.noisy(nominal, NoiseModel::new(0.008))
    }

    /// Single-node all-reduce over the IB HCAs (loopback through the NIC
    /// rail) in GB/s.
    pub fn measure_ib_single_node_allreduce_gbps(&mut self) -> f64 {
        let nominal = self.effective_network_gbytes_per_s() * 0.9 * self.impact.hca_loopback;
        self.noisy(nominal, NoiseModel::new(0.008))
    }

    /// HCA loopback bandwidth in Gb/s (per-HCA line-rate check).
    pub fn measure_hca_loopback_gbps(&mut self) -> f64 {
        let nominal = self.spec.nic_bandwidth_gbps * 0.96 * self.impact.hca_loopback;
        self.noisy(nominal, NoiseModel::MICRO)
    }

    /// Host memory latency in ns (lower is better).
    pub fn measure_cpu_latency_ns(&mut self) -> f64 {
        let nominal = self.spec.cpu.memory_latency_ns * self.impact.cpu_latency;
        self.noisy(nominal, NoiseModel::new(0.012))
    }

    /// Disk benchmark measurement (MB/s for sequential, kIOPS for random).
    pub fn measure_disk(&mut self, mode: DiskMode) -> f64 {
        let nominal = match mode {
            DiskMode::SeqRead => self.spec.disk.seq_read_mbps,
            DiskMode::SeqWrite => self.spec.disk.seq_write_mbps,
            DiskMode::RandRead => self.spec.disk.rand_read_iops / 1000.0,
            DiskMode::RandWrite => self.spec.disk.rand_write_iops / 1000.0,
        } * self.impact.disk;
        self.noisy(nominal, NoiseModel::new(0.015))
    }

    /// GPU burn: sustained GEMM throughput after thermal saturation, in
    /// TFLOPS. Throttling faults bite harder here than in short GEMMs.
    pub fn measure_gpu_burn_tflops(&mut self, precision: Precision) -> f64 {
        let sustained = self.effective_tflops(precision) * 0.93 * self.impact.compute.powf(0.5);
        self.noisy(sustained, NoiseModel::new(0.008))
    }

    /// The Section 2.1 composite: achieved TFLOPS of a GEMM while an
    /// all-reduce runs concurrently. Healthy nodes keep ~92% of standalone
    /// throughput; overlap-interference faults show up *only* here.
    pub fn measure_overlap_matmul_allreduce_tflops(&mut self, precision: Precision) -> f64 {
        let standalone = self.effective_tflops(precision) * perf::gemm_efficiency(4096);
        let comm_pressure = self.impact.nvlink_bandwidth.powf(0.25);
        let nominal = standalone * 0.92 * self.overlap_factor() * comm_pressure;
        self.noisy(nominal, NoiseModel::new(0.008))
    }

    /// Sharded MatMul: a tensor-parallel style kernel bound by both compute
    /// and NVLink.
    pub fn measure_sharding_matmul_tflops(&mut self, precision: Precision) -> f64 {
        let compute = self.effective_tflops(precision) * perf::gemm_efficiency(4096);
        let comm_limit = self.impact.nvlink_bandwidth.powf(0.5);
        self.noisy(compute * 0.85 * comm_limit, NoiseModel::new(0.008))
    }

    /// Draws a noise factor from the node's RNG (for composite simulations
    /// that need consistent randomness).
    pub fn draw_noise(&mut self, model: NoiseModel) -> f64 {
        model.factor(&mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(seed: u64) -> NodeSim {
        NodeSim::new(NodeId(1), NodeSpec::a100_8x(), seed)
    }

    #[test]
    fn healthy_measurements_near_nominal() {
        let mut n = node(7);
        let gemm = n.measure_gemm_tflops(Precision::Fp16, 8192);
        // Peak 312 × eff(8192)≈0.978×0.98 ≈ 299; allow silicon+noise slack.
        assert!(gemm > 280.0 && gemm < 310.0, "gemm {gemm}");
        let h2d = n.measure_h2d_gbps();
        assert!(h2d > 22.0 && h2d < 25.0, "h2d {h2d}");
        let lat = n.measure_cpu_latency_ns();
        assert!(lat > 90.0 && lat < 100.0, "latency {lat}");
    }

    #[test]
    fn compute_fault_only_hits_compute_paths() {
        let mut n = node(9);
        let h2d_before = n.measure_h2d_gbps();
        n.inject_fault(FaultKind::GpuComputeDegraded { severity: 0.4 });
        let gemm = n.measure_gemm_tflops(Precision::Fp16, 8192);
        assert!(gemm < 200.0, "degraded gemm {gemm}");
        let h2d_after = n.measure_h2d_gbps();
        assert!((h2d_after - h2d_before).abs() / h2d_before < 0.02);
    }

    #[test]
    fn overlap_defect_invisible_to_standalone_benchmarks() {
        let mut n = node(11);
        let gemm_before = n.measure_gemm_tflops(Precision::Fp16, 8192);
        let nvlink_before = n.measure_nvlink_allreduce_gbps(64 << 20);
        let overlap_before = n.measure_overlap_matmul_allreduce_tflops(Precision::Fp16);
        n.inject_fault(FaultKind::OverlapInterference { severity: 0.3 });
        let gemm_after = n.measure_gemm_tflops(Precision::Fp16, 8192);
        let nvlink_after = n.measure_nvlink_allreduce_gbps(64 << 20);
        let overlap_after = n.measure_overlap_matmul_allreduce_tflops(Precision::Fp16);
        assert!(
            (gemm_after - gemm_before).abs() / gemm_before < 0.02,
            "GEMM unaffected"
        );
        assert!(
            (nvlink_after - nvlink_before).abs() / nvlink_before < 0.05,
            "all-reduce unaffected"
        );
        assert!(overlap_after < overlap_before * 0.8, "overlap regresses");
    }

    #[test]
    fn nvlink_redundancy_masks_few_lanes() {
        let mut n = node(13);
        let before = n.measure_nvlink_allreduce_gbps(64 << 20);
        // 96 lanes, 24 redundant, masking budget 12.
        n.inject_fault(FaultKind::NvLinkLanesDown { lanes: 10 });
        let masked = n.measure_nvlink_allreduce_gbps(64 << 20);
        assert!(
            (masked - before).abs() / before < 0.05,
            "masked: {before} -> {masked}"
        );
        assert!(n.has_hidden_damage());
        assert!(!n.has_detectable_defect());
        n.inject_fault(FaultKind::NvLinkLanesDown { lanes: 30 });
        let broken = n.measure_nvlink_allreduce_gbps(64 << 20);
        assert!(broken < before * 0.9, "visible: {before} -> {broken}");
        assert!(n.has_detectable_defect());
    }

    #[test]
    fn row_remap_small_counts_rarely_regress() {
        // With 1–10 CEs only ~5.6% of nodes regress.
        let mut regressed = 0;
        for seed in 0..300 {
            let mut n = NodeSim::new(NodeId(seed), NodeSpec::a100_8x(), u64::from(seed));
            n.inject_fault(FaultKind::RowRemapErrors {
                correctable_errors: 5,
            });
            if n.has_detectable_defect() {
                regressed += 1;
            }
        }
        let rate = f64::from(regressed) / 300.0;
        assert!(rate > 0.01 && rate < 0.12, "low-CE regression rate {rate}");
    }

    #[test]
    fn row_remap_high_counts_mostly_regress() {
        let mut regressed = 0;
        for seed in 0..300 {
            let mut n = NodeSim::new(NodeId(seed), NodeSpec::a100_8x(), u64::from(seed));
            n.inject_fault(FaultKind::RowRemapErrors {
                correctable_errors: 15,
            });
            if n.has_detectable_defect() {
                regressed += 1;
            }
        }
        let rate = f64::from(regressed) / 300.0;
        assert!(rate > 0.72 && rate < 0.93, "high-CE regression rate {rate}");
    }

    #[test]
    fn repair_restores_nominal() {
        let mut n = node(17);
        n.inject_fault(FaultKind::GpuComputeDegraded { severity: 0.5 });
        n.inject_fault(FaultKind::NvLinkLanesDown { lanes: 40 });
        n.inject_fault(FaultKind::RowRemapErrors {
            correctable_errors: 30,
        });
        assert!(n.has_detectable_defect());
        n.repair_all();
        assert!(!n.has_detectable_defect());
        assert!(!n.has_hidden_damage());
        assert!(n.active_faults().is_empty());
        let gemm = n.measure_gemm_tflops(Precision::Fp16, 8192);
        assert!(gemm > 280.0, "restored gemm {gemm}");
    }

    #[test]
    fn category_repair_is_targeted() {
        let mut n = node(19);
        n.inject_fault(FaultKind::GpuComputeDegraded { severity: 0.3 });
        n.inject_fault(FaultKind::DiskSlow { severity: 0.5 });
        n.repair_category(IncidentCategory::Disk);
        assert_eq!(n.active_faults().len(), 1);
        assert!(n.has_detectable_defect(), "GPU fault remains");
        let disk = n.measure_disk(DiskMode::SeqRead);
        assert!(disk > 3000.0, "disk restored: {disk}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = node(99);
        let mut b = node(99);
        for _ in 0..5 {
            assert_eq!(
                a.measure_gemm_tflops(Precision::Fp32, 4096),
                b.measure_gemm_tflops(Precision::Fp32, 4096)
            );
        }
    }

    #[test]
    fn different_nodes_differ_slightly() {
        let a = NodeSim::new(NodeId(1), NodeSpec::a100_8x(), 5);
        let b = NodeSim::new(NodeId(2), NodeSpec::a100_8x(), 5);
        let ta = a.effective_tflops(Precision::Fp16);
        let tb = b.effective_tflops(Precision::Fp16);
        assert_ne!(ta, tb);
        assert!((ta - tb).abs() / ta < 0.05, "silicon lottery is small");
    }

    #[test]
    fn latency_faults_raise_latency() {
        let mut n = node(29);
        let before = n.measure_cpu_latency_ns();
        n.inject_fault(FaultKind::CpuMemoryLatency { severity: 0.3 });
        let after = n.measure_cpu_latency_ns();
        assert!(after > before * 1.3, "{before} -> {after}");
    }
}
