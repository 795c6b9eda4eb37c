//! Data-parallel training-step simulation.

use crate::model::ModelConfig;
use anubis_hwsim::perf::{overlapped_time_s, ring_allreduce_factor};
use anubis_hwsim::{NodeSim, NoiseModel, Precision};
use anubis_netsim::collective::ring_allreduce_time_s;
use anubis_netsim::FatTree;

/// Options controlling a simulated training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingOptions {
    /// Numeric precision of the run.
    pub precision: Precision,
    /// Number of steps to record.
    pub steps: usize,
    /// Warmup transient decay constant in steps (JIT/autotuning settle).
    pub warmup_decay_steps: f64,
    /// Period of the data-pipeline cycle (shuffle-buffer refills etc.).
    pub cycle_period: usize,
    /// Relative amplitude of the cycle's slow phase.
    pub cycle_amplitude: f64,
    /// Per-step measurement noise.
    pub noise: NoiseModel,
}

impl TrainingOptions {
    /// Standard validation run: FP16, `steps` steps, the default transient
    /// and cycle structure.
    pub fn validation(steps: usize) -> Self {
        Self {
            precision: Precision::Fp16,
            steps,
            warmup_decay_steps: 8.0,
            cycle_period: 48,
            cycle_amplitude: 0.03,
            noise: NoiseModel::TRAINING_STEP,
        }
    }
}

/// True (noise-free) steady-state step time in seconds on one node.
///
/// Exposed so tests and the criteria experiments can reason about the
/// deterministic part of the model.
pub fn steady_step_time_s(node: &NodeSim, model: &ModelConfig, precision: Precision) -> f64 {
    let gpus = node.spec().gpus;
    // Effective compute rate: MFU × peak, degraded by compute faults and —
    // for memory-bound models — by HBM degradation.
    let hbm_factor = node.impact().hbm_bandwidth.clamp(0.0, 1.0);
    let tflops =
        node.effective_tflops(precision) * model.mfu * hbm_factor.powf(model.memory_sensitivity);
    let compute_s = model.train_flops_per_step_per_gpu() / (tflops * 1e12);
    // Kernel launch overhead (serialized on the launch thread).
    let launch_s = model.kernels_per_step as f64 * node.effective_kernel_launch_us() * 1e-6;
    // Intra-node gradient all-reduce over NVLink. Achievable bus bandwidth
    // is well below the aggregate link rate (NCCL on A100 reaches ~40% of
    // the 600 GB/s aggregate).
    const NVLINK_BUSBW_EFFICIENCY: f64 = 0.4;
    let ring = 2.0 * (gpus as f64 - 1.0) / gpus as f64;
    let nvlink_rate =
        node.effective_nvlink_gbps() * NVLINK_BUSBW_EFFICIENCY * ring_allreduce_factor(gpus) * 1e9;
    let comm_s = ring * model.gradient_bytes() / nvlink_rate;
    let overlap = model.overlap_efficiency * node.overlap_factor();
    overlapped_time_s(compute_s + launch_s, comm_s, overlap)
}

/// Per-step modulation shared by single- and multi-node runs: warmup
/// transient, data-pipeline cycle and a mild within-cycle ramp.
#[expect(
    clippy::integer_division_remainder_used,
    reason = "the divisor is clamped to at least 1"
)]
fn step_modulation(step: usize, opts: &TrainingOptions) -> f64 {
    let warmup = 1.0 + 1.2 * (-(step as f64) / opts.warmup_decay_steps.max(1e-9)).exp();
    let phase = step % opts.cycle_period.max(1);
    let cycle = if phase < 2 {
        1.0 + opts.cycle_amplitude
    } else {
        // Mild ramp within the cycle (shuffle buffer draining).
        1.0 + 0.02 * opts.cycle_amplitude * phase as f64 / opts.cycle_period.max(1) as f64
    };
    warmup * cycle
}

/// Simulates a single-node data-parallel training run.
///
/// Returns the per-step throughput series in samples/second — the exact
/// shape the Validator's end-to-end benchmarks consume.
///
/// # Examples
///
/// ```
/// use anubis_hwsim::{NodeId, NodeSim, NodeSpec};
/// use anubis_workload::{simulate_training, ModelId, TrainingOptions};
///
/// let mut node = NodeSim::new(NodeId(0), NodeSpec::a100_8x(), 1);
/// let series = simulate_training(&mut node, &ModelId::ResNet50.config(),
///                                &TrainingOptions::validation(64));
/// assert_eq!(series.len(), 64);
/// assert!(series.iter().all(|&t| t > 0.0));
/// ```
pub fn simulate_training(
    node: &mut NodeSim,
    model: &ModelConfig,
    opts: &TrainingOptions,
) -> Vec<f64> {
    let steady = steady_step_time_s(node, model, opts.precision);
    let global_batch = (model.batch_size_per_gpu * node.spec().gpus) as f64;
    (0..opts.steps)
        .map(|step| {
            let time = steady * step_modulation(step, opts) * node.draw_noise(opts.noise);
            global_batch / time
        })
        .collect()
}

/// Simulates a multi-node data-parallel run over a fabric.
///
/// `members` are fabric node indices, parallel to `nodes`. The step is
/// gated by the slowest node (gang scheduling) and adds the inter-node ring
/// all-reduce over the fat tree, scaled by the worst per-node NIC health.
///
/// # Panics
///
/// Panics if `nodes` and `members` lengths differ or `nodes` is empty.
#[expect(
    clippy::disallowed_macros,
    clippy::indexing_slicing,
    reason = "documented preconditions; the non-empty assert bounds `nodes[0]`"
)]
pub fn simulate_multi_node_training(
    nodes: &mut [NodeSim],
    members: &[usize],
    fabric: &FatTree,
    model: &ModelConfig,
    opts: &TrainingOptions,
) -> Vec<f64> {
    assert_eq!(nodes.len(), members.len(), "one fabric index per node");
    assert!(!nodes.is_empty(), "need at least one node");
    // Slowest node gates the synchronized step.
    let slowest_local = nodes
        .iter()
        .map(|n| steady_step_time_s(n, model, opts.precision))
        .fold(0.0f64, max_or_nan);
    // Inter-node all-reduce over the fabric, derated by the worst NIC.
    let fabric_time =
        ring_allreduce_time_s(fabric, members, model.gradient_bytes()).unwrap_or(f64::INFINITY);
    let worst_nic = nodes
        .iter()
        .map(|n| n.impact().network_bandwidth)
        .fold(1.0f64, min_or_nan);
    // Floor a dead NIC at 1e-6; unlike `f64::max`, a NaN health stays NaN.
    let worst_nic = if worst_nic < 1e-6 { 1e-6 } else { worst_nic };
    let inter_comm = fabric_time / worst_nic;
    let overlap = model.overlap_efficiency
        * nodes
            .iter()
            .map(anubis_hwsim::NodeSim::overlap_factor)
            .fold(1.0f64, min_or_nan);
    let steady = overlapped_time_s(slowest_local, inter_comm, overlap);
    let global_batch = (model.batch_size_per_gpu * nodes[0].spec().gpus * nodes.len()) as f64;
    (0..opts.steps)
        .map(|step| {
            let noise = nodes[0].draw_noise(opts.noise);
            let time = steady * step_modulation(step, opts) * noise;
            global_batch / time
        })
        .collect()
}

/// `f64::max` for a fold that must not skip a NaN: a NaN operand wins.
fn max_or_nan(max: f64, x: f64) -> f64 {
    if x > max || x.is_nan() {
        x
    } else {
        max
    }
}

/// `f64::min` for a fold that must not skip a NaN: a NaN operand wins.
fn min_or_nan(min: f64, x: f64) -> f64 {
    if x < min || x.is_nan() {
        x
    } else {
        min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelId;
    use anubis_hwsim::{FaultKind, NodeId, NodeSpec};
    use anubis_netsim::FatTreeConfig;

    fn node(seed: u64) -> NodeSim {
        NodeSim::new(NodeId(0), NodeSpec::a100_8x(), seed)
    }

    #[test]
    fn throughput_is_positive_and_warmup_is_slower() {
        let mut n = node(1);
        let series = simulate_training(
            &mut n,
            &ModelId::Gpt2Small.config(),
            &TrainingOptions::validation(128),
        );
        assert_eq!(series.len(), 128);
        let warmup_mean: f64 = series[..4].iter().sum::<f64>() / 4.0;
        let steady_mean: f64 = series[64..].iter().sum::<f64>() / 64.0;
        assert!(
            warmup_mean < steady_mean * 0.85,
            "warmup {warmup_mean} vs steady {steady_mean}"
        );
    }

    #[test]
    fn compute_fault_slows_training() {
        let mut healthy = node(2);
        let mut defective = node(2);
        defective.inject_fault(FaultKind::GpuComputeDegraded { severity: 0.3 });
        let model = ModelId::BertLarge.config();
        let t_h = steady_step_time_s(&healthy, &model, Precision::Fp16);
        let t_d = steady_step_time_s(&defective, &model, Precision::Fp16);
        assert!(t_d > t_h * 1.2, "{t_h} -> {t_d}");
        // And the throughput series reflects it.
        let opts = TrainingOptions::validation(32);
        let s_h = simulate_training(&mut healthy, &model, &opts);
        let s_d = simulate_training(&mut defective, &model, &opts);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&s_d) < mean(&s_h) * 0.85);
    }

    #[test]
    fn resnet_is_less_nvlink_sensitive_than_vgg() {
        // The paper's motivating observation: some workloads barely
        // exercise the degraded path, so a defect only regresses specific
        // models. Break NVLink far past the redundancy budget.
        let mut defective = node(3);
        defective.inject_fault(FaultKind::NvLinkLanesDown { lanes: 88 });
        let healthy = node(3);
        let ratio = |model: ModelId| {
            let m = model.config();
            steady_step_time_s(&defective, &m, Precision::Fp16)
                / steady_step_time_s(&healthy, &m, Precision::Fp16)
        };
        let resnet = ratio(ModelId::ResNet50);
        let vgg = ratio(ModelId::Vgg16);
        assert!(resnet < 1.08, "ResNet slowdown {resnet}");
        assert!(vgg > 1.12, "VGG slowdown {vgg}");
        assert!(
            vgg > resnet + 0.05,
            "VGG ({vgg}) clearly above ResNet ({resnet})"
        );
    }

    #[test]
    fn lstm_is_sensitive_to_kernel_launch_overhead() {
        let mut defective = node(4);
        defective.inject_fault(FaultKind::KernelLaunchOverhead { severity: 0.5 });
        let healthy = node(4);
        let ratio = |model: ModelId| {
            let m = model.config();
            steady_step_time_s(&defective, &m, Precision::Fp16)
                / steady_step_time_s(&healthy, &m, Precision::Fp16)
        };
        assert!(ratio(ModelId::Lstm) > ratio(ModelId::ResNet50));
        assert!(ratio(ModelId::Lstm) > 1.05);
    }

    #[test]
    fn fp16_is_faster_than_fp32() {
        let n = node(5);
        let model = ModelId::BertLarge.config();
        let fp16 = steady_step_time_s(&n, &model, Precision::Fp16);
        let fp32 = steady_step_time_s(&n, &model, Precision::Fp32);
        assert!(fp32 > fp16 * 2.0, "fp32 {fp32} vs fp16 {fp16}");
    }

    #[test]
    fn series_has_periodic_structure() {
        let mut n = node(6);
        let mut opts = TrainingOptions::validation(256);
        opts.noise = NoiseModel::new(0.0);
        let series = simulate_training(&mut n, &ModelId::ResNet50.config(), &opts);
        // The cycle's slow phase (steps ≡ 0, 1 mod 48) is slower than
        // mid-cycle steps, past the warmup transient.
        let slow = series[96];
        let fast = series[96 + 20];
        assert!(slow < fast * 0.98, "cycle visible: {slow} vs {fast}");
    }

    #[test]
    fn multi_node_scales_but_sublinearly() {
        let fabric = FatTree::build(FatTreeConfig::figure3_testbed()).unwrap();
        let model = ModelId::Gpt2Large.config();
        let opts = TrainingOptions::validation(16);
        let mut single = vec![node(7)];
        let s1 = simulate_multi_node_training(&mut single, &[0], &fabric, &model, &opts);
        let mut four: Vec<NodeSim> = (0..4)
            .map(|i| NodeSim::new(NodeId(i), NodeSpec::a100_8x(), 7))
            .collect();
        let s4 = simulate_multi_node_training(&mut four, &[0, 1, 2, 3], &fabric, &model, &opts);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let speedup = mean(&s4) / mean(&s1);
        assert!(speedup > 2.0 && speedup < 4.0, "speedup {speedup}");
    }

    #[test]
    fn one_slow_node_gates_the_gang() {
        let fabric = FatTree::build(FatTreeConfig::figure3_testbed()).unwrap();
        let model = ModelId::BertLarge.config();
        let opts = TrainingOptions::validation(8);
        let mut clean: Vec<NodeSim> = (0..4)
            .map(|i| NodeSim::new(NodeId(i), NodeSpec::a100_8x(), 11))
            .collect();
        let baseline =
            simulate_multi_node_training(&mut clean, &[0, 1, 2, 3], &fabric, &model, &opts);
        let mut tainted: Vec<NodeSim> = (0..4)
            .map(|i| NodeSim::new(NodeId(i), NodeSpec::a100_8x(), 11))
            .collect();
        tainted[2].inject_fault(FaultKind::GpuComputeDegraded { severity: 0.4 });
        let slowed =
            simulate_multi_node_training(&mut tainted, &[0, 1, 2, 3], &fabric, &model, &opts);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&slowed) < mean(&baseline) * 0.8);
    }

    #[test]
    fn nan_nic_health_yields_nan_throughput() {
        let fabric = FatTree::build(FatTreeConfig::figure3_testbed()).unwrap();
        let mut nodes: Vec<NodeSim> = (0..4)
            .map(|i| NodeSim::new(NodeId(i), NodeSpec::a100_8x(), 11))
            .collect();
        nodes[1].inject_fault(FaultKind::HcaDegraded { severity: f64::NAN });
        assert!(nodes[1].impact().network_bandwidth.is_nan());
        let series = simulate_multi_node_training(
            &mut nodes,
            &[0, 1, 2, 3],
            &fabric,
            &ModelId::BertLarge.config(),
            &TrainingOptions::validation(8),
        );
        assert!(series.iter().all(|t| t.is_nan()), "{series:?}");
    }

    #[test]
    #[should_panic(expected = "one fabric index per node")]
    fn multi_node_validates_member_lengths() {
        let fabric = FatTree::build(FatTreeConfig::figure3_testbed()).unwrap();
        let mut nodes = vec![node(1)];
        simulate_multi_node_training(
            &mut nodes,
            &[0, 1],
            &fabric,
            &ModelId::ResNet50.config(),
            &TrainingOptions::validation(1),
        );
    }
}
