//! Micro-benchmark parameter search.
//!
//! Section 3.4's repeatability guideline 2: "adaptively search for
//! benchmark parameters to reduce benchmark duration for the given
//! hardware/software combination". For bandwidth-style micro-benchmarks
//! the dominant parameter is the message size: too small measures latency,
//! too large wastes validation time. This module sweeps message sizes and
//! picks the smallest size that reaches a saturation fraction of the
//! plateau bandwidth.

use anubis_hwsim::NodeSim;

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Message size in bytes.
    pub bytes: u64,
    /// Measured bandwidth (GB/s).
    pub bandwidth: f64,
}

/// Result of a message-size sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// All measured points, ascending by size.
    pub points: Vec<SweepPoint>,
    /// Smallest size reaching the saturation fraction of the plateau.
    pub saturation_bytes: u64,
    /// Bandwidth at the plateau (largest size measured).
    pub plateau_bandwidth: f64,
}

impl SweepResult {
    /// Fraction of the sweep's sizes that can be skipped in future
    /// validations (sizes above saturation measure nothing new).
    pub fn skippable_fraction(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let skippable = self
            .points
            .iter()
            .filter(|p| p.bytes > self.saturation_bytes)
            .count();
        skippable as f64 / self.points.len() as f64
    }
}

/// Default size grid: powers of two from 64 KiB to 512 MiB.
pub fn default_size_grid() -> Vec<u64> {
    (16..=29).map(|p| 1u64 << p).collect()
}

/// Sweeps the intra-node all-reduce across message sizes and locates the
/// saturation point (the smallest size achieving `saturation` — e.g. 0.95
/// — of the plateau bandwidth). An empty `sizes` yields no points, a zero
/// plateau and a zero saturation size; callers pass [`default_size_grid`]
/// or a non-empty custom grid.
pub fn sweep_nvlink_allreduce(node: &mut NodeSim, sizes: &[u64], saturation: f64) -> SweepResult {
    let mut points: Vec<SweepPoint> = sizes
        .iter()
        .map(|&bytes| SweepPoint {
            bytes,
            bandwidth: node.measure_nvlink_allreduce_gbps(bytes),
        })
        .collect();
    points.sort_by_key(|p| p.bytes);
    let last = points.last().copied().unwrap_or(SweepPoint {
        bytes: 0,
        bandwidth: 0.0,
    });
    let plateau = last.bandwidth;
    let threshold = plateau * saturation.clamp(0.0, 1.0);
    let saturation_bytes = points
        .iter()
        .find(|p| p.bandwidth >= threshold)
        .map_or(last.bytes, |p| p.bytes);
    SweepResult {
        points,
        saturation_bytes,
        plateau_bandwidth: plateau,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anubis_hwsim::{NodeId, NodeSpec};

    fn node() -> NodeSim {
        NodeSim::new(NodeId(0), NodeSpec::a100_8x(), 3)
    }

    #[test]
    fn bandwidth_grows_then_saturates() {
        let mut n = node();
        let result = sweep_nvlink_allreduce(&mut n, &default_size_grid(), 0.95);
        // Tiny messages are far below the plateau.
        assert!(result.points[0].bandwidth < result.plateau_bandwidth * 0.2);
        // The saturation point sits well inside the grid.
        assert!(result.saturation_bytes > result.points[0].bytes);
        assert!(
            result.saturation_bytes < result.points.last().unwrap().bytes,
            "saturation {} should be before the grid end",
            result.saturation_bytes
        );
        assert!(result.skippable_fraction() > 0.1);
    }

    #[test]
    fn stricter_saturation_needs_bigger_messages() {
        let mut a = node();
        let loose = sweep_nvlink_allreduce(&mut a, &default_size_grid(), 0.8);
        let mut b = node();
        let strict = sweep_nvlink_allreduce(&mut b, &default_size_grid(), 0.99);
        assert!(strict.saturation_bytes >= loose.saturation_bytes);
    }

    #[test]
    fn single_size_grid_degenerates_gracefully() {
        let mut n = node();
        let result = sweep_nvlink_allreduce(&mut n, &[1 << 26], 0.95);
        assert_eq!(result.points.len(), 1);
        assert_eq!(result.saturation_bytes, 1 << 26);
        assert_eq!(result.skippable_fraction(), 0.0);
    }
}
