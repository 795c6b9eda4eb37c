//! Synthetic node-allocation (job) request traces.

use anubis_hwsim::noise::{exponential, log_normal};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One GPU-job allocation request.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct AllocationRequest {
    /// Submission time in hours from trace start.
    pub submit_hour: f64,
    /// Requested node count.
    pub nodes: u32,
    /// Requested duration in hours.
    pub duration_hours: f64,
}

/// Configuration of the allocation-trace generator.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationConfig {
    /// Trace length in hours.
    pub duration_hours: f64,
    /// Mean inter-arrival time in hours (Poisson arrivals).
    pub mean_interarrival_hours: f64,
    /// Weighted node-count buckets (size, weight).
    pub size_mix: Vec<(u32, f64)>,
    /// Log-normal duration parameters (median `exp(mu)` hours).
    pub duration_mu: f64,
    /// Log-normal duration sigma.
    pub duration_sigma: f64,
    /// RNG seed.
    pub seed: u64,
}

impl AllocationConfig {
    /// A stressed-replay profile for a cluster of roughly `cluster_nodes`
    /// nodes over 30 days: arrivals sized to keep the cluster saturated
    /// (the paper's simulation schedules jobs best-effort from FIFO
    /// queues).
    pub fn stressed(cluster_nodes: u32) -> Self {
        // Aim for demand ≈ 1.3× capacity: mean job = ~4.4 nodes × ~36 h
        // (training jobs run long relative to validation).
        let node_hours_per_job = 4.4 * 36.0;
        let capacity_per_hour = f64::from(cluster_nodes);
        let mean_interarrival_hours = node_hours_per_job / (1.3 * capacity_per_hour);
        Self {
            duration_hours: 720.0,
            mean_interarrival_hours,
            size_mix: vec![(1, 0.35), (2, 0.25), (4, 0.2), (8, 0.12), (16, 0.08)],
            duration_mu: 3.4, // median ≈ 30 h
            duration_sigma: 0.6,
            seed: 17,
        }
    }
}

/// Generates the Poisson allocation trace: the [`AllocationStream`]
/// polled to `config.duration_hours`.
pub fn generate_allocation_trace(config: &AllocationConfig) -> Vec<AllocationRequest> {
    let mut requests = Vec::new();
    AllocationStream::new(config).poll(config.duration_hours, &mut requests);
    requests
}

/// Streaming Poisson job-arrival source: arrivals are pulled tick by tick
/// from one RNG instead of materialized up front, and the trace never
/// ends. Each arrival draws its gap, then its size, then its duration.
#[derive(Debug, Clone)]
pub struct AllocationStream {
    config: AllocationConfig,
    rng: ChaCha8Rng,
    next_hour: f64,
}

impl AllocationStream {
    /// Creates the stream; `config.duration_hours` is ignored (the
    /// stream is unbounded).
    pub fn new(config: &AllocationConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let rate = 1.0 / config.mean_interarrival_hours.max(1e-9);
        let next_hour = exponential(&mut rng, rate);
        Self {
            config: config.clone(),
            rng,
            next_hour,
        }
    }

    /// Appends every arrival with `submit_hour < until_hour` to `out`,
    /// advancing the stream.
    pub fn poll(&mut self, until_hour: f64, out: &mut Vec<AllocationRequest>) {
        let rate = 1.0 / self.config.mean_interarrival_hours.max(1e-9);
        while self.next_hour < until_hour {
            let submit_hour = self.next_hour;
            let nodes = sample_size(&self.config.size_mix, &mut self.rng);
            let duration_hours = log_normal(
                &mut self.rng,
                self.config.duration_mu,
                self.config.duration_sigma,
            )
            .clamp(0.5, 168.0);
            out.push(AllocationRequest {
                submit_hour,
                nodes,
                duration_hours,
            });
            self.next_hour = submit_hour + exponential(&mut self.rng, rate);
        }
    }
}

/// Samples a job size proportionally to the mix weights.
fn sample_size(mix: &[(u32, f64)], rng: &mut ChaCha8Rng) -> u32 {
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    let mut target = rng.random_range(0.0..total);
    for &(size, weight) in mix {
        if target < weight {
            return size;
        }
        target -= weight;
    }
    mix.last().map_or(1, |&(s, _)| s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_ordered_and_bounded() {
        let trace = generate_allocation_trace(&AllocationConfig::stressed(128));
        assert!(trace.len() > 100);
        assert!(trace
            .windows(2)
            .all(|w| w[0].submit_hour <= w[1].submit_hour));
        for r in &trace {
            assert!(r.submit_hour < 720.0);
            assert!(r.nodes >= 1 && r.nodes <= 16);
            assert!((0.5..=168.0).contains(&r.duration_hours));
        }
    }

    #[test]
    fn demand_oversubscribes_cluster() {
        let cluster = 128u32;
        let trace = generate_allocation_trace(&AllocationConfig::stressed(cluster));
        let demand: f64 = trace
            .iter()
            .map(|r| f64::from(r.nodes) * r.duration_hours)
            .sum();
        let capacity = f64::from(cluster) * 720.0;
        let ratio = demand / capacity;
        assert!(
            ratio > 1.05 && ratio < 1.7,
            "stressed replay keeps the queue full: {ratio}"
        );
    }

    #[test]
    fn size_mix_is_respected() {
        let trace = generate_allocation_trace(&AllocationConfig::stressed(256));
        let singles = trace.iter().filter(|r| r.nodes == 1).count() as f64;
        let frac = singles / trace.len() as f64;
        assert!((frac - 0.35).abs() < 0.05, "single-node share {frac}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate_allocation_trace(&AllocationConfig::stressed(64));
        let b = generate_allocation_trace(&AllocationConfig::stressed(64));
        assert_eq!(a, b);
    }

    #[test]
    fn allocation_stream_is_window_invariant() {
        let config = AllocationConfig::stressed(256);
        let mut whole = Vec::new();
        AllocationStream::new(&config).poll(300.0, &mut whole);
        let mut stepped = Vec::new();
        let mut stream = AllocationStream::new(&config);
        for window in 0..300 {
            stream.poll(f64::from(window + 1), &mut stepped);
        }
        assert!(!whole.is_empty());
        assert_eq!(whole, stepped);
    }
}
