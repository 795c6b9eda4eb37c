//! Synthetic node-incident traces.

use anubis_hwsim::fault::IncidentCategory;
use anubis_hwsim::noise::{exponential, log_normal};
use anubis_selector::{NodeStatus, SurvivalSample};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Incident-source mix (the Figure 1 breakdown).
///
/// Weights are calibrated to the paper's description: more than 8
/// components appear, GPUs and InfiniBand links dominate.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceMix {
    weights: Vec<(IncidentCategory, f64)>,
}

impl SourceMix {
    /// The Azure-like default mix.
    pub fn azure_like() -> Self {
        Self {
            weights: vec![
                (IncidentCategory::GpuCompute, 0.22),
                (IncidentCategory::GpuMemory, 0.15),
                (IncidentCategory::IbLink, 0.21),
                (IncidentCategory::Nic, 0.08),
                (IncidentCategory::NvLink, 0.06),
                (IncidentCategory::Pcie, 0.05),
                (IncidentCategory::CpuMemory, 0.07),
                (IncidentCategory::Disk, 0.04),
                (IncidentCategory::Software, 0.12),
            ],
        }
    }

    /// The category/weight pairs.
    pub fn weights(&self) -> &[(IncidentCategory, f64)] {
        &self.weights
    }

    /// Samples a category proportionally to weight.
    pub fn sample(&self, rng: &mut ChaCha8Rng) -> IncidentCategory {
        let total: f64 = self.weights.iter().map(|(_, w)| w).sum();
        let mut target = rng.random_range(0.0..total);
        for &(category, weight) in &self.weights {
            if target < weight {
                return category;
            }
            target -= weight;
        }
        // Float rounding can carry `target` past the last weight. The mix
        // is never empty (`azure_like` is the only constructor).
        self.weights
            .last()
            .map_or(IncidentCategory::Software, |&(category, _)| category)
    }
}

/// Ticket (troubleshooting) duration model calibrated to Figure 2:
/// log-normal with 38.1% of tickets above 1 day and 10.3% above 2 weeks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TicketDurationModel {
    mu: f64,
    sigma: f64,
    cap_hours: f64,
}

impl TicketDurationModel {
    /// The Figure 2 calibration.
    pub fn figure2() -> Self {
        // Solving the two-quantile system: P(X > 24h) = 0.381 and
        // P(X > 336h) = 0.103 under ln X ~ N(mu, sigma²).
        Self {
            mu: 2.3482,
            sigma: 2.7418,
            cap_hours: 600.0,
        }
    }

    /// Samples one ticket duration in hours.
    pub fn sample(&self, rng: &mut ChaCha8Rng) -> f64 {
        log_normal(rng, self.mu, self.sigma).min(self.cap_hours)
    }

    /// Analytic exceedance probability `P(X > hours)` (ignoring the cap).
    pub fn exceedance(&self, hours: f64) -> f64 {
        if hours <= 0.0 {
            return 1.0;
        }
        let z = (hours.ln() - self.mu) / self.sigma;
        0.5 * erfc_approx(z / std::f64::consts::SQRT_2)
    }
}

/// Abramowitz–Stegun complementary error function approximation (4.5e-4
/// absolute accuracy), enough for trace calibration checks.
fn erfc_approx(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc_approx(-x);
    }
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    poly * (-x * x).exp()
}

/// One incident in the trace.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct IncidentEvent {
    /// Node index.
    pub node: u32,
    /// Hour the incident started.
    pub start_hour: f64,
    /// Troubleshooting duration in hours.
    pub ticket_hours: f64,
    /// Source category.
    pub category: IncidentCategory,
}

/// Configuration of the incident-trace generator.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentTraceConfig {
    /// Number of nodes.
    pub nodes: u32,
    /// Trace length in hours (the paper's trace: 4 months ≈ 2,880 h;
    /// accuracy capping uses 2,400 h).
    pub duration_hours: f64,
    /// Mean time to the *first* incident of a fresh node (Figure 4's
    /// 719.4 h).
    pub base_mtbi_hours: f64,
    /// Hazard growth per accumulated incident (Figure 4: the 20th gap
    /// shrinks to 151.7 h ⇒ γ ≈ 1.085).
    pub wear_factor: f64,
    /// Log-scale spread of per-node frailty (lemon nodes).
    pub frailty_sigma: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IncidentTraceConfig {
    fn default() -> Self {
        Self {
            nodes: 1000,
            duration_hours: 2880.0,
            base_mtbi_hours: 719.4,
            wear_factor: (719.4f64 / 151.7).powf(1.0 / 19.0),
            frailty_sigma: 0.5,
            seed: 42,
        }
    }
}

/// A generated incident trace.
#[derive(Debug, Clone)]
pub struct IncidentTrace {
    /// All incidents, sorted by start hour.
    pub events: Vec<IncidentEvent>,
    /// The generator configuration.
    pub config: IncidentTraceConfig,
}

/// Generates the trace: each node's inter-incident gaps are exponential
/// with hazard `frailty × γ^k / base_mtbi` after `k` incidents —
/// redundancy is only partially restored by troubleshooting, so wear
/// accumulates (Section 2.2).
pub fn generate_incident_trace(config: &IncidentTraceConfig) -> IncidentTrace {
    let mix = SourceMix::azure_like();
    let tickets = TicketDurationModel::figure2();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut events = Vec::new();
    for node in 0..config.nodes {
        let frailty = log_normal(&mut rng, 0.0, config.frailty_sigma);
        let mut clock = 0.0f64;
        let mut incidents = 0u32;
        loop {
            let rate = frailty * config.wear_factor.powi(incidents as i32) / config.base_mtbi_hours;
            let gap = exponential(&mut rng, rate);
            clock += gap;
            if clock >= config.duration_hours {
                break;
            }
            let ticket_hours = tickets.sample(&mut rng);
            events.push(IncidentEvent {
                node,
                start_hour: clock,
                ticket_hours,
                category: mix.sample(&mut rng),
            });
            incidents += 1;
            // The node is down while troubleshooting runs.
            clock += ticket_hours;
        }
    }
    events.sort_by(|a, b| a.start_hour.total_cmp(&b.start_hour));
    IncidentTrace {
        events,
        config: config.clone(),
    }
}

impl IncidentTrace {
    /// Incidents of one node, sorted by start hour.
    pub fn events_of(&self, node: u32) -> Vec<&IncidentEvent> {
        self.events.iter().filter(|e| e.node == node).collect()
    }

    /// All nodes' incidents bucketed in one pass over the trace —
    /// `buckets[n]` holds node `n`'s events in start-hour order, exactly
    /// the list [`IncidentTrace::events_of`] would filter out, without
    /// the per-node full scan (which made every whole-trace statistic
    /// quadratic).
    pub fn events_by_node(&self) -> Vec<Vec<&IncidentEvent>> {
        let mut buckets: Vec<Vec<&IncidentEvent>> = vec![Vec::new(); self.config.nodes as usize];
        for e in &self.events {
            if let Some(bucket) = buckets.get_mut(e.node as usize) {
                bucket.push(e);
            }
        }
        buckets
    }

    /// Figure 1: fraction of incidents per source category.
    pub fn source_histogram(&self) -> Vec<(IncidentCategory, f64)> {
        let mut counts = std::collections::BTreeMap::new();
        for e in &self.events {
            *counts.entry(e.category).or_insert(0usize) += 1;
        }
        let total = self.events.len().max(1) as f64;
        let mut hist: Vec<(IncidentCategory, f64)> = counts
            .into_iter()
            .map(|(c, n)| (c, n as f64 / total))
            .collect();
        hist.sort_by(|a, b| b.1.total_cmp(&a.1));
        hist
    }

    /// Figure 4 (left): mean gap between the i-th and (i+1)-th incident
    /// across nodes that reached that index. Returns `(index, mean
    /// hours, nodes)` rows for indices with at least `min_nodes` nodes.
    pub fn mean_gap_by_incident_index(&self, min_nodes: usize) -> Vec<(usize, f64, usize)> {
        let mut sums: Vec<(f64, usize)> = Vec::new();
        // Node-major, per-node time order: the same accumulation sequence
        // as the per-node filter scans, at O(N + E) instead of O(N × E).
        for events in self.events_by_node() {
            let mut prev_end = 0.0f64;
            for (i, e) in events.iter().enumerate() {
                let gap = e.start_hour - prev_end;
                if sums.len() <= i {
                    sums.resize(i + 1, (0.0, 0));
                }
                if let Some((sum, nodes)) = sums.get_mut(i) {
                    *sum += gap;
                    *nodes += 1;
                }
                prev_end = e.start_hour + e.ticket_hours;
            }
        }
        sums.into_iter()
            .enumerate()
            .filter(|(_, (_, n))| *n >= min_nodes)
            .map(|(i, (sum, n))| (i + 1, sum / n as f64, n))
            .collect()
    }

    /// Extracts survival samples (the Table 3 dataset): node status
    /// snapshots taken at every incident resolution and on a periodic
    /// grid, each labelled with the time to the node's next incident
    /// (censored at trace end).
    pub fn survival_samples(&self, grid_hours: f64) -> Vec<SurvivalSample> {
        let mut samples = Vec::new();
        for events in self.events_by_node() {
            let mut snapshots: Vec<f64> = Vec::new();
            let mut t = grid_hours;
            while t < self.config.duration_hours {
                snapshots.push(t);
                t += grid_hours;
            }
            snapshots.extend(events.iter().map(|e| e.start_hour + e.ticket_hours));
            snapshots.sort_by(f64::total_cmp);

            // Snapshots ascend, so the status prefix (all events strictly
            // before the snapshot) only ever grows: extend a running base
            // status once per event instead of replaying the node's whole
            // history per snapshot. The advance/record call sequence —
            // and therefore every accumulated float — is exactly the
            // per-snapshot replay's.
            let mut base = NodeStatus::fresh();
            let mut last_event_end = 0.0f64;
            let mut next_idx = 0usize;
            for &snap in &snapshots {
                if snap >= self.config.duration_hours {
                    continue;
                }
                while let Some(e) = events.get(next_idx) {
                    if e.start_hour >= snap {
                        break;
                    }
                    base.advance(e.start_hour - last_event_end);
                    base.record_incident(e.category);
                    last_event_end = e.start_hour + e.ticket_hours;
                    next_idx += 1;
                }
                // Status at the snapshot.
                let mut status = base;
                if snap > last_event_end {
                    status.advance(snap - last_event_end);
                }
                // Time to next incident.
                let (duration, event) = match events.get(next_idx) {
                    Some(e) => (e.start_hour - snap, true),
                    None => (self.config.duration_hours - snap, false),
                };
                if duration <= 0.0 {
                    continue;
                }
                samples.push(SurvivalSample {
                    status,
                    duration,
                    event,
                });
            }
        }
        samples
    }
}

/// Looks up the Figure 4 (right) expected time to failure in a
/// precomputed gap table (one row per incident index from
/// [`IncidentTrace::mean_gap_by_incident_index`]), so callers plotting
/// many job sizes reuse one table instead of recomputing the whole-trace
/// statistic per point.
pub fn job_time_to_failure_from(
    gaps: &[(usize, f64, usize)],
    incident_index: usize,
    job_nodes: usize,
) -> Option<f64> {
    let (_, mean_gap, _) = gaps.iter().find(|(i, _, _)| *i == incident_index)?;
    Some(mean_gap / job_nodes.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace() -> IncidentTrace {
        generate_incident_trace(&IncidentTraceConfig {
            nodes: 200,
            ..IncidentTraceConfig::default()
        })
    }

    #[test]
    fn trace_is_sorted_and_in_range() {
        let trace = small_trace();
        assert!(!trace.events.is_empty());
        assert!(trace
            .events
            .windows(2)
            .all(|w| w[0].start_hour <= w[1].start_hour));
        assert!(trace
            .events
            .iter()
            .all(|e| e.start_hour < 2880.0 && e.start_hour >= 0.0));
        assert!(trace.events.iter().all(|e| e.ticket_hours > 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small_trace();
        let b = small_trace();
        assert_eq!(a.events.len(), b.events.len());
        assert_eq!(a.events[0], b.events[0]);
    }

    #[test]
    fn source_mix_matches_figure1_weights() {
        let trace = generate_incident_trace(&IncidentTraceConfig {
            nodes: 1000,
            ..IncidentTraceConfig::default()
        });
        let hist = trace.source_histogram();
        let gpu = hist
            .iter()
            .find(|(c, _)| *c == IncidentCategory::GpuCompute)
            .map(|(_, f)| *f)
            .unwrap();
        assert!((gpu - 0.22).abs() < 0.03, "GPU share {gpu}");
        let total: f64 = hist.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mean_gaps_shrink_with_incident_index() {
        let trace = generate_incident_trace(&IncidentTraceConfig {
            nodes: 2000,
            ..IncidentTraceConfig::default()
        });
        let gaps = trace.mean_gap_by_incident_index(30);
        assert!(gaps.len() >= 5, "need several indices: {}", gaps.len());
        let first = gaps[0].1;
        let later = gaps[gaps.len() - 1].1;
        assert!(
            later < first * 0.7,
            "wear visible: first {first:.1}h vs later {later:.1}h"
        );
    }

    #[test]
    fn bucketed_events_match_per_node_filters() {
        let trace = small_trace();
        let buckets = trace.events_by_node();
        assert_eq!(buckets.len(), trace.config.nodes as usize);
        for node in 0..trace.config.nodes {
            assert_eq!(buckets[node as usize], trace.events_of(node), "node {node}");
        }
    }

    #[test]
    fn job_scale_shrinks_time_to_failure() {
        let gaps = small_trace().mean_gap_by_incident_index(1);
        let single = job_time_to_failure_from(&gaps, 1, 1).unwrap();
        let large = job_time_to_failure_from(&gaps, 1, 16).unwrap();
        assert!((single / large - 16.0).abs() < 1e-9);
        assert_eq!(job_time_to_failure_from(&gaps, 100_000, 4), None);
    }

    #[test]
    fn ticket_distribution_matches_figure2() {
        let model = TicketDurationModel::figure2();
        // Analytic calibration checks.
        assert!((model.exceedance(24.0) - 0.381).abs() < 0.01);
        assert!((model.exceedance(336.0) - 0.103).abs() < 0.01);
        // Empirical check.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| model.sample(&mut rng)).collect();
        let over_day = draws.iter().filter(|&&d| d > 24.0).count() as f64 / n as f64;
        let over_2w = draws.iter().filter(|&&d| d > 336.0).count() as f64 / n as f64;
        assert!((over_day - 0.381).abs() < 0.02, "1-day tail {over_day}");
        assert!((over_2w - 0.103).abs() < 0.02, "2-week tail {over_2w}");
    }

    #[test]
    fn survival_samples_have_valid_shapes() {
        let trace = small_trace();
        let samples = trace.survival_samples(64.0);
        assert!(samples.len() > 5_000, "sample volume: {}", samples.len());
        for s in &samples {
            assert!(s.duration > 0.0);
            assert!(s.status.uptime_hours >= 0.0);
        }
        // Censored and uncensored samples both exist.
        assert!(samples.iter().any(|s| s.event));
        assert!(samples.iter().any(|s| !s.event));
    }

    #[test]
    fn survival_statuses_track_history() {
        let trace = small_trace();
        let samples = trace.survival_samples(64.0);
        // At least some snapshots see prior incidents.
        assert!(samples.iter().any(|s| s.status.incident_count > 0));
        // Status incident counts never exceed the node's trace events.
        for s in samples.iter().take(500) {
            assert!(s.status.incident_count <= trace.events.len() as u32);
        }
    }
}
