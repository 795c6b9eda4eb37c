//! Survival-model interface and the Table 3 exponential baselines.

use crate::status::NodeStatus;

/// Prediction cap in hours (the paper caps at the 2,400-hour trace length
/// so accuracy stays ≤ 100%).
pub const TBNI_CAP_HOURS: f64 = 2400.0;

/// One training/evaluation sample: a node-status snapshot and the observed
/// time before the next incident.
#[derive(Debug, Clone, PartialEq)]
pub struct SurvivalSample {
    /// Node status at the snapshot.
    pub status: NodeStatus,
    /// Hours until the next incident (or until censoring).
    pub duration: f64,
    /// Whether an incident was observed (`false` = right-censored: the
    /// trace ended first).
    pub event: bool,
}

/// A model of the time before a node's next incident.
pub trait SurvivalModel {
    /// Expected time before the next incident, capped at
    /// [`TBNI_CAP_HOURS`].
    fn expected_tbni(&self, status: &NodeStatus) -> f64;

    /// Probability of an incident within `horizon` hours from now.
    fn incident_probability(&self, status: &NodeStatus, horizon: f64) -> f64;

    /// Probability that no node in `statuses` has an incident within
    /// `horizon` hours: `Π (1 − pₙ)`, each `pₙ` clamped to `[0, 1]`,
    /// multiplied in status order from `1.0` (`1.0` for an empty set).
    ///
    /// An override must return these exact bits; it may only evaluate the
    /// members together (as [`crate::CoxTimeModel`] does, one network batch
    /// for the whole set).
    fn joint_survival(&self, statuses: &[NodeStatus], horizon: f64) -> f64 {
        statuses
            .iter()
            .map(|s| 1.0 - self.incident_probability(s, horizon).clamp(0.0, 1.0))
            .product()
    }
}

/// Harrell's concordance index over event samples: the fraction of
/// comparable sample pairs whose predicted TBNIs rank the same way as
/// their observed TBNIs (0.5 = uninformative, 1.0 = perfect ranking).
///
/// Constant-prediction models (the paper's global exponential and
/// per-hour baselines) score exactly 0.5 by convention (ties count ½),
/// which makes the C-index a sharper discriminator than the capped-L1
/// accuracy when the TBNI distribution is concentrated.
#[expect(
    clippy::float_cmp,
    clippy::indexing_slicing,
    reason = "pair indices are below the event and prediction counts; exact ties are Harrell's tied pairs"
)]
pub fn concordance_index(model: &(dyn SurvivalModel + Sync), samples: &[SurvivalSample]) -> f64 {
    let events: Vec<&SurvivalSample> = samples.iter().filter(|s| s.event).collect();
    if events.len() < 2 {
        return 0.5;
    }
    let predictions = parallel_predictions(model, &events);
    let mut concordant = 0.0f64;
    let mut comparable = 0.0f64;
    for i in 0..events.len() {
        for j in i + 1..events.len() {
            let (ti, tj) = (events[i].duration, events[j].duration);
            if ti == tj {
                continue;
            }
            comparable += 1.0;
            let (pi, pj) = (predictions[i], predictions[j]);
            if pi == pj {
                concordant += 0.5;
            } else if (ti < tj) == (pi < pj) {
                concordant += 1.0;
            }
        }
    }
    if comparable == 0.0 {
        0.5
    } else {
        concordant / comparable
    }
}

/// Mean prediction accuracy over event samples:
/// `mean(1 − |prediction − TBNI| / cap)` — the Table 3 metric.
pub fn model_accuracy(model: &(dyn SurvivalModel + Sync), samples: &[SurvivalSample]) -> f64 {
    let events: Vec<&SurvivalSample> = samples.iter().filter(|s| s.event).collect();
    if events.is_empty() {
        return 0.0;
    }
    let predictions = parallel_predictions(model, &events);
    let total: f64 = events
        .iter()
        .zip(&predictions)
        .map(|(s, &p)| {
            let prediction = p.min(TBNI_CAP_HOURS);
            let actual = s.duration.min(TBNI_CAP_HOURS);
            1.0 - (prediction - actual).abs() / TBNI_CAP_HOURS
        })
        .sum();
    total / events.len() as f64
}

/// Samples per parallel prediction chunk; fixed so the output layout is a
/// pure function of the event count.
const SAMPLES_PER_CHUNK: usize = 64;

/// Per-sample TBNI predictions in sample order. Predictions are mutually
/// independent, so computing them on workers and aggregating sequentially
/// is bit-identical to the sequential loop at any thread count.
fn parallel_predictions(
    model: &(dyn SurvivalModel + Sync),
    events: &[&SurvivalSample],
) -> Vec<f64> {
    let per_chunk: Vec<Vec<f64>> =
        anubis_parallel::map_chunks(events, SAMPLES_PER_CHUNK, 0, |_, chunk| {
            chunk
                .iter()
                .map(|s| model.expected_tbni(&s.status))
                .collect()
        });
    per_chunk.into_iter().flatten().collect()
}

// ---------------------------------------------------------------------
// Baseline 1: global exponential distribution.
// ---------------------------------------------------------------------

/// `S(t) = e^{−λt}` with one global rate — assumes the incident rate is
/// constant and independent of node status.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialModel {
    /// Fitted incident rate per hour.
    pub rate: f64,
}

impl ExponentialModel {
    /// Maximum-likelihood fit with censoring: `λ = events / total exposure`.
    pub fn fit(samples: &[SurvivalSample]) -> Self {
        let events = samples.iter().filter(|s| s.event).count() as f64;
        let exposure: f64 = samples.iter().map(|s| s.duration).sum();
        let rate = if exposure > 0.0 && events > 0.0 {
            events / exposure
        } else {
            1e-6
        };
        Self { rate }
    }
}

impl SurvivalModel for ExponentialModel {
    fn expected_tbni(&self, _status: &NodeStatus) -> f64 {
        (1.0 / self.rate).min(TBNI_CAP_HOURS)
    }

    fn incident_probability(&self, _status: &NodeStatus, horizon: f64) -> f64 {
        1.0 - (-self.rate * horizon.max(0.0)).exp()
    }
}

// ---------------------------------------------------------------------
// Baseline 2: exponential per historical incident count.
// ---------------------------------------------------------------------

/// One exponential rate per historical-incident-count bucket (buckets
/// saturate at [`ExponentialPerCountModel::MAX_BUCKET`]), as informed by
/// Figure 4's count-dependent MTBI.
#[derive(Debug, Clone, PartialEq)]
pub struct ExponentialPerCountModel {
    rates: Vec<f64>,
}

impl ExponentialPerCountModel {
    /// Counts at or above this share one bucket.
    pub const MAX_BUCKET: usize = 20;

    /// Fits per-bucket rates, falling back to the global rate for empty
    /// buckets.
    #[expect(
        clippy::indexing_slicing,
        reason = "buckets are clamped to `MAX_BUCKET`"
    )]
    pub fn fit(samples: &[SurvivalSample]) -> Self {
        let global = ExponentialModel::fit(samples).rate;
        let mut events = [0.0f64; Self::MAX_BUCKET + 1];
        let mut exposure = [0.0f64; Self::MAX_BUCKET + 1];
        for s in samples {
            let bucket = (s.status.incident_count as usize).min(Self::MAX_BUCKET);
            if s.event {
                events[bucket] += 1.0;
            }
            exposure[bucket] += s.duration;
        }
        let rates = events
            .iter()
            .zip(&exposure)
            .map(|(&e, &x)| if e > 0.0 && x > 0.0 { e / x } else { global })
            .collect();
        Self { rates }
    }

    fn rate_for(&self, status: &NodeStatus) -> f64 {
        // `fit` always fills MAX_BUCKET + 1 rates, but degrade to the last
        // bucket rather than panic if that invariant ever breaks.
        let bucket = (status.incident_count as usize).min(Self::MAX_BUCKET);
        self.rates
            .get(bucket)
            .or_else(|| self.rates.last())
            .copied()
            .unwrap_or(0.0)
    }
}

impl SurvivalModel for ExponentialPerCountModel {
    fn expected_tbni(&self, status: &NodeStatus) -> f64 {
        (1.0 / self.rate_for(status)).min(TBNI_CAP_HOURS)
    }

    fn incident_probability(&self, status: &NodeStatus, horizon: f64) -> f64 {
        1.0 - (-self.rate_for(status) * horizon.max(0.0)).exp()
    }
}

// ---------------------------------------------------------------------
// Baseline 3: exponential per current up time (empirical survival).
// ---------------------------------------------------------------------

/// Empirical survival over durations: the incident rate for hour `H` comes
/// from the fraction of samples living at least `H` hours, and predictions
/// condition on the node's current time since its last incident.
#[derive(Debug, Clone, PartialEq)]
pub struct ExponentialPerHourModel {
    /// Sorted observed durations (censored treated as surviving).
    durations: Vec<f64>,
}

impl ExponentialPerHourModel {
    /// Fits the empirical survival curve.
    pub fn fit(samples: &[SurvivalSample]) -> Self {
        let mut durations: Vec<f64> = samples.iter().map(|s| s.duration).collect();
        durations.sort_by(f64::total_cmp);
        Self { durations }
    }

    /// Empirical `S(t)`: fraction of samples with duration ≥ t.
    pub fn survival(&self, t: f64) -> f64 {
        if self.durations.is_empty() {
            return 1.0;
        }
        let below = self.durations.partition_point(|&d| d < t);
        (self.durations.len() - below) as f64 / self.durations.len() as f64
    }
}

impl SurvivalModel for ExponentialPerHourModel {
    /// `E[T]` by integrating the survival curve from 0 to the cap.
    ///
    /// The paper's Table 3 baseline does *not* condition on node age for
    /// its TBNI prediction (it predicts past the 2,400-hour cap for all
    /// samples), so this ignores `status`.
    fn expected_tbni(&self, _status: &NodeStatus) -> f64 {
        // Trapezoid over a fixed grid up to the cap.
        let steps = 240;
        let dt = TBNI_CAP_HOURS / steps as f64;
        let mut integral = 0.0;
        for k in 0..steps {
            let t0 = k as f64 * dt;
            let t1 = t0 + dt;
            integral += 0.5 * (self.survival(t0) + self.survival(t1)) * dt;
        }
        integral.min(TBNI_CAP_HOURS)
    }

    fn incident_probability(&self, status: &NodeStatus, horizon: f64) -> f64 {
        let u = status.hours_since_last_incident;
        let s_u = self.survival(u);
        if s_u <= 0.0 {
            return 1.0;
        }
        (1.0 - self.survival(u + horizon.max(0.0)) / s_u).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anubis_hwsim::fault::IncidentCategory;

    fn sample(count: u32, since_last: f64, duration: f64, event: bool) -> SurvivalSample {
        let mut status = NodeStatus::fresh();
        status.advance(500.0);
        for _ in 0..count {
            status.record_incident(IncidentCategory::GpuCompute);
        }
        status.hours_since_last_incident = since_last;
        SurvivalSample {
            status,
            duration,
            event,
        }
    }

    #[test]
    fn exponential_fit_matches_mean() {
        let samples: Vec<SurvivalSample> = (1..=10)
            .map(|i| sample(0, 0.0, i as f64 * 100.0, true))
            .collect();
        let model = ExponentialModel::fit(&samples);
        // Mean duration 550 => rate 1/550.
        assert!((model.rate - 1.0 / 550.0).abs() < 1e-9);
        assert!((model.expected_tbni(&NodeStatus::fresh()) - 550.0).abs() < 1e-6);
    }

    #[test]
    fn censoring_inflates_exponential_prediction() {
        let mut samples: Vec<SurvivalSample> =
            (0..5).map(|_| sample(0, 0.0, 500.0, true)).collect();
        samples.extend((0..20).map(|_| sample(0, 0.0, 2400.0, false)));
        let model = ExponentialModel::fit(&samples);
        // 5 events over 50,500 exposure hours => 1/λ > 2400 => capped.
        assert_eq!(model.expected_tbni(&NodeStatus::fresh()), TBNI_CAP_HOURS);
    }

    #[test]
    fn incident_probability_grows_with_horizon() {
        let model = ExponentialModel { rate: 1.0 / 100.0 };
        let s = NodeStatus::fresh();
        let p1 = model.incident_probability(&s, 10.0);
        let p2 = model.incident_probability(&s, 100.0);
        assert!(p1 < p2);
        assert!((p2 - (1.0 - (-1.0f64).exp())).abs() < 1e-9);
        assert_eq!(model.incident_probability(&s, 0.0), 0.0);
    }

    #[test]
    fn per_count_model_differentiates_buckets() {
        let mut samples = Vec::new();
        for _ in 0..50 {
            samples.push(sample(0, 0.0, 1000.0, true)); // healthy: long TBNI
            samples.push(sample(10, 0.0, 50.0, true)); // worn: short TBNI
        }
        let model = ExponentialPerCountModel::fit(&samples);
        let healthy = model.expected_tbni(&sample(0, 0.0, 0.0, true).status);
        let worn = model.expected_tbni(&sample(10, 0.0, 0.0, true).status);
        assert!(healthy > 900.0, "healthy {healthy}");
        assert!(worn < 100.0, "worn {worn}");
        assert!(
            model.incident_probability(&sample(10, 0.0, 0.0, true).status, 24.0)
                > model.incident_probability(&sample(0, 0.0, 0.0, true).status, 24.0)
        );
    }

    #[test]
    fn per_count_unseen_bucket_falls_back_to_global() {
        let samples: Vec<SurvivalSample> = (0..10).map(|_| sample(0, 0.0, 200.0, true)).collect();
        let model = ExponentialPerCountModel::fit(&samples);
        let unseen = sample(7, 0.0, 0.0, true).status;
        assert!((model.expected_tbni(&unseen) - 200.0).abs() < 1e-6);
    }

    #[test]
    fn per_hour_survival_is_monotone() {
        let samples: Vec<SurvivalSample> = (1..=20)
            .map(|i| sample(0, 0.0, i as f64 * 50.0, true))
            .collect();
        let model = ExponentialPerHourModel::fit(&samples);
        assert_eq!(model.survival(0.0), 1.0);
        assert!(model.survival(500.0) > model.survival(900.0));
        assert_eq!(model.survival(1001.0), 0.0);
    }

    #[test]
    fn per_hour_tbni_ignores_status() {
        let mut samples: Vec<SurvivalSample> =
            (0..30).map(|_| sample(0, 0.0, 30.0, true)).collect();
        samples.extend((0..10).map(|_| sample(0, 0.0, 2000.0, true)));
        let model = ExponentialPerHourModel::fit(&samples);
        // The Table 3 prediction ignores status (the paper's baseline).
        let a = model.expected_tbni(&sample(0, 0.0, 0.0, true).status);
        let b = model.expected_tbni(&sample(0, 100.0, 0.0, true).status);
        assert_eq!(a, b);
    }

    #[test]
    fn concordance_of_constant_predictor_is_half() {
        let samples: Vec<SurvivalSample> = (1..=10)
            .map(|i| sample(0, 0.0, i as f64 * 50.0, true))
            .collect();
        let model = ExponentialModel { rate: 1.0 / 100.0 }; // constant prediction
        assert!((concordance_index(&model, &samples) - 0.5).abs() < 1e-12);
        assert_eq!(concordance_index(&model, &samples[..1]), 0.5);
    }

    #[test]
    fn concordance_rewards_correct_ranking() {
        // Worn nodes (high count) fail sooner; per-count learns that.
        let mut samples = Vec::new();
        for i in 0..40 {
            samples.push(sample(0, 0.0, 800.0 + f64::from(i), true));
            samples.push(sample(10, 0.0, 50.0 + f64::from(i), true));
        }
        let model = ExponentialPerCountModel::fit(&samples);
        let c = concordance_index(&model, &samples);
        assert!(c > 0.7, "per-count C-index {c}");
    }

    #[test]
    fn accuracy_metric_behaves() {
        let samples: Vec<SurvivalSample> = vec![
            sample(0, 0.0, 100.0, true),
            sample(0, 0.0, 200.0, true),
            sample(0, 0.0, 9999.0, false), // censored: ignored
        ];
        struct Oracle;
        impl SurvivalModel for Oracle {
            fn expected_tbni(&self, _s: &NodeStatus) -> f64 {
                150.0
            }
            fn incident_probability(&self, _s: &NodeStatus, _h: f64) -> f64 {
                0.5
            }
        }
        let acc = model_accuracy(&Oracle, &samples);
        // Both events are 50h off: 1 - 50/2400 each.
        assert!((acc - (1.0 - 50.0 / 2400.0)).abs() < 1e-9);
        assert_eq!(model_accuracy(&Oracle, &[]), 0.0);
    }
}
