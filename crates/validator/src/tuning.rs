//! Adaptive benchmark-parameter search (paper Appendix B).
//!
//! End-to-end benchmarks only need a stable measurement window, not a full
//! training run. The search (i) finds the cycle period of the step series
//! by autocorrelation, (ii) walks cycles from the start
//! until enough consecutive cycles are self-similar within α, and (iii)
//! across nodes, keeps the candidate window that maximizes the average
//! pairwise similarity.

use anubis_metrics::{mean_pairwise_similarity, seasonal, MetricsError, Sample};
use std::fmt;

/// Number of consecutive self-similar cycles required for a stable window.
const STABLE_CYCLES: usize = 3;
/// Fallback cycle length when the series shows no credible period.
const FALLBACK_PERIOD: usize = 16;

/// A warmup/measurement split of a step series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct StepWindow {
    /// Steps to discard before measuring.
    pub warmup: usize,
    /// Steps to measure.
    pub measure: usize,
}

impl StepWindow {
    /// Total steps the tuned benchmark must run.
    pub fn total(&self) -> usize {
        self.warmup + self.measure
    }

    /// Applies the window to a series, producing the measured sub-sample.
    pub fn apply(&self, series: &[f64]) -> Result<Sample, MetricsError> {
        let end = self.total().min(series.len());
        let measured = series
            .get(self.warmup..end)
            .filter(|measured| !measured.is_empty())
            .ok_or(MetricsError::InsufficientData {
                required: self.total(),
                actual: series.len(),
            })?;
        Sample::new(measured.to_vec())
    }

    /// Fraction of `baseline_steps` the tuned window saves.
    pub fn time_saving(&self, baseline_steps: usize) -> f64 {
        if baseline_steps == 0 {
            return 0.0;
        }
        (1.0 - self.total() as f64 / baseline_steps as f64).max(0.0)
    }
}

/// Errors from the parameter search.
#[derive(Debug, Clone, PartialEq)]
pub enum TuningError {
    /// The series is too short to contain two cycles.
    TooShort {
        /// Length of the supplied series.
        length: usize,
    },
    /// No run of consecutive self-similar cycles exists within α.
    NoStableWindow,
    /// Underlying statistics error.
    Metrics(MetricsError),
}

impl fmt::Display for TuningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooShort { length } => write!(f, "series of {length} steps is too short"),
            Self::NoStableWindow => write!(f, "no stable measurement window found"),
            Self::Metrics(e) => write!(f, "statistics error: {e}"),
        }
    }
}

impl std::error::Error for TuningError {}

impl From<MetricsError> for TuningError {
    fn from(e: MetricsError) -> Self {
        Self::Metrics(e)
    }
}

/// Searches one node's step series for the earliest stable window.
///
/// # Examples
///
/// ```
/// use anubis_validator::search_step_window;
///
/// // Warmup transient then a clean 8-step cycle.
/// let series: Vec<f64> = (0..160)
///     .map(|i| {
///         let warm = 1.0 + 2.0 * (-(i as f64) / 5.0).exp();
///         (100.0 + (i % 8) as f64) / warm
///     })
///     .collect();
/// let window = search_step_window(&series, 0.95).unwrap();
/// assert!(window.total() < 160, "tuned window saves steps");
/// ```
#[expect(clippy::integer_division_remainder_used, reason = "a constant divisor")]
pub fn search_step_window(series: &[f64], alpha: f64) -> Result<StepWindow, TuningError> {
    if series.len() < 2 * FALLBACK_PERIOD {
        return Err(TuningError::TooShort {
            length: series.len(),
        });
    }
    let period = seasonal::detect_period(series, series.len() / 4, 0.2)
        .unwrap_or(FALLBACK_PERIOD)
        .max(2);
    let cycles: Vec<Sample> = series
        .chunks_exact(period)
        .map(|chunk| Sample::new(chunk.to_vec()))
        .collect::<Result<_, _>>()?;
    if cycles.len() < STABLE_CYCLES {
        return Err(TuningError::TooShort {
            length: series.len(),
        });
    }
    for (start, window) in cycles.windows(STABLE_CYCLES).enumerate() {
        if mean_pairwise_similarity(window) > alpha {
            return Ok(StepWindow {
                warmup: start * period,
                measure: STABLE_CYCLES * period,
            });
        }
    }
    Err(TuningError::NoStableWindow)
}

/// Picks the best shared window across nodes (the Appendix B final step).
///
/// Computes each node's candidate window, evaluates every candidate on all
/// nodes (trimming each series and measuring cross-node repeatability), and
/// returns the candidate with the highest repeatability together with that
/// score.
pub fn select_shared_window(
    series_per_node: &[Vec<f64>],
    alpha: f64,
) -> Result<(StepWindow, f64), TuningError> {
    if series_per_node.is_empty() {
        return Err(TuningError::TooShort { length: 0 });
    }
    let mut candidates: Vec<StepWindow> = Vec::new();
    for series in series_per_node {
        if let Ok(window) = search_step_window(series, alpha) {
            if !candidates.contains(&window) {
                candidates.push(window);
            }
        }
    }
    if candidates.is_empty() {
        return Err(TuningError::NoStableWindow);
    }
    let mut best: Option<(StepWindow, f64)> = None;
    for window in candidates {
        let trimmed: Result<Vec<Sample>, MetricsError> =
            series_per_node.iter().map(|s| window.apply(s)).collect();
        let Ok(trimmed) = trimmed else { continue };
        let score = mean_pairwise_similarity(&trimmed);
        match best {
            Some((_, s)) if s >= score => {}
            _ => best = Some((window, score)),
        }
    }
    best.ok_or(TuningError::NoStableWindow)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_series(n: usize, period: usize, warm_tau: f64, phase_jitter: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let warm = 1.0 + 2.0 * (-(i as f64) / warm_tau).exp();
                let cycle = (i % period) as f64 + phase_jitter * ((i * 31 % 97) as f64 / 97.0);
                (100.0 + cycle) / warm
            })
            .collect()
    }

    #[test]
    fn finds_window_after_warmup() {
        let series = synthetic_series(240, 12, 6.0, 0.0);
        let w = search_step_window(&series, 0.95).unwrap();
        assert!(w.warmup > 0, "warmup region must be skipped");
        assert!(w.warmup <= 48, "but not excessively: {}", w.warmup);
        assert_eq!(w.measure % 12, 0, "measure spans whole cycles");
        assert!(w.time_saving(3072 + 72) > 0.9);
    }

    #[test]
    fn stable_series_needs_no_warmup() {
        let series: Vec<f64> = (0..160).map(|i| 100.0 + (i % 8) as f64).collect();
        let w = search_step_window(&series, 0.95).unwrap();
        assert_eq!(w.warmup, 0);
    }

    #[test]
    fn rejects_short_series() {
        assert!(matches!(
            search_step_window(&[1.0; 10], 0.95),
            Err(TuningError::TooShort { length: 10 })
        ));
    }

    #[test]
    fn chaotic_series_has_no_stable_window() {
        // Exponentially growing: consecutive cycles are never similar.
        let series: Vec<f64> = (0..128).map(|i| (1.05f64).powi(i)).collect();
        assert!(matches!(
            search_step_window(&series, 0.99),
            Err(TuningError::NoStableWindow)
        ));
    }

    #[test]
    fn window_apply_trims_correctly() {
        let series: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let w = StepWindow {
            warmup: 10,
            measure: 20,
        };
        let s = w.apply(&series).unwrap();
        assert_eq!(s.len(), 20);
        assert_eq!(s.values()[0], 10.0);
        assert!(StepWindow {
            warmup: 200,
            measure: 20
        }
        .apply(&series)
        .is_err());
    }

    #[test]
    fn shared_window_maximizes_cross_node_similarity() {
        let nodes: Vec<Vec<f64>> = (0..4)
            .map(|n| {
                synthetic_series(240, 12, 6.0, 0.0)
                    .into_iter()
                    .map(|v| v * (1.0 + n as f64 * 0.0005))
                    .collect()
            })
            .collect();
        let (window, score) = select_shared_window(&nodes, 0.95).unwrap();
        assert!(score > 0.95, "shared repeatability {score}");
        assert!(window.total() < 240);
    }

    #[test]
    fn shared_window_requires_input() {
        assert!(matches!(
            select_shared_window(&[], 0.95),
            Err(TuningError::TooShort { .. })
        ));
    }

    #[test]
    fn time_saving_is_bounded() {
        let w = StepWindow {
            warmup: 24,
            measure: 36,
        };
        assert_eq!(w.time_saving(0), 0.0);
        assert!((w.time_saving(3144) - (1.0 - 60.0 / 3144.0)).abs() < 1e-12);
        assert_eq!(
            StepWindow {
                warmup: 100,
                measure: 100
            }
            .time_saving(50),
            0.0
        );
    }
}
