//! Cycle-period detection for step-throughput series.
//!
//! Appendix B of the paper searches for warmup/measurement steps by first
//! computing the cycle period of a benchmark's step-throughput series "using
//! classical seasonal decomposition by moving averages" (the
//! `statsmodels.seasonal_decompose` approach) and then comparing cycles for
//! self-similarity. The search needs only the period, which this module
//! detects by autocorrelation.

use crate::stats;

/// Detects the dominant cycle period of a series by autocorrelation.
///
/// Scans lags `2..=max_period` and returns the lag with the highest
/// autocorrelation that is also a local maximum and exceeds
/// `min_correlation`. Returns `None` when no credible period exists (the
/// series is aperiodic noise or a flat line).
pub fn detect_period(values: &[f64], max_period: usize, min_correlation: f64) -> Option<usize> {
    if values.len() < 6 {
        return None;
    }
    // Lags up to `max_period`, and at most half the series.
    let acf: Vec<f64> = (0..=max_period)
        .take_while(|&lag| 2 * lag <= values.len())
        .map(|lag| stats::autocorrelation(values, lag))
        .collect();
    let mut best: Option<(usize, f64)> = None;
    for lag in 2..acf.len() {
        let (Some(&left), Some(&value)) = (acf.get(lag - 1), acf.get(lag)) else {
            continue;
        };
        // `acf` ends at the last scanned lag, whose right neighbour is -inf.
        let right = acf.get(lag + 1).copied().unwrap_or(f64::NEG_INFINITY);
        let is_local_max = value >= left && value >= right;
        if is_local_max && value >= min_correlation {
            match best {
                Some((_, b)) if value <= b => {}
                _ => best = Some((lag, value)),
            }
        }
    }
    best.map(|(lag, _)| lag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn periodic_series(n: usize, period: usize, amplitude: f64, level: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                level + amplitude * (2.0 * std::f64::consts::PI * i as f64 / period as f64).sin()
            })
            .collect()
    }

    #[test]
    fn detects_sine_period() {
        let series = periodic_series(240, 12, 5.0, 100.0);
        assert_eq!(detect_period(&series, 40, 0.3), Some(12));
    }

    #[test]
    fn detects_sawtooth_period() {
        let series: Vec<f64> = (0..300).map(|i| 100.0 + (i % 7) as f64).collect();
        assert_eq!(detect_period(&series, 30, 0.3), Some(7));
    }

    #[test]
    fn no_period_in_flat_or_short_series() {
        assert_eq!(detect_period(&[5.0; 100], 20, 0.3), None);
        assert_eq!(detect_period(&[1.0, 2.0, 3.0], 20, 0.3), None);
    }

    #[test]
    fn no_period_in_trend_only_series() {
        let series: Vec<f64> = (0..100).map(|i| i as f64).collect();
        // A pure trend has slowly decaying ACF with no local max above lag 2;
        // accept either None or a large-lag artefact, but never a small
        // confident period.
        if let Some(p) = detect_period(&series, 20, 0.9) {
            assert!(p >= 2);
        }
    }
}
