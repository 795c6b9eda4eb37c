//! Classical seasonal decomposition by moving averages.
//!
//! Appendix B of the paper searches for warmup/measurement steps by first
//! computing the cycle period of a benchmark's step-throughput series "using
//! classical seasonal decomposition by moving averages" (the
//! `statsmodels.seasonal_decompose` approach) and then comparing cycles for
//! self-similarity. This module provides that substrate: period detection by
//! autocorrelation and the additive trend/seasonal/residual split.

use crate::error::{MetricsError, Result};
use crate::stats;

/// Result of an additive seasonal decomposition `value = trend + seasonal +
/// residual`.
#[derive(Debug, Clone, PartialEq)]
pub struct SeasonalDecomposition {
    /// Centered-moving-average trend; `None` at the edges where the window
    /// does not fit.
    pub trend: Vec<Option<f64>>,
    /// Zero-mean seasonal component, one value per input position.
    pub seasonal: Vec<f64>,
    /// Residual `value − trend − seasonal`; `None` where the trend is.
    pub residual: Vec<Option<f64>>,
    /// Period used for the decomposition.
    pub period: usize,
}

impl SeasonalDecomposition {
    /// Strength of seasonality in `[0, 1]`: `1 − Var(residual) /
    /// Var(seasonal + residual)` (Hyndman's FS statistic), 0 when
    /// undefined.
    pub fn seasonal_strength(&self) -> f64 {
        let mut resid = Vec::new();
        let mut detrended = Vec::new();
        for (r, s) in self.residual.iter().zip(&self.seasonal) {
            if let Some(r) = r {
                resid.push(*r);
                detrended.push(*r + s);
            }
        }
        let var_detrended = stats::variance(&detrended);
        if var_detrended == 0.0 {
            return 0.0;
        }
        (1.0 - stats::variance(&resid) / var_detrended).clamp(0.0, 1.0)
    }
}

/// Detects the dominant cycle period of a series by autocorrelation.
///
/// Scans lags `2..=max_period` and returns the lag with the highest
/// autocorrelation that is also a local maximum and exceeds
/// `min_correlation`. Returns `None` when no credible period exists (the
/// series is aperiodic noise or a flat line).
#[expect(clippy::integer_division_remainder_used, reason = "a constant divisor")]
pub fn detect_period(values: &[f64], max_period: usize, min_correlation: f64) -> Option<usize> {
    if values.len() < 6 {
        return None;
    }
    let max_period = max_period.min(values.len() / 2);
    if max_period < 2 {
        return None;
    }
    let acf: Vec<f64> = (0..=max_period)
        .map(|lag| stats::autocorrelation(values, lag))
        .collect();
    let mut best: Option<(usize, f64)> = None;
    for lag in 2..=max_period {
        let (Some(&left), Some(&value)) = (acf.get(lag - 1), acf.get(lag)) else {
            continue;
        };
        // `acf` ends at `max_period`, whose right neighbour is -inf.
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

/// Additive seasonal decomposition with a known period.
///
/// Requires at least two full periods of data and `period >= 2`.
#[expect(
    clippy::indexing_slicing,
    clippy::integer_division_remainder_used,
    reason = "`period >= 2` is checked; phases `i % period` index the per-phase arrays, \
              and `trend` and `seasonal` have one entry per value"
)]
pub fn decompose(values: &[f64], period: usize) -> Result<SeasonalDecomposition> {
    if period < 2 {
        return Err(MetricsError::InvalidParameter {
            name: "period",
            message: format!("period {period} must be at least 2"),
        });
    }
    if values.len() < 2 * period {
        return Err(MetricsError::InsufficientData {
            required: 2 * period,
            actual: values.len(),
        });
    }
    let trend = stats::centered_moving_average(values, period);

    // Phase-wise means of the detrended series.
    let mut phase_sum = vec![0.0f64; period];
    let mut phase_count = vec![0usize; period];
    for (i, t) in trend.iter().enumerate() {
        if let Some(t) = t {
            phase_sum[i % period] += values[i] - t;
            phase_count[i % period] += 1;
        }
    }
    let mut phase_mean: Vec<f64> = phase_sum
        .iter()
        .zip(&phase_count)
        .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .collect();
    // Center the seasonal component so it carries no level.
    let grand = stats::mean(&phase_mean);
    for m in &mut phase_mean {
        *m -= grand;
    }

    let seasonal: Vec<f64> = (0..values.len()).map(|i| phase_mean[i % period]).collect();
    let residual: Vec<Option<f64>> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| trend[i].map(|t| v - t - seasonal[i]))
        .collect();
    Ok(SeasonalDecomposition {
        trend,
        seasonal,
        residual,
        period,
    })
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

    #[test]
    fn decompose_recovers_components() {
        let period = 10;
        let series = periodic_series(200, period, 3.0, 50.0);
        let d = decompose(&series, period).unwrap();
        assert_eq!(d.period, period);
        // Trend should hover near the level wherever defined.
        for t in d.trend.iter().flatten() {
            assert!((t - 50.0).abs() < 0.5, "trend {t}");
        }
        // Seasonal amplitude should be close to the sine amplitude.
        let max_seasonal = d.seasonal.iter().copied().fold(f64::MIN, f64::max);
        assert!(
            (max_seasonal - 3.0).abs() < 0.5,
            "seasonal max {max_seasonal}"
        );
        // Residuals should be small.
        for r in d.residual.iter().flatten() {
            assert!(r.abs() < 0.75, "residual {r}");
        }
        assert!(d.seasonal_strength() > 0.9);
    }

    #[test]
    fn decompose_validates_inputs() {
        assert!(decompose(&[1.0; 10], 1).is_err());
        assert!(decompose(&[1.0; 10], 6).is_err());
    }

    #[test]
    fn seasonal_component_is_zero_mean() {
        let series = periodic_series(120, 8, 2.0, 10.0);
        let d = decompose(&series, 8).unwrap();
        let mean: f64 = d.seasonal[..8].iter().sum::<f64>() / 8.0;
        assert!(mean.abs() < 1e-9);
    }

    #[test]
    fn noise_has_low_seasonal_strength() {
        // Deterministic pseudo-noise with no period.
        let series: Vec<f64> = (0..200)
            .map(|i| {
                let x = (i as f64 * 12.9898).sin() * 43758.5453;
                100.0 + (x - x.floor())
            })
            .collect();
        let d = decompose(&series, 10).unwrap();
        assert!(
            d.seasonal_strength() < 0.5,
            "strength {}",
            d.seasonal_strength()
        );
    }
}
