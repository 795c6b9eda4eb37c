//! Interquartile-range outlier fences.

use crate::error::{MetricsError, Result};
use crate::stats;

/// Tukey-style IQR fences over a set of scalar metrics.
///
/// The paper's Figure 9 baseline uses the *average throughput* of each
/// benchmark sample, computes the lower/upper quartiles `Q1`/`Q3`, and marks
/// values below `Q1 − k·(Q3 − Q1)` (with the classic `k = 1.5`) as defective.
///
/// # Examples
///
/// ```
/// use anubis_metrics::outlier::IqrFences;
///
/// let values = vec![10.0, 10.2, 9.9, 10.1, 10.0, 3.0];
/// let fences = IqrFences::fit(&values, 1.5).unwrap();
/// assert!(fences.is_low_outlier(3.0));
/// assert!(!fences.is_low_outlier(9.9));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IqrFences {
    /// Lower quartile of the fitted data.
    pub q1: f64,
    /// Upper quartile of the fitted data.
    pub q3: f64,
    /// Fence multiplier (`1.5` classically).
    pub k: f64,
}

impl IqrFences {
    /// Fits fences on scalar metrics.
    ///
    /// Requires at least four data points so the quartiles are meaningful.
    pub fn fit(values: &[f64], k: f64) -> Result<Self> {
        if values.len() < 4 {
            return Err(MetricsError::InsufficientData {
                required: 4,
                actual: values.len(),
            });
        }
        if !k.is_finite() || k < 0.0 {
            return Err(MetricsError::InvalidParameter {
                name: "k",
                message: format!("fence multiplier {k} must be finite and non-negative"),
            });
        }
        let q1 = stats::quantile(values, 0.25);
        let q3 = stats::quantile(values, 0.75);
        Ok(Self { q1, q3, k })
    }

    /// The interquartile range `Q3 − Q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Lower fence `Q1 − k·IQR`.
    pub fn lower_fence(&self) -> f64 {
        self.q1 - self.k * self.iqr()
    }

    /// Upper fence `Q3 + k·IQR`.
    pub fn upper_fence(&self) -> f64 {
        self.q3 + self.k * self.iqr()
    }

    /// Whether `value` falls below the lower fence (a throughput defect).
    pub fn is_low_outlier(&self, value: f64) -> bool {
        value < self.lower_fence()
    }

    /// Whether `value` falls outside either fence.
    pub fn is_outlier(&self, value: f64) -> bool {
        value < self.lower_fence() || value > self.upper_fence()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_clear_low_outlier() {
        let values = vec![100.0, 101.0, 99.0, 100.5, 99.5, 60.0];
        let fences = IqrFences::fit(&values, 1.5).unwrap();
        assert!(fences.is_low_outlier(60.0));
        assert!(!fences.is_low_outlier(99.0));
    }

    #[test]
    fn tight_cluster_has_no_outliers() {
        let values = vec![10.0, 10.01, 9.99, 10.0, 10.02, 9.98];
        let fences = IqrFences::fit(&values, 1.5).unwrap();
        assert!(values.iter().all(|&v| !fences.is_outlier(v)));
    }

    #[test]
    fn requires_four_points() {
        assert!(matches!(
            IqrFences::fit(&[1.0, 2.0, 3.0], 1.5),
            Err(MetricsError::InsufficientData {
                required: 4,
                actual: 3
            })
        ));
    }

    #[test]
    fn rejects_bad_multiplier() {
        assert!(IqrFences::fit(&[1.0, 2.0, 3.0, 4.0], -1.0).is_err());
        assert!(IqrFences::fit(&[1.0, 2.0, 3.0, 4.0], f64::NAN).is_err());
    }

    #[test]
    fn upper_fence_flags_high_values() {
        let values = vec![10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 50.0];
        let fences = IqrFences::fit(&values, 1.5).unwrap();
        assert!(fences.is_outlier(50.0));
        assert!(
            !fences.is_low_outlier(50.0),
            "50.0 is an upper outlier, not lower"
        );
    }
}
