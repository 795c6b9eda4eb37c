//! Benchmark measurement samples.

use crate::error::{MetricsError, Result};
use crate::stats;

/// A validated set of benchmark measurements.
///
/// A `Sample` is the unit the Validator reasons about: either a single value
/// from a micro-benchmark, or a series of per-step performance numbers
/// recorded by an end-to-end benchmark.  Construction validates that every
/// measurement is finite and non-negative (latency, throughput and bandwidth
/// metrics are all non-negative), which lets every downstream algorithm
/// assume well-formed data.
///
/// The measurement order is preserved in [`Sample::values`] (needed by the
/// seasonal decomposition in Appendix B) while a sorted copy is cached for
/// the CDF-space algorithms.
///
/// # Examples
///
/// ```
/// use anubis_metrics::Sample;
///
/// let sample = Sample::new(vec![10.0, 12.0, 11.0]).unwrap();
/// assert_eq!(sample.len(), 3);
/// assert_eq!(sample.min(), 10.0);
/// assert_eq!(sample.max(), 12.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    values: Vec<f64>,
    sorted: Vec<f64>,
}

impl Sample {
    /// Creates a sample from measurements in observation order.
    ///
    /// Returns [`MetricsError::EmptySample`] for empty input,
    /// [`MetricsError::NonFinite`] / [`MetricsError::NegativeValue`] when a
    /// measurement is malformed.
    pub fn new(values: Vec<f64>) -> Result<Self> {
        if values.is_empty() {
            return Err(MetricsError::EmptySample);
        }
        for (index, &value) in values.iter().enumerate() {
            if !value.is_finite() {
                return Err(MetricsError::NonFinite { index, value });
            }
            if value < 0.0 {
                return Err(MetricsError::NegativeValue { index, value });
            }
        }
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        Ok(Self { values, sorted })
    }

    /// Creates a single-measurement sample, the shape produced by most
    /// micro-benchmarks.
    pub fn scalar(value: f64) -> Result<Self> {
        Self::new(vec![value])
    }

    /// Measurements in original observation order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Measurements in ascending order.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the sample is empty (never true for a constructed `Sample`).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Smallest measurement.
    #[expect(
        clippy::indexing_slicing,
        reason = "a constructed `Sample` is non-empty"
    )]
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest measurement.
    #[expect(
        clippy::indexing_slicing,
        reason = "a constructed `Sample` is non-empty"
    )]
    pub fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1]
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        stats::mean(&self.values)
    }

    /// Sample standard deviation (n-1 denominator; 0 for singletons).
    pub fn std_dev(&self) -> f64 {
        stats::std_dev(&self.values)
    }

    /// Median measurement.
    pub fn median(&self) -> f64 {
        stats::quantile_sorted(&self.sorted, 0.5)
    }

    /// Quantile with linear interpolation; `q` must be in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Result<f64> {
        if !(0.0..=1.0).contains(&q) {
            return Err(MetricsError::InvalidParameter {
                name: "q",
                message: format!("quantile {q} outside [0, 1]"),
            });
        }
        Ok(stats::quantile_sorted(&self.sorted, q))
    }

    /// Returns the sub-sample covering `[start, end)` of the observation
    /// order, as used when trimming warmup steps.
    pub fn slice(&self, start: usize, end: usize) -> Result<Self> {
        match self.values.get(start..end) {
            Some(values) if start < end => Self::new(values.to_vec()),
            _ => Err(MetricsError::InvalidParameter {
                name: "range",
                message: format!(
                    "slice [{start}, {end}) invalid for sample of length {}",
                    self.values.len()
                ),
            }),
        }
    }
}

impl serde::Serialize for Sample {
    /// Serializes as the plain measurement array (observation order) —
    /// the shape external tooling expects for benchmark results.
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        self.values.serialize(serializer)
    }
}

impl TryFrom<Vec<f64>> for Sample {
    type Error = MetricsError;

    fn try_from(values: Vec<f64>) -> Result<Self> {
        Self::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty() {
        assert_eq!(Sample::new(vec![]), Err(MetricsError::EmptySample));
    }

    #[test]
    fn rejects_nan_and_infinite() {
        assert!(matches!(
            Sample::new(vec![1.0, f64::NAN]),
            Err(MetricsError::NonFinite { index: 1, .. })
        ));
        assert!(matches!(
            Sample::new(vec![f64::INFINITY]),
            Err(MetricsError::NonFinite { index: 0, .. })
        ));
    }

    #[test]
    fn rejects_negative() {
        assert!(matches!(
            Sample::new(vec![3.0, -0.5]),
            Err(MetricsError::NegativeValue { index: 1, .. })
        ));
    }

    #[test]
    fn preserves_observation_order_and_sorts() {
        let s = Sample::new(vec![3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.values(), &[3.0, 1.0, 2.0]);
        assert_eq!(s.sorted(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn scalar_sample() {
        let s = Sample::scalar(42.0).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.median(), 42.0);
    }

    #[test]
    fn descriptive_statistics() {
        let s = Sample::new(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.138089935299395).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.median() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = Sample::new(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.quantile(0.0).unwrap(), 1.0);
        assert_eq!(s.quantile(1.0).unwrap(), 4.0);
        assert!((s.quantile(0.5).unwrap() - 2.5).abs() < 1e-12);
        assert!(s.quantile(1.5).is_err());
    }

    #[test]
    fn slice_trims_warmup() {
        let s = Sample::new(vec![10.0, 20.0, 30.0, 40.0]).unwrap();
        let trimmed = s.slice(1, 3).unwrap();
        assert_eq!(trimmed.values(), &[20.0, 30.0]);
        assert!(s.slice(3, 3).is_err());
        assert!(s.slice(0, 5).is_err());
    }

    #[test]
    fn serializes_as_value_array() {
        let s = Sample::new(vec![3.0, 1.0, 2.5]).unwrap();
        assert_eq!(crate::json::to_json(&s).unwrap(), "[3,1,2.5]");
    }
}
