//! Empirical cumulative distribution functions.

use crate::sample::Sample;

/// Empirical CDF of a sample.
///
/// The CDF is the right-continuous step function
/// `F(x) = |{ v in sample : v <= x }| / n`. The paper's criteria and defect
/// filtering (Section 3.4) operate entirely in this distribution space
/// instead of on average metrics, which is what gives the criteria their
/// clear-cut margins.
///
/// # Examples
///
/// ```
/// use anubis_metrics::{Ecdf, Sample};
///
/// let sample = Sample::new(vec![1.0, 2.0, 2.0, 4.0]).unwrap();
/// let cdf = Ecdf::new(&sample);
/// assert_eq!(cdf.eval(0.5), 0.0);
/// assert_eq!(cdf.eval(2.0), 0.75);
/// assert_eq!(cdf.eval(10.0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF of `sample`.
    pub fn new(sample: &Sample) -> Self {
        Self {
            sorted: sample.sorted().to_vec(),
        }
    }

    /// Builds an ECDF from an already-sorted support. The caller (the
    /// [`crate::EcdfSketch`] collapse path) guarantees `sorted` is ascending
    /// in [`f64::total_cmp`] order — the same order [`Sample`] sorts with.
    #[expect(
        clippy::disallowed_macros,
        reason = "debug-only check of the caller's contract"
    )]
    pub(crate) fn from_sorted(sorted: Vec<f64>) -> Self {
        debug_assert!(sorted.is_sorted_by(|a, b| a.total_cmp(b).is_le()));
        Self { sorted }
    }

    /// Number of underlying measurements.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF has no support points: never for one built from a
    /// [`Sample`], only for an empty [`crate::EcdfSketch`]'s `to_ecdf`.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Evaluates `F(x)`, the fraction of measurements `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point returns the count of values <= x because the
        // predicate `v <= x` is monotone over the sorted slice.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The quantile function (generalized inverse CDF) for `p` in `[0, 1]`:
    /// the `ceil(p · n)`-th smallest support point (the smallest for
    /// `p = 0`). An empty support has no quantiles and returns NaN.
    pub fn quantile(&self, p: f64) -> f64 {
        let n = self.sorted.len();
        let k = ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n.max(1));
        self.sorted.get(k - 1).copied().unwrap_or(f64::NAN)
    }

    /// Smallest support point; NaN for an empty support.
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(f64::NAN)
    }

    /// Largest support point; NaN for an empty support.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(f64::NAN)
    }

    /// The sorted support points (with duplicates), i.e. the underlying
    /// measurements.
    pub fn support(&self) -> &[f64] {
        &self.sorted
    }

    /// Sorted support points with duplicates removed, i.e. the breakpoints
    /// of the step function.
    pub fn breakpoints(&self) -> Vec<f64> {
        let mut points = Vec::new();
        self.breakpoints_into(&mut points);
        points
    }

    /// [`Ecdf::breakpoints`] writing into a caller-owned buffer, so hot
    /// integration loops reuse one allocation across calls.
    pub fn breakpoints_into(&self, points: &mut Vec<f64>) {
        points.clear();
        points.extend_from_slice(&self.sorted);
        points.dedup();
    }

    /// Merges the breakpoints of two ECDFs into one ascending, deduplicated
    /// grid — the integration grid for the CDF-space distances.
    pub fn merged_breakpoints(&self, other: &Ecdf) -> Vec<f64> {
        let mut merged = Vec::new();
        self.merged_breakpoints_into(other, &mut merged);
        merged
    }

    /// [`Ecdf::merged_breakpoints`] writing into a caller-owned buffer, so
    /// the Eq. (2) integration path reuses one grid allocation per pair.
    pub fn merged_breakpoints_into(&self, other: &Ecdf, merged: &mut Vec<f64>) {
        merged.clear();
        merged.reserve(self.sorted.len() + other.sorted.len());
        let (a, b) = (&self.sorted, &other.sorted);
        let (mut i, mut j) = (0, 0);
        loop {
            let next = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x <= y => {
                    i += 1;
                    x
                }
                (Some(_), Some(&y)) => {
                    j += 1;
                    y
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => break,
            };
            if merged.last() != Some(&next) {
                merged.push(next);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::Sample;

    fn ecdf(values: &[f64]) -> Ecdf {
        Ecdf::new(&Sample::new(values.to_vec()).unwrap())
    }

    #[test]
    fn step_function_semantics() {
        let cdf = ecdf(&[1.0, 2.0, 2.0, 4.0]);
        assert_eq!(cdf.eval(0.0), 0.0);
        assert_eq!(cdf.eval(1.0), 0.25);
        assert_eq!(cdf.eval(1.5), 0.25);
        assert_eq!(cdf.eval(2.0), 0.75);
        assert_eq!(cdf.eval(3.999), 0.75);
        assert_eq!(cdf.eval(4.0), 1.0);
        assert_eq!(cdf.eval(100.0), 1.0);
    }

    #[test]
    fn empty_support_answers_nan() {
        // An empty sketch converts to an empty support.
        let empty = Ecdf::from_sorted(Vec::new());
        assert!(empty.is_empty());
        assert!(empty.min().is_nan());
        assert!(empty.max().is_nan());
        for p in [0.0, 0.5, 1.0] {
            assert!(empty.quantile(p).is_nan(), "p={p}");
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        let cdf = ecdf(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(cdf.quantile(0.0), 10.0);
        assert_eq!(cdf.quantile(0.25), 10.0);
        assert_eq!(cdf.quantile(0.26), 20.0);
        assert_eq!(cdf.quantile(0.5), 20.0);
        assert_eq!(cdf.quantile(1.0), 40.0);
    }

    #[test]
    fn breakpoints_dedup() {
        let cdf = ecdf(&[2.0, 1.0, 2.0, 3.0]);
        assert_eq!(cdf.breakpoints(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn merged_breakpoints_are_sorted_and_unique() {
        let a = ecdf(&[1.0, 3.0, 5.0]);
        let b = ecdf(&[2.0, 3.0, 6.0]);
        assert_eq!(a.merged_breakpoints(&b), vec![1.0, 2.0, 3.0, 5.0, 6.0]);
    }

    #[test]
    fn merged_breakpoints_with_self() {
        let a = ecdf(&[1.0, 2.0]);
        assert_eq!(a.merged_breakpoints(&a), vec![1.0, 2.0]);
    }

    #[test]
    fn scalar_sample_cdf() {
        let cdf = ecdf(&[7.0]);
        assert_eq!(cdf.eval(6.9), 0.0);
        assert_eq!(cdf.eval(7.0), 1.0);
        assert_eq!(cdf.min(), 7.0);
        assert_eq!(cdf.max(), 7.0);
    }
}
