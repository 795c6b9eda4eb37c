//! CDF-space distances and similarities (paper Eq. 2, 3 and 4).
//!
//! The Validator compares benchmark samples in the space of their empirical
//! CDFs rather than by average metrics. Eq. (2) defines the distance as the
//! relative area between two CDF curves:
//!
//! ```text
//! d(S1, S2) = ∫₀^∞ |F₁(x) − F₂(x)| / max(F₁(x), F₂(x)) dx
//! ```
//!
//! and Eq. (3) the similarity as `1 − d`. The paper notes the distance is
//! "normalized to the [0, 1] range"; since the raw integral carries the units
//! of the metric axis, this implementation normalizes by the largest support
//! point of the merged samples (the upper integration bound with non-zero
//! integrand). This keeps three properties the paper relies on:
//!
//! - `d ∈ [0, 1]`, so similarities from different benchmarks are comparable
//!   against one global threshold α;
//! - for two single-value samples `{a}`, `{b}` with `a < b` the distance is
//!   exactly the relative difference `(b − a)/b`, which is the natural
//!   defect margin for micro-benchmarks that report one number;
//! - for tight time-series distributions the distance scales with the
//!   relative spread, so healthy repetitions land near similarity 1.
//!
//! Eq. (4) is the one-direction variant used for online defect filtering:
//! only performance *worse* than the criteria counts.

use crate::ecdf::Ecdf;
use crate::sample::Sample;

/// Whether larger or smaller metric values indicate better performance.
///
/// Throughput-like metrics (bandwidth, steps/s, GFLOPS) are
/// [`Direction::HigherIsBetter`]; latency-like metrics are
/// [`Direction::LowerIsBetter`]. The paper's Eq. (4) is written for
/// throughput and says to flip the comparison "elsewise".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum Direction {
    /// Larger measurements are better (throughput, bandwidth).
    HigherIsBetter,
    /// Smaller measurements are better (latency).
    LowerIsBetter,
}

/// Computes the normalized Eq. (2) distance between two samples.
///
/// Returns a value in `[0, 1]`; 0 means the empirical distributions are
/// identical.
///
/// # Examples
///
/// ```
/// use anubis_metrics::{cdf_distance, Sample};
///
/// let a = Sample::scalar(80.0).unwrap();
/// let b = Sample::scalar(100.0).unwrap();
/// // Two scalars: distance is the relative difference.
/// assert!((cdf_distance(&a, &b) - 0.2).abs() < 1e-12);
/// ```
pub fn cdf_distance(s1: &Sample, s2: &Sample) -> f64 {
    cdf_distance_ecdf(&Ecdf::new(s1), &Ecdf::new(s2))
}

/// [`cdf_distance`] over prebuilt ECDFs — the fast path when the same
/// sample enters many comparisons (pairwise matrices, criteria loops).
pub fn cdf_distance_ecdf(e1: &Ecdf, e2: &Ecdf) -> f64 {
    integrate_ecdf(e1, e2, &mut Vec::new(), |f1, f2| (f1 - f2).abs())
}

/// Computes the Eq. (3) similarity `1 − d(S1, S2)`.
pub fn similarity(s1: &Sample, s2: &Sample) -> f64 {
    1.0 - cdf_distance(s1, s2)
}

/// [`similarity`] over prebuilt ECDFs.
pub fn similarity_ecdf(e1: &Ecdf, e2: &Ecdf) -> f64 {
    1.0 - cdf_distance_ecdf(e1, e2)
}

/// Computes the one-direction Eq. (4) distance of an observation against a
/// criteria sample.
///
/// Only regressions count: for throughput-like metrics, mass where the
/// observed CDF sits *above* the criteria CDF (the observation is shifted
/// toward smaller values); for latency-like metrics the opposite side.
/// `1 − one_sided_distance(..)` is the similarity the Validator compares
/// against the threshold α.
pub fn one_sided_distance(observed: &Sample, criteria: &Sample, direction: Direction) -> f64 {
    one_sided_distance_ecdf(&Ecdf::new(observed), &Ecdf::new(criteria), direction)
}

/// [`one_sided_distance`] over prebuilt ECDFs — the fast path when one
/// criteria distribution screens many observations.
pub fn one_sided_distance_ecdf(observed: &Ecdf, criteria: &Ecdf, direction: Direction) -> f64 {
    let mut grid = Vec::new();
    match direction {
        Direction::HigherIsBetter => {
            integrate_ecdf(observed, criteria, &mut grid, |fo, fc| (fo - fc).max(0.0))
        }
        Direction::LowerIsBetter => {
            integrate_ecdf(observed, criteria, &mut grid, |fo, fc| (fc - fo).max(0.0))
        }
    }
}

/// One-direction similarity, `1 − d₁ₛᵢ𝒹ₑ`.
pub fn one_sided_similarity(observed: &Sample, criteria: &Sample, direction: Direction) -> f64 {
    1.0 - one_sided_distance(observed, criteria, direction)
}

/// Shared integration kernel over the merged step grid of both ECDFs.
///
/// `numerator(f1, f2)` receives the two CDF values on each constant segment;
/// it must be bounded by `max(f1, f2)` so the normalized result stays in
/// `[0, 1]`. The CDF values come from a linear merge walk over the two
/// supports — the running count of values `<= x0` equals what
/// [`Ecdf::eval`]'s binary search returns, so results are bit-identical to
/// evaluating per window, without the `O(log n)` lookup. `grid` is a
/// caller-reusable buffer for the merged breakpoints.
#[expect(
    clippy::indexing_slicing,
    reason = "`windows(2)` yields pairs; the cursors are checked against the supports first"
)]
fn integrate_ecdf(
    e1: &Ecdf,
    e2: &Ecdf,
    grid: &mut Vec<f64>,
    numerator: impl Fn(f64, f64) -> f64,
) -> f64 {
    e1.merged_breakpoints_into(e2, grid);
    // An empty grid (two empty supports) or all measurements zero in both
    // samples: identical distributions.
    let upper = grid.last().copied().unwrap_or(0.0);
    if upper <= 0.0 {
        return 0.0;
    }
    let (s1, s2) = (e1.support(), e2.support());
    let (n1, n2) = (s1.len() as f64, s2.len() as f64);
    let (mut c1, mut c2) = (0usize, 0usize);
    let mut area = 0.0;
    for window in grid.windows(2) {
        let (x0, x1) = (window[0], window[1]);
        // CDFs are right-continuous steps: constant on [x0, x1).
        while c1 < s1.len() && s1[c1] <= x0 {
            c1 += 1;
        }
        while c2 < s2.len() && s2[c2] <= x0 {
            c2 += 1;
        }
        let f1 = c1 as f64 / n1;
        let f2 = c2 as f64 / n2;
        let denom = f1.max(f2);
        if denom > 0.0 {
            area += numerator(f1, f2) / denom * (x1 - x0);
        }
    }
    (area / upper).clamp(0.0, 1.0)
}

/// Sample pairs per parallel task in the pairwise loops. Fixed (never
/// derived from the thread count) so the work decomposition is identical
/// at any parallelism.
const PAIRS_PER_CHUNK: usize = 32;

/// Upper-triangle pairs `(i, j)`, `i < j`, in the row-major order the
/// sequential double loop visits them.
#[expect(clippy::integer_division_remainder_used, reason = "a constant divisor")]
fn upper_triangle_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::with_capacity(n.saturating_sub(1) * n / 2);
    for i in 0..n {
        for j in i + 1..n {
            pairs.push((i, j));
        }
    }
    pairs
}

/// Eq. (3) similarities for a batch of sample pairs, written into a
/// caller-owned buffer. This is the allocation-free kernel at the bottom
/// of the pairwise matrix; each pair is an independent [`integrate_ecdf`]
/// evaluation, so results do not depend on which pairs share a batch.
/// `grid` is the reusable merged-breakpoint buffer.
#[expect(
    clippy::indexing_slicing,
    reason = "every pair indexes the ECDFs it was built for"
)]
fn similarity_rows_into(
    ecdfs: &[Ecdf],
    pairs: &[(usize, usize)],
    grid: &mut Vec<f64>,
    out: &mut Vec<f64>,
) {
    out.clear();
    for &(i, j) in pairs {
        let d = integrate_ecdf(&ecdfs[i], &ecdfs[j], grid, |f1, f2| (f1 - f2).abs());
        out.push(1.0 - d);
    }
}

/// Per-pair similarities over the upper triangle, computed on prebuilt
/// ECDFs by [`similarity_rows_into`] over fixed-size pair chunks in
/// parallel, returned in row-major pair order.
fn upper_triangle_similarities(samples: &[Sample], threads: usize) -> Vec<((usize, usize), f64)> {
    let ecdfs: Vec<Ecdf> = samples.iter().map(Ecdf::new).collect();
    let pairs = upper_triangle_pairs(samples.len());
    let per_chunk: Vec<Vec<f64>> =
        anubis_parallel::map_chunks(&pairs, PAIRS_PER_CHUNK, threads, |_, chunk| {
            let mut grid = Vec::new();
            let mut sims = Vec::with_capacity(chunk.len());
            similarity_rows_into(&ecdfs, chunk, &mut grid, &mut sims);
            sims
        });
    pairs
        .iter()
        .copied()
        .zip(per_chunk.into_iter().flatten())
        .collect()
}

/// Full pairwise similarity matrix for a set of samples.
///
/// The matrix is symmetric with unit diagonal. Used by the criteria
/// clustering (Algorithm 2) and the repeatability metric. Only the upper
/// triangle is computed (once, in parallel); entries are identical to the
/// sequential pairwise loop at any thread count.
pub fn pairwise_similarity_matrix(samples: &[Sample]) -> Vec<Vec<f64>> {
    pairwise_similarity_matrix_threads(samples, 0)
}

/// [`pairwise_similarity_matrix`] with an explicit worker-thread count
/// (`0` = auto); exposed so tests can pin the parallelism.
#[expect(
    clippy::indexing_slicing,
    reason = "upper-triangle pairs index the `n × n` matrix"
)]
pub fn pairwise_similarity_matrix_threads(samples: &[Sample], threads: usize) -> Vec<Vec<f64>> {
    let n = samples.len();
    let mut matrix = vec![vec![1.0; n]; n];
    for ((i, j), s) in upper_triangle_similarities(samples, threads) {
        matrix[i][j] = s;
        matrix[j][i] = s;
    }
    matrix
}

/// The paper's *repeatability* metric: the arithmetic mean of pairwise
/// similarities across `N` different nodes or runs (Section 3.4).
///
/// Returns 1.0 for fewer than two samples (a single run is trivially
/// repeatable). Pairs are computed in parallel and summed in the
/// sequential loop's pair order, so the mean is bit-identical at any
/// thread count.
pub fn mean_pairwise_similarity(samples: &[Sample]) -> f64 {
    let n = samples.len();
    if n < 2 {
        return 1.0;
    }
    let mut total = 0.0;
    let mut count = 0usize;
    for (_, s) in upper_triangle_similarities(samples, 0) {
        total += s;
        count += 1;
    }
    total / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(values: &[f64]) -> Sample {
        Sample::new(values.to_vec()).unwrap()
    }

    #[test]
    fn identical_samples_have_zero_distance() {
        let s = sample(&[1.0, 2.0, 3.0]);
        assert_eq!(cdf_distance(&s, &s), 0.0);
        assert_eq!(similarity(&s, &s), 1.0);
    }

    #[test]
    fn identical_distributions_different_order() {
        let a = sample(&[3.0, 1.0, 2.0]);
        let b = sample(&[2.0, 3.0, 1.0]);
        assert_eq!(cdf_distance(&a, &b), 0.0);
    }

    #[test]
    fn scalar_distance_is_relative_difference() {
        let a = sample(&[80.0]);
        let b = sample(&[100.0]);
        assert!((cdf_distance(&a, &b) - 0.2).abs() < 1e-12);
        // Symmetric.
        assert!((cdf_distance(&b, &a) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = sample(&[1.0, 5.0, 9.0]);
        let b = sample(&[2.0, 4.0, 8.0, 10.0]);
        assert!((cdf_distance(&a, &b) - cdf_distance(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn distance_bounded_by_unit_interval() {
        let a = sample(&[0.0001]);
        let b = sample(&[1000.0]);
        let d = cdf_distance(&a, &b);
        assert!(d > 0.999 && d <= 1.0, "near-maximal separation: {d}");
    }

    #[test]
    fn all_zero_samples_are_identical() {
        let a = sample(&[0.0, 0.0]);
        let b = sample(&[0.0]);
        assert_eq!(cdf_distance(&a, &b), 0.0);
    }

    #[test]
    fn one_sided_detects_throughput_regression_only() {
        let criteria = sample(&[100.0, 101.0, 99.0, 100.5]);
        let slow = sample(&[90.0, 91.0, 89.5, 90.2]);
        let fast = sample(&[110.0, 111.0, 109.0, 110.5]);
        let d_slow = one_sided_distance(&slow, &criteria, Direction::HigherIsBetter);
        let d_fast = one_sided_distance(&fast, &criteria, Direction::HigherIsBetter);
        assert!(
            d_slow > 0.05,
            "slow node must register a regression: {d_slow}"
        );
        assert!(
            d_fast < 1e-9,
            "faster-than-criteria must not be a defect: {d_fast}"
        );
    }

    #[test]
    fn one_sided_latency_direction_flips() {
        let criteria = sample(&[10.0, 10.2, 9.8]);
        let slow = sample(&[13.0, 13.1, 12.9]); // higher latency: worse
        let fast = sample(&[8.0, 8.1, 7.9]); // lower latency: better
        let d_slow = one_sided_distance(&slow, &criteria, Direction::LowerIsBetter);
        let d_fast = one_sided_distance(&fast, &criteria, Direction::LowerIsBetter);
        assert!(d_slow > 0.05, "higher latency must register: {d_slow}");
        assert!(d_fast < 1e-9, "lower latency must not register: {d_fast}");
    }

    #[test]
    fn one_sided_never_exceeds_two_sided() {
        let a = sample(&[1.0, 2.0, 3.5, 7.0]);
        let b = sample(&[2.0, 2.5, 3.0]);
        for dir in [Direction::HigherIsBetter, Direction::LowerIsBetter] {
            assert!(one_sided_distance(&a, &b, dir) <= cdf_distance(&a, &b) + 1e-12);
        }
    }

    #[test]
    fn one_sided_sides_sum_to_two_sided() {
        let a = sample(&[1.0, 2.0, 3.5, 7.0]);
        let b = sample(&[2.0, 2.5, 3.0]);
        let lo = one_sided_distance(&a, &b, Direction::HigherIsBetter);
        let hi = one_sided_distance(&a, &b, Direction::LowerIsBetter);
        assert!((lo + hi - cdf_distance(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn tight_noise_yields_high_similarity() {
        // Two runs of the same healthy benchmark: 1% relative noise around 100.
        let a: Vec<f64> = (0..200)
            .map(|i| 100.0 + ((i * 37) % 100) as f64 / 100.0)
            .collect();
        let b: Vec<f64> = (0..200)
            .map(|i| 100.0 + ((i * 53) % 100) as f64 / 100.0)
            .collect();
        let s = similarity(&sample(&a), &sample(&b));
        assert!(s > 0.99, "healthy repetitions must be near-identical: {s}");
    }

    #[test]
    fn clear_regression_yields_low_similarity() {
        let healthy: Vec<f64> = (0..100).map(|i| 100.0 + (i % 10) as f64 / 10.0).collect();
        let defective: Vec<f64> = (0..100).map(|i| 70.0 + (i % 10) as f64 / 10.0).collect();
        let s = similarity(&sample(&healthy), &sample(&defective));
        assert!(
            s < 0.95,
            "30% regression must break the α=0.95 threshold: {s}"
        );
    }

    #[test]
    fn pairwise_matrix_symmetric_unit_diagonal() {
        let samples = vec![sample(&[1.0, 2.0]), sample(&[1.5, 2.5]), sample(&[10.0])];
        let m = pairwise_similarity_matrix(&samples);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 1.0);
            for (j, &value) in row.iter().enumerate() {
                assert!((value - m[j][i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn repeatability_of_single_sample_is_one() {
        assert_eq!(mean_pairwise_similarity(&[sample(&[1.0])]), 1.0);
        assert_eq!(mean_pairwise_similarity(&[]), 1.0);
    }

    #[test]
    fn repeatability_averages_pairs() {
        let samples = vec![sample(&[100.0]), sample(&[100.0]), sample(&[50.0])];
        // Pairs: (0,1)=1.0, (0,2)=0.5, (1,2)=0.5 => mean 2/3.
        let r = mean_pairwise_similarity(&samples);
        assert!((r - 2.0 / 3.0).abs() < 1e-12);
    }
}
