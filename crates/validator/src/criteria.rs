//! Criteria calculation (paper Algorithm 2).

use anubis_metrics::{pairwise_similarity_matrix, similarity, stats, MetricsError, Sample};
use std::borrow::Cow;

/// How the centroid of a sample set is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CentroidMethod {
    /// The medoid: the sample maximizing total similarity to all others
    /// (the paper's `GetCentroid`).
    Medoid,
    /// The samples' mean in distribution space (quantile average), the
    /// alternative Algorithm 2 mentions in its comment.
    DistributionMean,
}

/// Result of running Algorithm 2 on one benchmark's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct CriteriaResult {
    /// The learned criteria sample `S_C`.
    pub criteria: Sample,
    /// Indices (into the input) excluded as defective during clustering.
    pub defects: Vec<usize>,
    /// Iterations until the clustering stabilized.
    pub iterations: usize,
}

/// Runs Algorithm 2: iteratively exclude samples whose similarity to the
/// centroid is `<= alpha` and recompute the centroid over the remainder.
///
/// Terminates when every remaining sample is strictly more similar than
/// `alpha` or when exclusion would empty the set (then the last non-empty
/// centroid is returned and everything else is defective). The iteration
/// count is bounded by the sample count since each round either stabilizes
/// or changes the defect set, and oscillations are cut by keeping the
/// defect set monotonically growing.
///
/// # Examples
///
/// ```
/// use anubis_metrics::Sample;
/// use anubis_validator::{calculate_criteria, CentroidMethod};
///
/// let mut samples: Vec<Sample> =
///     (0..10).map(|i| Sample::scalar(100.0 + i as f64 * 0.01).unwrap()).collect();
/// samples.push(Sample::scalar(60.0).unwrap()); // one defective node
/// let result = calculate_criteria(&samples, 0.95, CentroidMethod::Medoid).unwrap();
/// assert_eq!(result.defects, vec![10]);
/// ```
#[expect(
    clippy::indexing_slicing,
    reason = "member and centroid indices are below the sample count, the matrix's size"
)]
pub fn calculate_criteria(
    samples: &[Sample],
    alpha: f64,
    method: CentroidMethod,
) -> Result<CriteriaResult, MetricsError> {
    if samples.is_empty() {
        return Err(MetricsError::EmptySample);
    }
    if !(0.0..1.0).contains(&alpha) {
        return Err(MetricsError::InvalidParameter {
            name: "alpha",
            message: format!("similarity threshold {alpha} must be in [0, 1)"),
        });
    }
    // Only the medoid reads the pairwise similarity matrix.
    let matrix = match method {
        CentroidMethod::Medoid => pairwise_similarity_matrix(samples),
        CentroidMethod::DistributionMean => Vec::new(),
    };
    let n = samples.len();
    let mut healthy: Vec<usize> = (0..n).collect();
    let mut defects: Vec<usize> = Vec::new();
    let mut iterations = 0usize;

    loop {
        iterations += 1;
        // The centroid and each healthy sample's similarity to it. The
        // medoid is a member and reads both from the matrix; the
        // distribution mean is a new sample compared with each member.
        let (centroid, sim_to_centroid): (Cow<'_, Sample>, Vec<f64>) = match method {
            CentroidMethod::Medoid => {
                let medoid = medoid_of(&healthy, &matrix);
                let sims = healthy.iter().map(|&i| matrix[medoid][i]).collect();
                (Cow::Borrowed(&samples[medoid]), sims)
            }
            CentroidMethod::DistributionMean => {
                let mean = distribution_mean(samples, &healthy)?;
                // Member comparisons are independent; workers fill slots
                // in member order, identical to the sequential loop.
                let sims =
                    anubis_parallel::map_items(&healthy, 0, |&i| similarity(&mean, &samples[i]));
                (Cow::Owned(mean), sims)
            }
        };
        let newly_defective: Vec<usize> = healthy
            .iter()
            .zip(&sim_to_centroid)
            .filter(|(_, &s)| s <= alpha)
            .map(|(&i, _)| i)
            .collect();
        if newly_defective.is_empty() || newly_defective.len() == healthy.len() {
            // Stable, or excluding would empty the set: stop here.
            defects.sort_unstable();
            return Ok(CriteriaResult {
                criteria: centroid.into_owned(),
                defects,
                iterations,
            });
        }
        healthy.retain(|i| !newly_defective.contains(i));
        defects.extend(newly_defective);
        if iterations > n {
            // Defensive bound; unreachable because defects grow monotonically.
            return Err(MetricsError::NoConvergence {
                algorithm: "criteria clustering",
                iterations,
            });
        }
    }
}

/// Medoid of `members` under the precomputed similarity matrix.
#[expect(
    clippy::disallowed_macros,
    clippy::indexing_slicing,
    reason = "clusters are non-empty and their members index the square similarity matrix"
)]
fn medoid_of(members: &[usize], similarity: &[Vec<f64>]) -> usize {
    debug_assert!(!members.is_empty());
    let mut best = members[0];
    let mut best_total = f64::NEG_INFINITY;
    for &i in members {
        let total: f64 = members.iter().map(|&j| similarity[i][j]).sum();
        if total > best_total {
            best = i;
            best_total = total;
        }
    }
    best
}

/// The 1-D Wasserstein barycenter of the member samples: average of their
/// quantile functions on a common grid.
#[expect(clippy::indexing_slicing, reason = "cluster members index `samples`")]
fn distribution_mean(samples: &[Sample], members: &[usize]) -> Result<Sample, MetricsError> {
    let Some(grid) = members.iter().map(|&i| samples[i].len()).max() else {
        return Err(MetricsError::EmptySample);
    };
    let mut accum = vec![0.0f64; grid];
    for &i in members {
        let resampled = stats::resample_linear(samples[i].sorted(), grid);
        for (a, v) in accum.iter_mut().zip(&resampled) {
            *a += v;
        }
    }
    for a in &mut accum {
        *a /= members.len() as f64;
    }
    Sample::new(accum)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(v: f64) -> Sample {
        Sample::scalar(v).unwrap()
    }

    fn series(base: f64, n: usize) -> Sample {
        Sample::new(
            (0..n)
                .map(|i| base + (i % 7) as f64 * base * 0.001)
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn all_healthy_keeps_everyone() {
        let samples: Vec<Sample> = (0..8).map(|i| scalar(100.0 + i as f64 * 0.02)).collect();
        let r = calculate_criteria(&samples, 0.95, CentroidMethod::Medoid).unwrap();
        assert!(r.defects.is_empty());
        assert_eq!(r.iterations, 1);
        assert!((r.criteria.mean() - 100.07).abs() < 0.1);
    }

    #[test]
    fn excludes_obvious_defects() {
        let mut samples: Vec<Sample> = (0..12)
            .map(|i| series(100.0 + i as f64 * 0.01, 64))
            .collect();
        samples.push(series(70.0, 64));
        samples.push(series(55.0, 64));
        let r = calculate_criteria(&samples, 0.95, CentroidMethod::Medoid).unwrap();
        assert_eq!(r.defects, vec![12, 13]);
    }

    #[test]
    fn iterative_exclusion_peels_layers() {
        // A defect cluster close enough to drag the first centroid: after
        // excluding the far outlier the centroid tightens and the mid
        // cluster falls out too.
        let mut samples: Vec<Sample> = (0..10).map(|_| scalar(100.0)).collect();
        samples.push(scalar(94.0)); // within alpha of 100? 6/100 = 0.06 > 0.05 -> out
        samples.push(scalar(40.0)); // far out
        let r = calculate_criteria(&samples, 0.95, CentroidMethod::Medoid).unwrap();
        assert!(r.defects.contains(&10));
        assert!(r.defects.contains(&11));
        assert_eq!(r.criteria.mean(), 100.0);
    }

    #[test]
    fn marginal_performance_stays_healthy() {
        // The Figure 9 story: nodes with marginal-but-acceptable
        // performance (inside alpha) are kept healthy, maximizing margin.
        let mut samples: Vec<Sample> = (0..10).map(|_| scalar(100.0)).collect();
        samples.push(scalar(97.0)); // 3% off: healthy at alpha = 0.95
        let r = calculate_criteria(&samples, 0.95, CentroidMethod::Medoid).unwrap();
        assert!(r.defects.is_empty());
    }

    #[test]
    fn distribution_mean_centroid_works() {
        let samples: Vec<Sample> = vec![
            Sample::new(vec![99.0, 100.0, 101.0]).unwrap(),
            Sample::new(vec![100.0, 101.0, 102.0]).unwrap(),
            Sample::new(vec![98.0, 99.0, 100.0]).unwrap(),
        ];
        let r = calculate_criteria(&samples, 0.9, CentroidMethod::DistributionMean).unwrap();
        assert!(r.defects.is_empty());
        // Quantile average of the three samples.
        assert_eq!(r.criteria.values(), &[99.0, 100.0, 101.0]);
    }

    #[test]
    fn distribution_mean_excludes_defects_too() {
        let mut samples: Vec<Sample> = (0..9).map(|_| series(200.0, 32)).collect();
        samples.push(series(120.0, 32));
        let r = calculate_criteria(&samples, 0.95, CentroidMethod::DistributionMean).unwrap();
        assert_eq!(r.defects, vec![9]);
    }

    #[test]
    fn singleton_input_is_its_own_criteria() {
        let samples = vec![scalar(42.0)];
        let r = calculate_criteria(&samples, 0.95, CentroidMethod::Medoid).unwrap();
        assert!(r.defects.is_empty());
        assert_eq!(r.criteria, samples[0]);
    }

    #[test]
    fn never_empties_the_set() {
        // Two wildly different samples: excluding both would empty the set,
        // so the algorithm stops with one of them as criteria.
        let samples = vec![scalar(100.0), scalar(10.0)];
        let r = calculate_criteria(&samples, 0.99, CentroidMethod::Medoid).unwrap();
        assert!(r.defects.len() < samples.len());
    }

    #[test]
    fn validates_parameters() {
        assert!(calculate_criteria(&[], 0.95, CentroidMethod::Medoid).is_err());
        let samples = vec![scalar(1.0)];
        assert!(calculate_criteria(&samples, 1.0, CentroidMethod::Medoid).is_err());
        assert!(calculate_criteria(&samples, -0.1, CentroidMethod::Medoid).is_err());
    }
}
