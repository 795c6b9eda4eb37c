//! Incremental criteria calculation.
//!
//! Algorithm 2 is dominated by the pairwise similarity matrix: `O(n²)`
//! CDF-space integrations per benchmark, re-run from scratch every
//! learning cycle even though a cycle typically appends a handful of new
//! samples to an append-only result store. [`CriteriaCache`] keeps the
//! matrix (and the per-sample ECDFs) alive across cycles and only
//! computes the rows touched by new samples — `O(new × total)`
//! integrations — then re-runs the (cheap) clustering loop over the
//! cached matrix.
//!
//! Every matrix entry is an independent integration of the same two
//! ECDFs the batch path would integrate, and the clustering loop is a
//! pure function of the matrix, so [`CriteriaCache::result`] is
//! bit-identical to [`calculate_criteria`] over the same sample list.
//! That equivalence is asserted by `incremental_matches_batch_bitwise`
//! below and by the cross-crate property tests.

use crate::criteria::{cluster_from_matrix, CentroidMethod, CriteriaResult};
use anubis_metrics::{extend_similarity_matrix, Ecdf, MetricsError, Sample};

/// Cached state for incremental Algorithm 2 runs over one benchmark's
/// growing sample list.
///
/// # Examples
///
/// ```
/// use anubis_metrics::Sample;
/// use anubis_validator::{calculate_criteria, CentroidMethod, CriteriaCache};
///
/// let samples: Vec<Sample> =
///     (0..6).map(|i| Sample::scalar(100.0 + i as f64 * 0.01).unwrap()).collect();
/// let mut cache = CriteriaCache::new(0.95, CentroidMethod::Medoid).unwrap();
/// cache.extend(&samples[..4]);
/// cache.extend(&samples[4..]); // only the 9 new pairs are integrated
/// let batch = calculate_criteria(&samples, 0.95, CentroidMethod::Medoid).unwrap();
/// assert_eq!(cache.result().unwrap(), batch);
/// ```
#[derive(Debug, Clone)]
pub struct CriteriaCache {
    alpha: f64,
    method: CentroidMethod,
    samples: Vec<Sample>,
    ecdfs: Vec<Ecdf>,
    matrix: Vec<Vec<f64>>,
}

impl CriteriaCache {
    /// Creates an empty cache. Fails on a similarity threshold outside
    /// `[0, 1)`, mirroring [`calculate_criteria`]'s validation.
    pub fn new(alpha: f64, method: CentroidMethod) -> Result<Self, MetricsError> {
        if !(0.0..1.0).contains(&alpha) {
            return Err(MetricsError::InvalidParameter {
                name: "alpha",
                message: format!("similarity threshold {alpha} must be in [0, 1)"),
            });
        }
        Ok(Self {
            alpha,
            method,
            samples: Vec::new(),
            ecdfs: Vec::new(),
            matrix: Vec::new(),
        })
    }

    /// Number of samples absorbed so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample has been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Absorbs new samples, extending the cached similarity matrix with
    /// only the rows the newcomers touch.
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "pair counts halve an even product by a constant"
    )]
    pub fn extend(&mut self, new_samples: &[Sample]) {
        if new_samples.is_empty() {
            return;
        }
        let _span = anubis_obs::span!("validator.criteria_cache.extend");
        let old = self.samples.len();
        self.samples.extend_from_slice(new_samples);
        extend_similarity_matrix(&mut self.matrix, &mut self.ecdfs, &self.samples, 0);
        let total = self.samples.len();
        anubis_obs::counter!(
            "validator.criteria_cache.pairs_integrated",
            (total * (total - 1) / 2 - old.saturating_sub(1) * old / 2) as i64
        );
    }

    /// Runs the Algorithm 2 clustering loop over the cached matrix.
    /// Bit-identical to [`calculate_criteria`] over the same sample list.
    pub fn result(&self) -> Result<CriteriaResult, MetricsError> {
        if self.samples.is_empty() {
            return Err(MetricsError::EmptySample);
        }
        let _span = anubis_obs::span!("validator.criteria_cache.result");
        let ecdfs: &[Ecdf] = match self.method {
            // The batch path builds ECDFs only for the distribution-mean
            // method; the medoid loop reads the matrix alone.
            CentroidMethod::Medoid => &[],
            CentroidMethod::DistributionMean => &self.ecdfs,
        };
        cluster_from_matrix(&self.samples, &self.matrix, ecdfs, self.alpha, self.method)
    }

    /// The samples absorbed so far, in absorption order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The similarity threshold this cache clusters against.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The centroid method this cache clusters with.
    pub fn method(&self) -> CentroidMethod {
        self.method
    }

    /// Reconciles the cache with a rolling window of samples. While the
    /// window only grows (the cached samples are still a prefix) the new
    /// suffix is absorbed incrementally; once the window evicted its head
    /// the cached rows are invalid and the matrix is rebuilt.
    pub fn sync<'a>(&mut self, window: impl ExactSizeIterator<Item = &'a Sample> + Clone) {
        let prefix_intact = window.len() >= self.samples.len()
            && self.samples.iter().zip(window.clone()).all(|(a, b)| a == b);
        if !prefix_intact {
            anubis_obs::counter!("validator.criteria_cache.rebuilds", 1);
            self.samples.clear();
            self.ecdfs.clear();
            self.matrix.clear();
        }
        for sample in window.skip(self.samples.len()) {
            self.extend(std::slice::from_ref(sample));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::calculate_criteria;

    fn series(base: f64, n: usize) -> Sample {
        Sample::new(
            (0..n)
                .map(|i| base + (i % 7) as f64 * base * 0.001)
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn incremental_matches_batch_bitwise() {
        let mut samples: Vec<Sample> = (0..12)
            .map(|i| series(100.0 + i as f64 * 0.01, 64))
            .collect();
        samples.push(series(70.0, 64));
        samples.push(series(55.0, 64));
        for method in [CentroidMethod::Medoid, CentroidMethod::DistributionMean] {
            let batch = calculate_criteria(&samples, 0.95, method).unwrap();
            for split in [0usize, 1, 7, 13, 14] {
                let mut cache = CriteriaCache::new(0.95, method).unwrap();
                cache.extend(&samples[..split]);
                cache.extend(&samples[split..]);
                assert_eq!(cache.result().unwrap(), batch, "split {split}");
            }
            // One-at-a-time absorption, the steady-state control loop shape.
            let mut cache = CriteriaCache::new(0.95, method).unwrap();
            for s in &samples {
                cache.extend(std::slice::from_ref(s));
            }
            assert_eq!(cache.result().unwrap(), batch);
        }
    }

    #[test]
    fn empty_cache_errors_like_batch() {
        let cache = CriteriaCache::new(0.95, CentroidMethod::Medoid).unwrap();
        assert!(cache.result().is_err());
        assert!(calculate_criteria(&[], 0.95, CentroidMethod::Medoid).is_err());
    }

    #[test]
    fn validates_alpha_like_batch() {
        assert!(CriteriaCache::new(1.0, CentroidMethod::Medoid).is_err());
        assert!(CriteriaCache::new(-0.1, CentroidMethod::Medoid).is_err());
    }
}
