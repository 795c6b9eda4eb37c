//! Lloyd's k-means clustering with k-means++ seeding.

use crate::error::{MetricsError, Result};
use crate::stats;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration for [`KMeans::fit`].
#[derive(Debug, Clone, Copy)]
pub struct KMeansConfig {
    /// Number of clusters; the paper's Figure 9 baseline uses `k = 2`.
    pub k: usize,
    /// Maximum Lloyd iterations before giving up.
    pub max_iterations: usize,
    /// RNG seed for the k-means++ initialization.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            k: 2,
            max_iterations: 200,
            seed: 0,
        }
    }
}

/// A fitted k-means model over fixed-dimension points.
///
/// The paper's Figure 9 baseline clusters benchmark samples with Euclidean
/// distance and `k = 2`, then treats the majority cluster as healthy, using
/// the average of its members as the criteria.
#[derive(Debug, Clone)]
pub struct KMeans {
    centroids: Vec<Vec<f64>>,
    assignments: Vec<usize>,
    inertia: f64,
}

impl KMeans {
    /// Runs Lloyd's algorithm with k-means++ initialization.
    ///
    /// All points must share a dimension and there must be at least `k`
    /// points.
    pub fn fit(points: &[Vec<f64>], config: KMeansConfig) -> Result<Self> {
        if config.k == 0 {
            return Err(MetricsError::InvalidParameter {
                name: "k",
                message: "cluster count must be positive".into(),
            });
        }
        if points.len() < config.k {
            return Err(MetricsError::InsufficientData {
                required: config.k,
                actual: points.len(),
            });
        }
        let dim = points.first().map_or(0, Vec::len);
        if dim == 0 {
            return Err(MetricsError::InvalidParameter {
                name: "points",
                message: "points must have at least one dimension".into(),
            });
        }
        for p in points {
            if p.len() != dim {
                return Err(MetricsError::DimensionMismatch {
                    expected: dim,
                    actual: p.len(),
                });
            }
        }

        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut centroids = kmeans_plus_plus(points, config.k, &mut rng);
        let mut assignments = vec![0usize; points.len()];

        for _ in 0..config.max_iterations {
            let mut changed = false;
            for (assigned, point) in assignments.iter_mut().zip(points) {
                let nearest = nearest_centroid(point, &centroids);
                if *assigned != nearest {
                    *assigned = nearest;
                    changed = true;
                }
            }
            // Recompute centroids; empty clusters keep their previous center.
            let mut sums = vec![vec![0.0; dim]; config.k];
            let mut counts = vec![0usize; config.k];
            for (&cluster, point) in assignments.iter().zip(points) {
                if let (Some(sum), Some(count)) = (sums.get_mut(cluster), counts.get_mut(cluster)) {
                    *count += 1;
                    for (total, v) in sum.iter_mut().zip(point) {
                        *total += v;
                    }
                }
            }
            for ((centroid, sum), &count) in centroids.iter_mut().zip(&sums).zip(&counts) {
                if count > 0 {
                    for (c, total) in centroid.iter_mut().zip(sum) {
                        *c = total / count as f64;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let inertia = points
            .iter()
            .zip(&assignments)
            .map(|(p, &cluster)| {
                centroids
                    .get(cluster)
                    .map_or(0.0, |c| stats::squared_euclidean(p, c))
            })
            .sum();
        Ok(Self {
            centroids,
            assignments,
            inertia,
        })
    }

    /// Cluster centers.
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Per-point cluster assignment, parallel to the input order.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Sum of squared distances of points to their assigned centroid.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Index of the cluster with the most members (ties broken by lower
    /// index) — the "majority" (healthy) cluster in the Figure 9 baseline.
    /// A fitted model has at least one cluster; with none this is 0.
    pub fn majority_cluster(&self) -> usize {
        let mut counts = vec![0usize; self.centroids.len()];
        for &a in &self.assignments {
            if let Some(count) = counts.get_mut(a) {
                *count += 1;
            }
        }
        counts
            .iter()
            .enumerate()
            .max_by(|(ia, ca), (ib, cb)| ca.cmp(cb).then(ib.cmp(ia)))
            .map_or(0, |(i, _)| i)
    }

    /// Indices of the points assigned to `cluster`.
    pub fn members_of(&self, cluster: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == cluster)
            .map(|(i, _)| i)
            .collect()
    }
}

fn nearest_centroid(point: &[f64], centroids: &[Vec<f64>]) -> usize {
    let mut best = 0usize;
    let mut best_dist = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = stats::squared_euclidean(point, centroid);
        if d < best_dist {
            best = c;
            best_dist = d;
        }
    }
    best
}

/// k-means++ seeding: first center uniform, subsequent centers sampled
/// proportionally to squared distance from the nearest chosen center.
///
/// Picks are drawn from `0..points.len()`, which `fit` checks is at least
/// `k >= 1`, so each names a point.
fn kmeans_plus_plus(points: &[Vec<f64>], k: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<f64>> {
    let pick = |i: usize| points.get(i).cloned().unwrap_or_default();
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(pick(rng.random_range(0..points.len())));
    while centroids.len() < k {
        let dists: Vec<f64> = points
            .iter()
            .map(|p| {
                centroids
                    .iter()
                    .map(|c| stats::squared_euclidean(p, c))
                    .fold(
                        f64::INFINITY,
                        |min, x| if x < min || x.is_nan() { x } else { min },
                    )
            })
            .collect();
        let total: f64 = dists.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with existing centers; any choice works.
            rng.random_range(0..points.len())
        } else {
            let mut target = rng.random_range(0.0..total);
            let mut chosen = points.len() - 1;
            for (i, &d) in dists.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        centroids.push(pick(next));
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blob_points() -> Vec<Vec<f64>> {
        let mut points = Vec::new();
        for i in 0..10 {
            points.push(vec![100.0 + i as f64 * 0.1]);
        }
        for i in 0..3 {
            points.push(vec![50.0 + i as f64 * 0.1]);
        }
        points
    }

    #[test]
    fn separates_two_blobs() {
        let points = two_blob_points();
        let model = KMeans::fit(&points, KMeansConfig::default()).unwrap();
        let majority = model.majority_cluster();
        let members = model.members_of(majority);
        assert_eq!(members.len(), 10);
        assert!(
            members.iter().all(|&i| i < 10),
            "majority cluster must be the 100-blob"
        );
        // Centroid of the majority cluster sits near 100.45.
        let c = &model.centroids()[majority];
        assert!((c[0] - 100.45).abs() < 0.5, "centroid {c:?}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let points = two_blob_points();
        let a = KMeans::fit(
            &points,
            KMeansConfig {
                seed: 7,
                ..Default::default()
            },
        )
        .unwrap();
        let b = KMeans::fit(
            &points,
            KMeansConfig {
                seed: 7,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(KMeans::fit(&[], KMeansConfig::default()).is_err());
        assert!(KMeans::fit(
            &[vec![1.0]],
            KMeansConfig {
                k: 2,
                ..Default::default()
            }
        )
        .is_err());
        assert!(KMeans::fit(
            &[vec![]],
            KMeansConfig {
                k: 1,
                ..Default::default()
            }
        )
        .is_err());
        assert!(KMeans::fit(
            &[vec![1.0], vec![1.0, 2.0]],
            KMeansConfig {
                k: 1,
                ..Default::default()
            }
        )
        .is_err());
        assert!(KMeans::fit(
            &[vec![1.0]],
            KMeansConfig {
                k: 0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn identical_points_converge() {
        let points = vec![vec![5.0, 5.0]; 6];
        let model = KMeans::fit(&points, KMeansConfig::default()).unwrap();
        assert_eq!(model.inertia(), 0.0);
    }

    #[test]
    fn multidimensional_clustering() {
        let mut points = Vec::new();
        for i in 0..8 {
            points.push(vec![i as f64 * 0.01, 1.0]);
            points.push(vec![i as f64 * 0.01 + 10.0, -1.0]);
        }
        let model = KMeans::fit(&points, KMeansConfig::default()).unwrap();
        // Points alternate between blobs; assignments must alternate too.
        let a = model.assignments();
        for i in (0..16).step_by(2) {
            assert_eq!(a[i], a[0]);
            assert_eq!(a[i + 1], a[1]);
        }
        assert_ne!(a[0], a[1]);
    }
}
