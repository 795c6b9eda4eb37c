//! Local Outlier Factor (Breunig et al., SIGMOD 2000).

use crate::error::{MetricsError, Result};
use crate::stats;

/// Local Outlier Factor scores for a point cloud.
///
/// LOF compares the local reachability density of each point to that of its
/// `k` nearest neighbours; scores well above 1 indicate outliers. The paper
/// (Figure 6) uses LOF as a strawman defect filter and shows it mislabels
/// healthy-but-sparse performance points, which motivates the CDF-similarity
/// criteria instead.
#[derive(Debug, Clone)]
pub struct LocalOutlierFactor {
    scores: Vec<f64>,
    k: usize,
}

impl LocalOutlierFactor {
    /// Computes LOF scores with neighbourhood size `k`.
    ///
    /// Requires `k >= 1` and at least `k + 1` points.
    #[expect(
        clippy::indexing_slicing,
        reason = "`fit` checks `k < n`; neighbour indices are below `n`, the size of every per-point array"
    )]
    pub fn fit(points: &[Vec<f64>], k: usize) -> Result<Self> {
        if k == 0 {
            return Err(MetricsError::InvalidParameter {
                name: "k",
                message: "neighbourhood size must be positive".into(),
            });
        }
        if points.len() <= k {
            return Err(MetricsError::InsufficientData {
                required: k + 1,
                actual: points.len(),
            });
        }
        let dim = points[0].len();
        for p in points {
            if p.len() != dim {
                return Err(MetricsError::DimensionMismatch {
                    expected: dim,
                    actual: p.len(),
                });
            }
        }
        let n = points.len();

        // Pairwise distances (n is small in validation contexts: one point
        // per node), and each point's neighbour list sorted by distance.
        let mut dist = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in i + 1..n {
                let d = stats::euclidean(&points[i], &points[j]);
                dist[i][j] = d;
                dist[j][i] = d;
            }
        }
        let mut neighbours: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut k_distance = vec![0.0f64; n];
        for i in 0..n {
            let mut order: Vec<usize> = (0..n).filter(|&j| j != i).collect();
            order.sort_by(|&a, &b| dist[i][a].total_cmp(&dist[i][b]));
            k_distance[i] = dist[i][order[k - 1]];
            // The k-NN set contains every point within the k-distance
            // (can exceed k under ties).
            let knn: Vec<usize> = order
                .iter()
                .copied()
                .take_while(|&j| dist[i][j] <= k_distance[i])
                .collect();
            neighbours.push(knn);
        }

        // Local reachability density. Duplicated points give zero total
        // reach distance, i.e. infinite density; the LOF ratio handles that
        // below following the original paper's convention.
        let mut lrd = vec![0.0f64; n];
        for i in 0..n {
            let total: f64 = neighbours[i]
                .iter()
                .map(|&o| dist[i][o].max(k_distance[o]))
                .sum();
            lrd[i] = if total == 0.0 {
                f64::INFINITY
            } else {
                neighbours[i].len() as f64 / total
            };
        }

        let mut scores = vec![0.0f64; n];
        for i in 0..n {
            let ratios: Vec<f64> = neighbours[i]
                .iter()
                .map(|&o| {
                    if lrd[i].is_infinite() {
                        // Both infinite => densities equal; finite neighbour
                        // density against infinite own density => ratio 0.
                        if lrd[o].is_infinite() {
                            1.0
                        } else {
                            0.0
                        }
                    } else if lrd[o].is_infinite() {
                        f64::INFINITY
                    } else {
                        lrd[o] / lrd[i]
                    }
                })
                .collect();
            scores[i] = stats::mean(&ratios);
        }
        Ok(Self { scores, k })
    }

    /// LOF score per input point (parallel to input order).
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Neighbourhood size the scores were computed with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Indices whose score exceeds `threshold` (1.5 is a common choice).
    pub fn outlier_indices(&self, threshold: f64) -> Vec<usize> {
        self.scores
            .iter()
            .enumerate()
            .filter(|(_, &s)| s > threshold)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_cloud_scores_near_one() {
        let points: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let lof = LocalOutlierFactor::fit(&points, 3).unwrap();
        for (i, &s) in lof.scores().iter().enumerate() {
            assert!(s < 1.5, "grid point {i} must not be an outlier: {s}");
        }
    }

    #[test]
    fn isolated_point_scores_high() {
        let mut points: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.1]).collect();
        points.push(vec![50.0]);
        let lof = LocalOutlierFactor::fit(&points, 3).unwrap();
        let outliers = lof.outlier_indices(1.5);
        assert_eq!(outliers, vec![20]);
        assert!(
            lof.scores()[20] > 10.0,
            "isolated point score: {}",
            lof.scores()[20]
        );
    }

    #[test]
    fn sparse_but_healthy_points_are_mislabeled() {
        // The Figure 6 phenomenon: a dense cluster of nominal results plus a
        // handful of equally-healthy results at slightly higher throughput.
        // LOF flags the sparse healthy points because density, not
        // performance direction, drives the score.
        let mut points: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![100.0 + (i % 10) as f64 * 0.01])
            .collect();
        points.push(vec![101.2]);
        points.push(vec![101.9]);
        let lof = LocalOutlierFactor::fit(&points, 5).unwrap();
        let outliers = lof.outlier_indices(1.5);
        assert!(
            outliers.contains(&30) || outliers.contains(&31),
            "LOF should mislabel at least one sparse healthy point: {outliers:?}"
        );
    }

    #[test]
    fn duplicate_points_do_not_explode() {
        let mut points = vec![vec![1.0]; 10];
        points.push(vec![5.0]);
        let lof = LocalOutlierFactor::fit(&points, 3).unwrap();
        for &s in &lof.scores()[..10] {
            assert!((s - 1.0).abs() < 1e-9, "duplicates have equal density: {s}");
        }
        assert!(lof.scores()[10] > 1.5 || lof.scores()[10].is_infinite());
    }

    #[test]
    fn parameter_validation() {
        let points = vec![vec![1.0], vec![2.0]];
        assert!(LocalOutlierFactor::fit(&points, 0).is_err());
        assert!(LocalOutlierFactor::fit(&points, 2).is_err());
        let ragged = vec![vec![1.0], vec![1.0, 2.0], vec![3.0]];
        assert!(LocalOutlierFactor::fit(&ragged, 1).is_err());
    }
}
