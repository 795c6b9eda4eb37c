//! One-class support vector machine (Schölkopf et al., 2001).

use crate::error::{MetricsError, Result};
use crate::stats;

/// ν-parameterized one-class SVM with an RBF kernel.
///
/// Solves the standard dual
///
/// ```text
/// min_α  ½ Σᵢⱼ αᵢαⱼ K(xᵢ, xⱼ)   s.t.  0 ≤ αᵢ ≤ 1/(νn),  Σᵢ αᵢ = 1
/// ```
///
/// with an SMO-style most-violating-pair solver, and classifies points by
/// the sign of `f(x) = Σᵢ αᵢ K(xᵢ, x) − ρ`. The paper's Figure 6 uses this
/// method as a strawman: with dense data inside an interval it draws
/// boundaries that flag healthy points.
#[derive(Debug, Clone)]
pub struct OneClassSvm {
    support: Vec<Vec<f64>>,
    alphas: Vec<f64>,
    gamma: f64,
    rho: f64,
}

impl OneClassSvm {
    /// Trains on `points` with contamination fraction `nu` in `(0, 1]` and
    /// RBF bandwidth `gamma > 0`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`fit` checks `n >= 2`; point indices are below `n`, the size of the Gram matrix and of every per-point array"
    )]
    pub fn fit(points: &[Vec<f64>], nu: f64, gamma: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&nu) || nu == 0.0 {
            return Err(MetricsError::InvalidParameter {
                name: "nu",
                message: format!("nu {nu} must be in (0, 1]"),
            });
        }
        if !gamma.is_finite() || gamma <= 0.0 {
            return Err(MetricsError::InvalidParameter {
                name: "gamma",
                message: format!("gamma {gamma} must be positive"),
            });
        }
        let n = points.len();
        if n < 2 {
            return Err(MetricsError::InsufficientData {
                required: 2,
                actual: n,
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

        let upper = 1.0 / (nu * n as f64);
        let kernel = |a: &[f64], b: &[f64]| (-gamma * stats::squared_euclidean(a, b)).exp();
        let mut gram = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in i..n {
                let k = kernel(&points[i], &points[j]);
                gram[i][j] = k;
                gram[j][i] = k;
            }
        }

        // Feasible start: uniform weights (respects the box since 1/n <= upper).
        let mut alphas = vec![1.0 / n as f64; n];
        // Gradient of the objective: g_i = Σ_j α_j K_ij.
        let mut grad: Vec<f64> = (0..n)
            .map(|i| (0..n).map(|j| alphas[j] * gram[i][j]).sum())
            .collect();

        let tolerance = 1e-8;
        let max_iterations = 50 * n.max(100);
        for _ in 0..max_iterations {
            // Most-violating pair: increase mass where the gradient is
            // smallest (i, needs headroom) and decrease where it is largest
            // (j, needs mass).
            let mut i_best: Option<usize> = None;
            let mut j_best: Option<usize> = None;
            for idx in 0..n {
                if alphas[idx] < upper - 1e-15 && i_best.is_none_or(|b| grad[idx] < grad[b]) {
                    i_best = Some(idx);
                }
                if alphas[idx] > 1e-15 && j_best.is_none_or(|b| grad[idx] > grad[b]) {
                    j_best = Some(idx);
                }
            }
            let (Some(i), Some(j)) = (i_best, j_best) else {
                break;
            };
            if i == j || grad[j] - grad[i] < tolerance {
                break;
            }
            // Transfer δ of weight from j to i; quadratic line search.
            let curvature = gram[i][i] + gram[j][j] - 2.0 * gram[i][j];
            let mut delta = if curvature > 1e-12 {
                (grad[j] - grad[i]) / curvature
            } else {
                f64::INFINITY
            };
            delta = delta.min(upper - alphas[i]).min(alphas[j]);
            if delta <= 0.0 {
                break;
            }
            alphas[i] += delta;
            alphas[j] -= delta;
            for idx in 0..n {
                grad[idx] += delta * (gram[idx][i] - gram[idx][j]);
            }
        }

        // ρ from margin support vectors (0 < α < upper); fall back to all
        // support vectors when none sit strictly inside the box.
        let margin: Vec<usize> = (0..n)
            .filter(|&i| alphas[i] > 1e-12 && alphas[i] < upper - 1e-12)
            .collect();
        let reference: Vec<usize> = if margin.is_empty() {
            (0..n).filter(|&i| alphas[i] > 1e-12).collect()
        } else {
            margin
        };
        let rho = reference.iter().map(|&i| grad[i]).sum::<f64>() / reference.len() as f64;

        let (support, alphas): (Vec<Vec<f64>>, Vec<f64>) = points
            .iter()
            .zip(&alphas)
            .filter(|(_, &a)| a > 1e-12)
            .map(|(p, &a)| (p.clone(), a))
            .unzip();
        Ok(Self {
            support,
            alphas,
            gamma,
            rho,
        })
    }

    /// Signed decision value `f(x)`; negative values are outliers.
    pub fn decision(&self, point: &[f64]) -> f64 {
        let k: f64 = self
            .support
            .iter()
            .zip(&self.alphas)
            .map(|(sv, &a)| a * (-self.gamma * stats::squared_euclidean(sv, point)).exp())
            .sum();
        k - self.rho
    }

    /// Whether `point` is classified as an outlier.
    pub fn is_outlier(&self, point: &[f64]) -> bool {
        self.decision(point) < 0.0
    }

    /// Offset ρ of the decision function.
    pub fn rho(&self) -> f64 {
        self.rho
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster_with_outlier() -> Vec<Vec<f64>> {
        let mut points: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![10.0 + (i % 8) as f64 * 0.05])
            .collect();
        points.push(vec![3.0]);
        points
    }

    #[test]
    fn detects_far_outlier() {
        let points = cluster_with_outlier();
        let model = OneClassSvm::fit(&points, 0.05, 0.5).unwrap();
        assert!(
            model.is_outlier(&[3.0]),
            "decision: {}",
            model.decision(&[3.0])
        );
        assert!(
            !model.is_outlier(&[10.2]),
            "decision: {}",
            model.decision(&[10.2])
        );
    }

    #[test]
    fn nu_bounds_training_outlier_fraction() {
        // With nu = 0.25 roughly a quarter of the training mass may sit
        // outside; the dense core must stay inside regardless.
        let points: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 10) as f64 * 0.01]).collect();
        let model = OneClassSvm::fit(&points, 0.25, 1.0).unwrap();
        // Margin support vectors sit numerically on the boundary; count a
        // point as a training error only when it is strictly inside the
        // outlier region.
        let errors = points.iter().filter(|p| model.decision(p) < -1e-6).count();
        assert!(
            errors <= 10,
            "ν bounds the training-error fraction: {errors}/40"
        );
    }

    #[test]
    fn dense_interval_yields_false_positives_at_edges() {
        // Figure 6's complaint: data dense in an interval makes the RBF
        // boundary hug the dense middle, flagging healthy extremes.
        let mut points: Vec<Vec<f64>> = Vec::new();
        for i in 0..50 {
            points.push(vec![100.0 + (i % 5) as f64 * 0.02]);
        }
        points.push(vec![101.5]);
        points.push(vec![102.0]);
        let model = OneClassSvm::fit(&points, 0.1, 2.0).unwrap();
        assert!(
            model.is_outlier(&[101.5]) || model.is_outlier(&[102.0]),
            "sparse healthy points at the high end get flagged"
        );
    }

    #[test]
    fn parameter_validation() {
        let points = vec![vec![1.0], vec![2.0]];
        assert!(OneClassSvm::fit(&points, 0.0, 1.0).is_err());
        assert!(OneClassSvm::fit(&points, 1.5, 1.0).is_err());
        assert!(OneClassSvm::fit(&points, 0.5, 0.0).is_err());
        assert!(OneClassSvm::fit(&[vec![1.0]], 0.5, 1.0).is_err());
        assert!(OneClassSvm::fit(&[vec![1.0], vec![1.0, 2.0]], 0.5, 1.0).is_err());
    }

    #[test]
    fn decision_is_continuous_in_input() {
        let points = cluster_with_outlier();
        let model = OneClassSvm::fit(&points, 0.05, 0.5).unwrap();
        let d1 = model.decision(&[10.0]);
        let d2 = model.decision(&[10.001]);
        assert!((d1 - d2).abs() < 1e-3);
    }
}
