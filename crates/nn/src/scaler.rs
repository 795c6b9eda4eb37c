//! Feature standardization for network inputs.

/// Per-feature standardization `x' = (x − μ) / σ`.
///
/// Survival covariates (uptime hours, incident counts, MTBIs) span wildly
/// different scales; the Cox-Time MLP trains poorly on raw values, so the
/// Selector standardizes features with statistics fitted on the training
/// split only.
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    means: Vec<f64>,
    std_devs: Vec<f64>,
}

impl StandardScaler {
    /// Fits per-feature mean and standard deviation on `rows`.
    ///
    /// Features with zero variance get σ = 1 so they standardize to 0
    /// instead of NaN. Returns an identity scaler (zero features) for empty
    /// input.
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Self {
                means: Vec::new(),
                std_devs: Vec::new(),
            };
        }
        let dim = rows[0].len();
        let n = rows.len() as f64;
        let mut means = vec![0.0; dim];
        for row in rows {
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; dim];
        for row in rows {
            for ((v, &x), &m) in vars.iter_mut().zip(row).zip(&means) {
                *v += (x - m) * (x - m);
            }
        }
        let std_devs = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 1e-12 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Self { means, std_devs }
    }

    /// Standardizes one feature row.
    ///
    /// # Panics
    ///
    /// Panics if `row` does not match the fitted dimension.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(row.len());
        self.transform_into(row, &mut out);
        out
    }

    /// Appends the standardized `row` to `out` (the values
    /// [`StandardScaler::transform`] returns, without allocating a row).
    ///
    /// # Panics
    ///
    /// Panics if `row` does not match the fitted dimension.
    pub fn transform_into(&self, row: &[f64], out: &mut Vec<f64>) {
        assert_eq!(row.len(), self.means.len(), "feature dimension mismatch");
        out.extend(
            row.iter()
                .zip(self.means.iter().zip(&self.std_devs))
                .map(|(&x, (&m, &s))| (x - m) / s),
        );
    }

    /// Standardizes many rows.
    pub fn transform_all(&self, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        rows.iter().map(|r| self.transform(r)).collect()
    }

    /// Number of features the scaler was fitted on.
    pub fn dim(&self) -> usize {
        self.means.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizes_to_zero_mean_unit_variance() {
        let rows = vec![vec![1.0, 100.0], vec![3.0, 300.0], vec![5.0, 500.0]];
        let scaler = StandardScaler::fit(&rows);
        let transformed = scaler.transform_all(&rows);
        for d in 0..2 {
            let mean: f64 = transformed.iter().map(|r| r[d]).sum::<f64>() / 3.0;
            let var: f64 = transformed.iter().map(|r| r[d] * r[d]).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-9, "var {var}");
        }
    }

    #[test]
    fn constant_features_map_to_zero() {
        let rows = vec![vec![7.0], vec![7.0], vec![7.0]];
        let scaler = StandardScaler::fit(&rows);
        assert_eq!(scaler.transform(&[7.0]), vec![0.0]);
        assert_eq!(scaler.transform(&[8.0]), vec![1.0]);
    }

    #[test]
    fn empty_input_gives_identity() {
        let scaler = StandardScaler::fit(&[]);
        assert_eq!(scaler.dim(), 0);
        assert_eq!(scaler.transform(&[]), Vec::<f64>::new());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_wrong_dimension() {
        let scaler = StandardScaler::fit(&[vec![1.0, 2.0]]);
        scaler.transform(&[1.0]);
    }
}
