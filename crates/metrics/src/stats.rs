//! Descriptive statistics shared across the workspace.
//!
//! These helpers operate on raw slices so the simulators can use them without
//! constructing a [`crate::Sample`]. All functions are total: they return 0
//! (or an empty vector) for degenerate inputs rather than panicking, except
//! where documented.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Unbiased sample variance (n-1 denominator); 0 for fewer than 2 values.
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(values: &[f64]) -> f64 {
    variance(values).sqrt()
}

/// Quantile of an **ascending-sorted** slice with linear interpolation.
///
/// `q` is clamped to `[0, 1]`. Returns 0 for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let q = q.clamp(0.0, 1.0);
    let pos = q * sorted.len().saturating_sub(1) as f64;
    let lower = pos.floor() as usize;
    let upper = pos.ceil() as usize;
    // `pos` lies in `[0, len - 1]`, so both reads hit for a non-empty slice.
    let (Some(&low), Some(&high)) = (sorted.get(lower), sorted.get(upper)) else {
        return 0.0;
    };
    if lower == upper {
        low
    } else {
        let frac = pos - lower as f64;
        low * (1.0 - frac) + high * frac
    }
}

/// Quantile of an arbitrary-order slice (sorts a copy).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// Median of an arbitrary-order slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Lag-`k` sample autocorrelation; 0 when undefined.
pub fn autocorrelation(values: &[f64], lag: usize) -> f64 {
    let n = values.len();
    if lag >= n || n < 2 {
        return 0.0;
    }
    let m = mean(values);
    let denom: f64 = values.iter().map(|v| (v - m) * (v - m)).sum();
    if denom == 0.0 {
        return 0.0;
    }
    let num: f64 = values
        .iter()
        .zip(values.iter().skip(lag))
        .map(|(a, b)| (a - m) * (b - m))
        .sum();
    num / denom
}

/// Squared Euclidean distance between two equal-length vectors.
///
/// # Panics
///
/// Panics if the slices differ in length; callers in this workspace always
/// compare same-dimension vectors.
#[expect(clippy::disallowed_macros, reason = "documented precondition")]
pub fn squared_euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vector dimensions must match");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between two equal-length vectors.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    squared_euclidean(a, b).sqrt()
}

/// Resamples a series to `target_len` points by linear interpolation over
/// the index axis, used to compare series of different lengths in vector
/// space (the k-means baseline).
pub fn resample_linear(values: &[f64], target_len: usize) -> Vec<f64> {
    if values.is_empty() || target_len == 0 {
        return Vec::new();
    }
    if let &[only] = values {
        return vec![only; target_len];
    }
    if target_len == 1 {
        return vec![mean(values)];
    }
    let last = values.len() - 1;
    let scale = last as f64 / (target_len - 1) as f64;
    // `pos` lies in `[0, len - 1]`, so both reads hit.
    let at = |i: usize| values.get(i).copied().unwrap_or(0.0);
    (0..target_len)
        .map(|i| {
            let pos = i as f64 * scale;
            let lower = pos.floor() as usize;
            let frac = pos - lower as f64;
            at(lower) * (1.0 - frac) + at((lower + 1).min(last)) * frac
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(variance(&[5.0]), 0.0);
        assert!(
            (variance(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 4.571428571428571).abs() < 1e-12
        );
    }

    #[test]
    fn quantiles() {
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(quantile_sorted(&[1.0, 3.0], 0.5), 2.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.0), 1.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 1.0), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn autocorrelation_of_periodic_signal_peaks_at_period() {
        let n = 200;
        let period = 10usize;
        let values: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / period as f64).sin())
            .collect();
        let at_period = autocorrelation(&values, period);
        let off_period = autocorrelation(&values, period / 2);
        assert!(
            at_period > 0.9,
            "autocorrelation at period should be high: {at_period}"
        );
        assert!(
            off_period < 0.0,
            "half-period autocorrelation should be negative: {off_period}"
        );
    }

    #[test]
    fn autocorrelation_degenerate() {
        assert_eq!(autocorrelation(&[1.0], 0), 0.0);
        assert_eq!(autocorrelation(&[1.0, 1.0, 1.0], 1), 0.0);
        assert_eq!(autocorrelation(&[1.0, 2.0], 5), 0.0);
    }

    #[test]
    fn euclidean_distances() {
        assert_eq!(squared_euclidean(&[0.0, 3.0], &[4.0, 0.0]), 25.0);
        assert_eq!(euclidean(&[0.0, 3.0], &[4.0, 0.0]), 5.0);
    }

    #[test]
    fn resample_shapes() {
        assert_eq!(resample_linear(&[1.0, 2.0, 3.0], 3), vec![1.0, 2.0, 3.0]);
        assert_eq!(resample_linear(&[1.0, 3.0], 3), vec![1.0, 2.0, 3.0]);
        assert_eq!(resample_linear(&[5.0], 4), vec![5.0; 4]);
        assert_eq!(resample_linear(&[], 4), Vec::<f64>::new());
        assert_eq!(resample_linear(&[1.0, 2.0], 1), vec![1.5]);
    }
}
