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
#[expect(clippy::indexing_slicing, reason = "`pos` lies in `[0, len - 1]`")]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lower = pos.floor() as usize;
    let upper = pos.ceil() as usize;
    if lower == upper {
        sorted[lower]
    } else {
        let frac = pos - lower as f64;
        sorted[lower] * (1.0 - frac) + sorted[upper] * frac
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

/// Centered moving average with the given window.
///
/// Positions where the full window does not fit yield `None`, mirroring the
/// classical seasonal-decomposition convention. Even windows use the
/// standard 2×w centered average.
#[expect(clippy::integer_division_remainder_used, reason = "a constant divisor")]
pub fn centered_moving_average(values: &[f64], window: usize) -> Vec<Option<f64>> {
    let n = values.len();
    let mut out = vec![None; n];
    if window == 0 || window > n {
        return out;
    }
    // Output `half + k` averages the window(s) starting at `k`.
    let centered = out.iter_mut().skip(window / 2);
    if window % 2 == 1 {
        for (slot, span) in centered.zip(values.windows(window)) {
            *slot = Some(mean(span));
        }
    } else {
        // Even window: average of two staggered windows (classic 2xW MA).
        let staggered = values.windows(window).zip(values.windows(window).skip(1));
        for (slot, (first, second)) in centered.zip(staggered) {
            *slot = Some(0.5 * (mean(first) + mean(second)));
        }
    }
    out
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

/// Pearson correlation between two equal-length slices; 0 when undefined.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() || a.len() < 2 {
        return 0.0;
    }
    let (ma, mb) = (mean(a), mean(b));
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for (x, y) in a.iter().zip(b) {
        let (xa, xb) = (x - ma, y - mb);
        num += xa * xb;
        da += xa * xa;
        db += xb * xb;
    }
    if da == 0.0 || db == 0.0 {
        0.0
    } else {
        num / (da.sqrt() * db.sqrt())
    }
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
#[expect(clippy::indexing_slicing, reason = "`pos` lies in `[0, len - 1]`")]
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
    let scale = (values.len() - 1) as f64 / (target_len - 1) as f64;
    (0..target_len)
        .map(|i| {
            let pos = i as f64 * scale;
            let lower = pos.floor() as usize;
            let upper = (lower + 1).min(values.len() - 1);
            let frac = pos - lower as f64;
            values[lower] * (1.0 - frac) + values[upper] * frac
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
    fn moving_average_odd_window() {
        let values = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ma = centered_moving_average(&values, 3);
        assert_eq!(ma[0], None);
        assert_eq!(ma[1], Some(2.0));
        assert_eq!(ma[2], Some(3.0));
        assert_eq!(ma[3], Some(4.0));
        assert_eq!(ma[4], None);
    }

    #[test]
    fn moving_average_even_window() {
        let values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let ma = centered_moving_average(&values, 4);
        // Classic 2x4 MA: position 2 averages windows [0..4) and [1..5).
        let expected = 0.5 * ((1.0 + 2.0 + 3.0 + 4.0) / 4.0 + (2.0 + 3.0 + 4.0 + 5.0) / 4.0);
        assert_eq!(ma[2], Some(expected));
        assert_eq!(ma[0], None);
    }

    #[test]
    fn moving_average_degenerate_windows() {
        assert!(centered_moving_average(&[1.0, 2.0], 0)
            .iter()
            .all(Option::is_none));
        assert!(centered_moving_average(&[1.0, 2.0], 5)
            .iter()
            .all(Option::is_none));
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
    fn pearson_correlation() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
        let c = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&a, &[1.0]), 0.0);
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
