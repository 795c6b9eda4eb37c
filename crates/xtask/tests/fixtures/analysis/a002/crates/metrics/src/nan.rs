//! A002 fixture: a NaN-panicking sort key and a non-sentinel float literal
//! comparison; the sentinel comparisons stay clean.

/// Sorts with a NaN-propagating comparator.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

/// Compares against a float literal.
pub fn is_day(hours: f64) -> bool {
    hours == 24.0
}

/// Sentinel comparisons are permitted.
pub fn is_trivial(x: f64) -> bool {
    x == 0.0 || x == 1.0
}
