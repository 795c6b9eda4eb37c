//! A008 alloc-free-mode fixture: an allocation one call below an
//! alloc-free kernel.

/// Registered `AllocFree` in `AnalysisConfig::alloc_entries`: any
/// allocation in its reach is an enforced finding.
pub fn integrate_ecdf(xs: &[f64]) -> f64 {
    total(xs)
}

fn total(xs: &[f64]) -> f64 {
    xs.to_vec().iter().sum()
}
