//! A008 tracked-mode fixture: an allocation reachable from the `fit` hot
//! entry.

/// Hot entry point registered `Tracked` in `AnalysisConfig::alloc_entries`.
pub fn fit(n: usize) -> usize {
    accumulate(n)
}

fn accumulate(n: usize) -> usize {
    let mut buffer = Vec::new();
    let mut i = 0;
    while i < n {
        buffer.push(i);
        i += 1;
    }
    buffer.len()
}
