//! Fixture: the panic paths the lint header rejects beyond
//! unwrap/expect/panic!, and the `#[expect]` that justifies one.

/// Indexes and slices.
pub fn index(v: &[u8], i: usize, a: usize, b: usize) -> usize {
    let head = &v[a..b];
    usize::from(v[i]) + head.len()
}

/// Divides and takes a remainder.
pub fn divide(n: usize, d: usize) -> usize {
    n / d + n % d
}

/// Asserts, marks a branch unreachable and compares floats exactly.
pub fn check(x: f64, y: f64, n: usize) -> bool {
    assert!(n > 0);
    assert_eq!(n, 1);
    if n == 2 {
        unreachable!();
    }
    x == y
}

/// A justified site: the expectation is fulfilled, so nothing is reported.
#[expect(clippy::indexing_slicing, reason = "callers pass a non-empty slice")]
pub fn first(v: &[u8]) -> u8 {
    v[0]
}

/// A stale expectation: the indexing it justified is gone.
#[expect(clippy::indexing_slicing, reason = "callers pass a non-empty slice")]
pub fn first_checked(v: &[u8]) -> Option<u8> {
    v.first().copied()
}
