//! Fixture: shared-mutable state — a lock, an atomic and two cells.

/// Sums through a lock, in whatever order workers finish.
pub fn locked_sum(xs: &[u64]) -> u64 {
    let total = std::sync::Mutex::new(0);
    for x in xs {
        if let Ok(mut sum) = total.lock() {
            *sum += x;
        }
    }
    total.into_inner().unwrap_or_default()
}

/// Counts through an atomic.
pub fn counted(xs: &[u64]) -> usize {
    let hits = std::sync::atomic::AtomicUsize::new(0);
    for _ in xs {
        hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
    hits.into_inner()
}

/// Hides a counter and a buffer behind cells.
pub fn cells(xs: &[u64]) -> (u64, usize) {
    let last = std::cell::Cell::new(0);
    let seen = std::cell::RefCell::new(Vec::new());
    for &x in xs {
        last.set(x);
        seen.borrow_mut().push(x);
    }
    (last.get(), seen.into_inner().len())
}
