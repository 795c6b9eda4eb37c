//! Compile-fail fixture: the lifecycle and executor rules the compiler
//! enforces. Every function below must be rejected.

use anubis_lifecycle::NodeState;

/// Names a lifecycle state outside `anubis-lifecycle`: the variants are
/// private, so no other crate can construct a state by hand.
pub fn mark_suspect() -> NodeState {
    NodeState::Suspect
}

/// Accumulates into a captured variable instead of returning per-chunk
/// results: executor closures are `Fn`, so the assignment is rejected.
pub fn total_len(values: &[f64]) -> f64 {
    let mut total = 0.0;
    anubis_parallel::map_chunks(values, 64, 0, |_idx, chunk| {
        total += chunk.len() as f64;
    });
    total
}

/// Smuggles shared state through a captured `RefCell`: executor closures
/// are `Sync`, and a `RefCell` is not.
pub fn count_chunks(values: &[f64]) -> usize {
    let count = std::cell::RefCell::new(0);
    anubis_parallel::map_chunks(values, 64, 0, |_idx, _chunk| {
        *count.borrow_mut() += 1;
    });
    count.into_inner()
}
