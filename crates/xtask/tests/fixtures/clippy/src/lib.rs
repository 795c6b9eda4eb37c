//! Clippy fixture: each module breaks the workspace's determinism,
//! panic-freedom or documentation rules on purpose.

// The library crates' panic-freedom header (see `GATED_CRATES` in
// `tests/clippy_fixtures.rs`).
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::integer_division_remainder_used,
        clippy::float_cmp,
        clippy::disallowed_macros
    )
)]

pub mod bounds;
pub mod determinism;
pub mod docs;
pub mod leaks;
pub mod panics;
pub mod shared;
