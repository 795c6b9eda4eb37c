//! Clippy fixture: each module breaks the workspace's determinism,
//! panic-freedom or documentation rules on purpose.

// The gated-crate header (see `GATED_CRATES` in the xtask crate).
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod determinism;
pub mod docs;
pub mod leaks;
pub mod panics;
pub mod shared;
