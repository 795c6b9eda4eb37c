//! Fat-tree / Clos network simulator.
//!
//! The paper's Figure 3 regression (2-node all-reduce bandwidth collapsing
//! once a ToR loses more than half of its redundant uplinks) and the
//! Appendix A networking-validation schedulers both need a network
//! substrate. This crate provides:
//!
//! - [`topology`]: a k-tier fat-tree builder with per-ToR redundant uplink
//!   bundles, hop distances, and flow paths;
//! - [`congestion`]: max–min fair (progressive-filling) bandwidth
//!   allocation for concurrent flows;
//! - [`collective`]: 2-node pairwise bandwidth, ring all-reduce and
//!   all-to-all time/bandwidth estimation over the topology;
//! - [`scan`]: Appendix A's O(n) circle-method full pairwise scan and the
//!   O(1) topology-aware quick scan.

// Panic-freedom: clippy rejects every panic path in this crate's library
// code: unwrap/expect/panic!/unreachable!, indexing and slicing, integer
// `/` and `%`, and the assert family (disallowed in `clippy.toml`), plus
// float `==`. A justified site carries `#[expect(lint, reason = "…")]`,
// which fails once the site is gone; tests may panic freely.
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

pub mod collective;
pub mod congestion;
pub mod permutation;
pub mod scan;
pub mod topology;

pub use collective::{concurrent_pair_bandwidths, ring_allreduce_busbw};
pub use congestion::{max_min_rates, Flow};
pub use permutation::{ring_permutation_spread, PermutationSpread};
pub use scan::{full_scan_rounds, quick_scan_rounds};
pub use topology::{FatTree, FatTreeConfig, NetError};
