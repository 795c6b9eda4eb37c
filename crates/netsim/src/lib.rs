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
//! - [`collective`]: 2-node pairwise bandwidth, ring all-reduce,
//!   all-gather and all-to-all time/bandwidth estimation over the topology;
//! - [`scan`]: Appendix A's O(n) circle-method full pairwise scan and the
//!   O(1) topology-aware quick scan.

// Panic-freedom: this crate runs in the fleet-facing validation path, so
// clippy rejects unwrap/expect/panic! in its library code (tests may
// unwrap freely).
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod collective;
pub mod congestion;
pub mod permutation;
pub mod scan;
pub mod topology;

pub use collective::{concurrent_pair_bandwidths, ring_allreduce_busbw, tree_allreduce_busbw};
pub use congestion::{max_min_rates, Flow};
pub use permutation::{ring_permutation_spread, PermutationSpread};
pub use scan::{full_scan_rounds, quick_scan_rounds};
pub use topology::{FatTree, FatTreeConfig, NetError};
