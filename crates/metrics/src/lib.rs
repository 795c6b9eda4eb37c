//! Statistics substrate for the ANUBIS proactive-validation system.
//!
//! This crate provides the mathematical core that the rest of the workspace
//! builds on:
//!
//! - [`Sample`]: a validated container for benchmark measurements (a single
//!   value from a micro-benchmark, or a step-throughput time series from an
//!   end-to-end benchmark).
//! - [`Ecdf`]: the empirical cumulative distribution function of a sample.
//! - [`EcdfSketch`]: an append-only, mergeable ECDF accumulator for
//!   incremental criteria refreshes (amortized `O(log n)` append,
//!   `O(n + m)` merge without re-sorting).
//! - [`distance`]: the paper's Eq. (2) CDF-space distance, Eq. (3)
//!   similarity, and Eq. (4) one-sided distance used for online defect
//!   filtering.
//! - [`outlier`]: the baseline outlier-detection methods the paper compares
//!   against (IQR fences, k-means, Local Outlier Factor, one-class SVM).
//! - [`seasonal`]: classical seasonal decomposition by moving averages and
//!   period detection, the substrate for Appendix B's benchmark-parameter
//!   search.
//! - [`stats`]: descriptive statistics shared by everything above.
//!
//! All algorithms are deterministic given a seed and implemented in safe
//! Rust.

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod distance;
pub mod ecdf;
pub mod error;
pub mod json;
pub mod outlier;
pub mod sample;
pub mod seasonal;
pub mod sketch;
pub mod stats;

pub use distance::{
    cdf_distance, cdf_distance_ecdf, extend_similarity_matrix, mean_pairwise_similarity,
    one_sided_distance, one_sided_distance_ecdf, one_sided_similarity, pairwise_similarity_matrix,
    pairwise_similarity_matrix_threads, similarity, similarity_ecdf, Direction,
};
pub use ecdf::Ecdf;
pub use error::{MetricsError, Result};
pub use sample::Sample;
pub use sketch::EcdfSketch;
