//! The ANUBIS benchmark suite (paper Table 2).
//!
//! The suite mirrors the open-source SuperBench benchmark set: single-node
//! micro-benchmarks (computation, communication, overlap, disk), end-to-end
//! training benchmarks over the model zoo, and multi-node networking /
//! training benchmarks. Each benchmark runs against the simulated hardware
//! ([`anubis_hwsim::NodeSim`] plus [`anubis_netsim::FatTree`] for the
//! multi-node phase) and yields a [`anubis_metrics::Sample`] per node — a
//! single-value sample for scalar micro-benchmarks or a step series for
//! training benchmarks.
//!
//! [`BenchmarkId`] enumerates the suite; [`runner`] executes (sub)sets in
//! the paper's two-phase order.

// Panic-freedom: this crate runs in the fleet-facing validation path, so
// clippy rejects unwrap/expect/panic! in its library code (tests may
// unwrap freely).
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod id;
pub mod parallel;
pub mod runner;
pub mod sweep;

pub use id::{BenchCategory, BenchmarkId, BenchmarkSpec, Phase};
pub use parallel::run_set_parallel;
pub use runner::{run_benchmark, run_benchmark_multi, run_set, RunData, SuiteError};
pub use sweep::{default_size_grid, sweep_nvlink_allreduce, SweepResult};
