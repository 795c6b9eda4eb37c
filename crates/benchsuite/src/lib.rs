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
//! [`BenchmarkId`] enumerates the suite; [`run_set`] executes (sub)sets in
//! the paper's two-phase order, fanning the single-node phase out over
//! nodes through the deterministic executor.

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

pub mod id;
pub mod runner;

pub use id::{BenchCategory, BenchmarkId, BenchmarkSpec, Phase};
pub use runner::{run_benchmark, run_benchmark_multi, run_set, RunData, SuiteError};
