//! Simulated AI hardware substrate.
//!
//! The paper evaluates on real A100/H100/MI250X fleets; this crate replaces
//! that hardware with a component-level performance simulator so the whole
//! validation pipeline (benchmarks → criteria → selection → cluster
//! simulation) can run anywhere. The simulator is *not* a cycle-accurate
//! model — it reproduces the statistical phenomena the paper's system
//! depends on:
//!
//! - every measurable quantity (GEMM throughput, copy bandwidth, collective
//!   bus bandwidth, latencies, disk IO, end-to-end step time) derives from
//!   component specs × health × noise, so defects shift result
//!   *distributions* the way real gray failures do;
//! - redundancy masks early degradation (HBM spare rows, redundant links),
//!   so components accumulate hidden damage before any benchmark moves —
//!   the paper's central observation (Section 2.2);
//! - some defects only appear under composite patterns (the
//!   computation/communication overlap regression of Section 2.1);
//! - healthy nodes still differ slightly ("not all GPUs are created
//!   equal"), and every measurement carries multiplicative noise.
//!
//! The entry point is [`NodeSim`]; [`spec`] holds SKU presets; [`fault`]
//! the injectable defect library.

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

pub mod fault;
pub mod health;
pub mod node;
pub mod noise;
pub mod perf;
pub mod spec;
pub mod testutil;

pub use fault::{FaultImpact, FaultKind};
pub use health::RedundantGroup;
pub use node::{NodeId, NodeSim};
pub use noise::NoiseModel;
pub use spec::{GpuGeneration, NodeSpec, Precision};
