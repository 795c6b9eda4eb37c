//! Synthetic, statistically-calibrated traces.
//!
//! The paper's evaluation consumes three production datasets none of which
//! are public: a 4-month node-incident trace from ~1k on-premise GPU
//! nodes, the same clusters' allocation-request trace, and a 3k-VM
//! build-out benchmark dataset. This crate generates synthetic equivalents
//! calibrated to every statistic the paper reports:
//!
//! - [`incident`]: per-node incident processes with *accumulating wear*
//!   (each partially-repaired incident raises the hazard), reproducing
//!   Figure 4's decaying inter-incident times, Figure 1's source mix and
//!   Figure 2's ticket-duration distribution, plus extraction of
//!   status/TBNI survival samples for Table 3;
//! - [`allocation`]: Poisson job arrivals with realistic size/duration
//!   mixes for the Figure 8 / Table 4 cluster simulation;
//! - [`dataset`]: the build-out fleet with defect injection rates
//!   calibrated to Table 6.

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

pub mod allocation;
pub mod dataset;
pub mod incident;
pub mod stream;

pub use allocation::{
    generate_allocation_trace, AllocationConfig, AllocationRequest, AllocationStream,
};
pub use dataset::{generate_buildout_fleet, BuildoutConfig};
pub use incident::{
    generate_incident_trace, job_time_to_failure_from, IncidentEvent, IncidentTrace,
    IncidentTraceConfig, SourceMix, TicketDurationModel,
};
pub use stream::{
    node_stream_seed, prefetch, shard_ranges, IncidentStreamConfig, NodeRng, ShardIncidentSource,
};
