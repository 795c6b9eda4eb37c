//! anubis-fleetd — the sharded continuous-validation control plane
//! (ROADMAP item: service layer over the Validator/Selector loop).
//!
//! SuperBench's production deployment is not a one-shot benchmark run but
//! a *service*: a coordinator watches the fleet's incident and allocation
//! streams, keeps a per-node lifecycle machine, decides which nodes to
//! pull for validation under a budget, and folds every shard's benchmark
//! scores into fleet-wide defect criteria. This crate reproduces that
//! control plane on the workspace's deterministic substrate:
//!
//! - [`FleetdConfig`] — every knob of a run; the full output is a pure
//!   function of it. [`FleetdConfig::validate`] rejects the configs the
//!   service cannot run with a typed [`ConfigError`], including finite
//!   knobs that would make a tick expect more than
//!   [`config::MAX_EVENTS_PER_NODE_TICK`] incidents and job arrivals per
//!   node.
//! - [`ShardWorker`] ([`shard`]) — owns a contiguous node range's data:
//!   streaming incidents ([`anubis_traces::ShardIncidentSource`]), status
//!   covariates, hidden degradation, benchmark noise, and the shard
//!   [`anubis_metrics::EcdfSketch`]. Emits lifecycle *proposals*; never
//!   mutates decision state. Its `tick` pools per-tick scratch and
//!   scores incident risk once per wear count; a validation sample's
//!   `EcdfSketch::append` allocates only when the sketch first fills a
//!   new level (the counts are pinned in the root
//!   `tests/alloc_counts.expected`).
//! - [`Coordinator`] ([`coordinator`]) — owns the decisions: the
//!   [`anubis_lifecycle::LifecycleTable`], job placement, validation
//!   budget, repair pipeline, and criteria refresh by order-statistic
//!   selection over the shard sketches
//!   ([`anubis_metrics::EcdfSketch::quantile_of`], no merged copy).
//!   Shards run in parallel on
//!   `anubis-parallel`; their proposals are applied in fixed shard order,
//!   so summaries and JSONL traces are byte-identical across
//!   `ANUBIS_THREADS` *and* across shard counts.
//!
//! ```
//! use anubis_fleetd::{Coordinator, FleetdConfig};
//!
//! let cfg = FleetdConfig {
//!     nodes: 64,
//!     shards: 4,
//!     ..FleetdConfig::default()
//! };
//! let mut fleet = Coordinator::new(cfg);
//! let summary = fleet.run(10, |_tick| {});
//! assert_eq!(summary.ticks, 10);
//! assert_eq!(summary.final_counts.total(), 64);
//! ```

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod config;
pub mod coordinator;
pub mod shard;

pub use config::{ConfigError, FleetdConfig};
pub use coordinator::{Coordinator, FleetSummary, TickSummary};
pub use shard::{ShardReport, ShardWorker, TickContext};
