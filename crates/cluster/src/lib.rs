//! Event-driven cluster simulation (paper Section 5.2).
//!
//! Reproduces the paper's 30-day simulation: jobs replayed from a stressed
//! allocation trace onto FIFO job/node queues; per-node incident processes
//! with accumulating wear (partial troubleshooting leaves latent defects);
//! and four validation policies — no validation, full-set validation,
//! ANUBIS Selector, and the ideal (incident-free) upper bound, plus a
//! random-subset ablation.
//!
//! Outputs the Figure 8 / Table 4 metrics: average node utilization
//! (with a per-day timeline), average validation time per node, MTBI and
//! incidents per node.

// Panic-freedom: this crate runs in the fleet-facing validation path, so
// clippy rejects unwrap/expect/panic! in its library code (tests may
// unwrap freely).
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod policy;
pub mod sim;

pub use policy::{Policy, PolicyKind};
pub use sim::{simulate, ClusterSimConfig, SimOutcome};
