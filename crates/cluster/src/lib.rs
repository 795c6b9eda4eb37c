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

pub mod policy;
pub mod sim;

pub use policy::{Policy, PolicyKind};
pub use sim::{simulate, ClusterSimConfig, SimOutcome};
