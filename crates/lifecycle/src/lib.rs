//! Verified node-lifecycle state machine (ROADMAP item 4).
//!
//! SuperBench's core promise is that proactive validation never makes the
//! fleet *less* reliable: nodes move healthy → suspect → validating →
//! quarantined → repaired without deadlocking capacity or skipping a
//! crossed risk threshold. This crate makes that loop explicit and
//! auditable:
//!
//! - [`machine`] defines [`NodeState`], [`LifecycleEvent`], and the
//!   **single** [`transition`] function every state change in the
//!   workspace must route through. The compiler enforces that:
//!   `NodeState` is opaque, so no other crate can construct or match a
//!   state, only obtain one from the machine.
//! - [`model`] is a small-model abstraction of the Selector/Validator
//!   coordinator loop plus an exhaustive enumerator
//!   ([`check_model`]) over bounded event interleavings. It verifies the
//!   three ROADMAP safety/liveness properties — every threshold crossing
//!   is eventually validated, no validation is scheduled on a node
//!   serving a job, and coordinator-initiated quarantine never drops the
//!   fleet below its capacity floor — and produces a printable
//!   counterexample trace when a (deliberately injected) coordinator bug
//!   violates one. `cargo xtask modelcheck` drives a grid of model
//!   configurations through it on the deterministic executor.
//!
//! Outside this crate, code interrogates state through the predicate
//! methods ([`NodeState::is_healthy`] and friends) and changes it through
//! [`NodeLifecycle::apply`] or [`LifecycleTable::apply`]; the variants
//! cannot be named anywhere else, so `NodeState::Suspect` in another
//! crate does not compile.

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod machine;
pub mod model;
pub mod table;

pub use machine::{transition, LifecycleEvent, NodeLifecycle, NodeState, TransitionError};
pub use model::{
    check_model, CheckOutcome, CoordinatorBugs, ModelConfig, Property, Stimulus, Violation,
};
pub use table::{LifecycleTable, StateCounts, TransitionRecord};
