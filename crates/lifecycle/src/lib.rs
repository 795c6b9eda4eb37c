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
//! - [`table`] holds a fleet's states in one flat [`LifecycleTable`]
//!   with incremental per-state counts and an optional journal.
//!
//! The coordinator that drives this machine in the service,
//! `anubis_fleetd::Coordinator`, is model-checked where it lives: a test
//! module in `anubis-fleetd` runs its real tick exhaustively over small
//! fleets and bounded stimuli, and checks that every suspect is
//! eventually validated, no node validates while serving a job, job
//! members are freed, and repairs and the validation cap are kept.
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
pub mod table;

pub use machine::{transition, LifecycleEvent, NodeLifecycle, NodeState, TransitionError};
pub use table::{LifecycleTable, StateCounts, TransitionRecord};
