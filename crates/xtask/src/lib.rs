//! Workspace analyzer.
//!
//! The ANUBIS workspace makes promises that ordinary compilation does not
//! verify. The line-level ones live in the toolchain: the root
//! `clippy.toml` bans every ambient nondeterminism source (wall clock,
//! raw threads, environment reads, hash containers) and every
//! shared-mutable type (`Mutex`, `RwLock`, atomics, `Cell`, `RefCell`)
//! outside its sanctioned `#[allow]` sites, and the gated crates'
//! `clippy::unwrap_used` / `expect_used` / `panic` headers keep
//! fleet-facing library code panic-free. rustc itself enforces executor
//! closure discipline (every `anubis-parallel` entry takes `Fn + Sync`)
//! and lifecycle ownership (`NodeState` is opaque outside
//! `anubis-lifecycle`). This crate checks what the compiler cannot see —
//! panic reachability along call paths, NaN-unsafe float comparisons and
//! allocation reach from hot entries:
//!
//! ```text
//! cargo run -p anubis-xtask -- analyze
//! ```
//!
//! runs the call-graph passes of [`passes`] against the committed
//! `analysis-baseline.json`; `profile` is the other subcommand (see the
//! binary's docs).

pub mod callgraph;
pub mod dataflow;
pub mod json;
pub mod mask;
pub mod model;
pub mod passes;
pub mod profile;
pub mod report;
pub mod spans;
pub mod walk;
