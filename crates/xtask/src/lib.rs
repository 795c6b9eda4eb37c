//! Workspace analyzer.
//!
//! The ANUBIS workspace makes promises that ordinary compilation does not
//! verify. The line-level ones live in the toolchain: the root
//! `clippy.toml` bans every ambient nondeterminism source (wall clock,
//! raw threads, environment reads, hash containers) outside its
//! sanctioned `#[allow]` sites, and the gated crates' `clippy::unwrap_used`
//! / `expect_used` / `panic` headers keep fleet-facing library code
//! panic-free. This crate checks what clippy cannot see — call paths,
//! allocation reach, closure discipline and lifecycle ownership:
//!
//! ```text
//! cargo run -p anubis-xtask -- analyze
//! ```
//!
//! runs the call-graph passes of [`passes`] against the committed
//! `analysis-baseline.json`; `modelcheck`, `profile` and `perfgate` are
//! the other subcommands (see the binary's docs).

pub mod callgraph;
pub mod dataflow;
pub mod json;
pub mod mask;
pub mod model;
pub mod modelcheck;
pub mod passes;
pub mod perf;
pub mod profile;
pub mod report;
pub mod spans;
pub mod walk;
