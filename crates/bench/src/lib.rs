//! Experiment harness: one module per table/figure of the paper.
//!
//! Every experiment exposes a `Config` with a realistic `Default` and a
//! scaled-down [`quick`](experiments::fig8::Fig8Config::quick)-style
//! preset (so integration tests stay fast in debug builds), a `run`
//! function returning a structured result, and a `Display` rendering that
//! prints the same rows/series the paper reports. The `repro` binary
//! dispatches on experiment ids (`fig1` … `table6`, `appendixA`, `all`)
//! through [`EXPERIMENTS`], the table the root `tests/repro_digests.rs`
//! walks to pin every output's bytes.

pub mod experiments;
pub mod table;

pub use experiments::*;
