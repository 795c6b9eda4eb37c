//! Workspace tooling.
//!
//! The ANUBIS workspace's static promises live in the toolchain. The root
//! `clippy.toml` bans every ambient nondeterminism source (wall clock,
//! raw threads, environment reads, hash containers) and every
//! shared-mutable type (`Mutex`, `RwLock`, atomics, `Cell`, `RefCell`)
//! outside its sanctioned `#[allow]` sites. The library crates' lint
//! headers keep their non-test code panic-free: unwrap/expect/panic!,
//! indexing and slicing, integer `/` and `%`, the assert family and float
//! `==` are denied, and each justified site carries an `#[expect]` with
//! its reason. rustc itself enforces executor closure discipline (every
//! `anubis-parallel` entry takes `Fn + Sync`) and lifecycle ownership
//! (`NodeState` is opaque outside `anubis-lifecycle`). Hot-path
//! allocation is measured, not inferred: the root `tests/alloc_counts.rs`
//! counts it exactly. `tests/clippy_fixtures.rs` pins each of those
//! rules on a fixture crate.
//!
//! What this crate adds is the trace profiler:
//!
//! ```text
//! cargo xtask profile [<trace.jsonl>] [--top <n>]
//! ```

pub mod json;
pub mod profile;
