//! Graph-aware analysis passes over the workspace model.
//!
//! Each pass walks the [`Workspace`](crate::model::Workspace) and the
//! [`CallGraph`](crate::callgraph::CallGraph) and emits [`Finding`]s with a
//! stable diagnostic code:
//!
//! | Code | Pass | Question answered |
//! |------|------|-------------------|
//! | A001 | [`a001`] | Which public fleet-facing APIs can transitively panic? |
//! | A002 | [`a002`] | Where are floats compared or ordered NaN-unsafely? |
//! | A008 | [`a008`] | What allocates inside the registered hot paths, does it escape, and do arena-clean functions stay clean? |
//!
//! A008 consumes the per-function allocation sites of [`crate::dataflow`];
//! the others scan per-function.
//!
//! The numbering skips A003–A007 on purpose. A003's allocation reach is
//! A008's [`AllocMode::Tracked`] and [`AllocMode::AllocFree`] modes, and
//! the toolchain enforces what the rest checked. The root `clippy.toml`
//! bans the nondeterminism sources and the shared-mutable types (`Mutex`,
//! atomics, `Cell`, `RefCell`); rustc rejects a worker closure that
//! assigns through a capture, since every `anubis-parallel` entry takes
//! `Fn + Sync`; and `NodeState` is opaque outside `anubis-lifecycle`, so
//! no other crate can construct a lifecycle state.
//!
//! Findings are keyed by *(code, file, function, kind)* — deliberately not
//! by line — so the committed baseline survives unrelated edits to the
//! same file. Identical keys are aggregated by count in the baseline.
//!
//! Findings in the reach of an [`AllocMode::AllocFree`] entry or in the
//! body of an [`AllocMode::ArenaClean`] entry are marked
//! [`Finding::enforced`]; those are hard failures — the baseline never
//! absorbs them (see [`crate::report::Baseline::from_findings`]).

pub mod a001;
pub mod a002;
pub mod a008;

use crate::callgraph::CallGraph;
use crate::model::Workspace;
use std::fmt;

/// Crates whose library code must be panic-free: everything that runs in
/// the validation path on fleet nodes. Their public APIs root A001, and
/// each one's `lib.rs` carries the `clippy::unwrap_used` / `expect_used` /
/// `panic` header.
pub const GATED_CRATES: &[&str] = &[
    "arena",
    "benchsuite",
    "validator",
    "selector",
    "cluster",
    "hwsim",
    "netsim",
    "lifecycle",
];

/// One analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable diagnostic code (`A001`, `A002` or `A008`).
    pub code: &'static str,
    /// Workspace-relative file of the flagged function.
    pub path: String,
    /// 1-based line of the flagged construct (not part of the key).
    pub line: usize,
    /// Qualified name of the flagged function (`Type::name` or `name`).
    pub func: String,
    /// Short machine-readable slug for the finding flavor
    /// (`panic-reach`, `float-eq`, `clone`, `non-arena-alloc`, …).
    pub kind: String,
    /// Human-readable explanation, including the call path where the pass
    /// computes one.
    pub message: String,
    /// `true` for an [`AllocMode::AllocFree`] reach or an
    /// [`AllocMode::ArenaClean`] body: a hard failure the baseline never
    /// absorbs.
    pub enforced: bool,
}

impl Finding {
    /// The baseline key: code, file, function, and kind — line-free so the
    /// baseline is stable under refactors that only move code.
    pub fn key(&self) -> String {
        format!("{} {} {} {}", self.code, self.path, self.func, self.kind)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}({}): {}",
            self.path, self.line, self.code, self.kind, self.message
        )
    }
}

/// What an [`AllocEntry`] promises about allocation (see [`a008`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocMode {
    /// Every site in the entry's forward reach is a finding the baseline
    /// can absorb: new allocations regress it, existing ones are tolerated.
    Tracked,
    /// Every site in the entry's forward reach is an enforced finding.
    /// Reserve for kernels already proven allocation-free.
    AllocFree,
    /// Every *direct* site in the entry's own body (closures included) is
    /// an enforced `non-arena-alloc` finding: per-call scratch must come
    /// from `anubis-arena` or a caller-provided buffer.
    ArenaClean,
}

/// One function registered with the allocation pass.
#[derive(Debug, Clone)]
pub struct AllocEntry {
    /// Path substring selecting the file (`nn/src/mlp.rs`).
    pub path: String,
    /// Function name (`forward_into`).
    pub func: String,
    /// What the entry promises.
    pub mode: AllocMode,
}

impl AllocEntry {
    /// An entry for function `func` in the file matching `path`.
    pub fn new(path: &str, func: &str, mode: AllocMode) -> Self {
        Self {
            path: path.to_owned(),
            func: func.to_owned(),
            mode,
        }
    }
}

/// Tunable inputs of an analysis run. [`AnalysisConfig::default`] matches
/// the real workspace; fixtures construct custom configs.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Crate directory names whose public APIs are A001 roots.
    pub gated_crates: Vec<String>,
    /// The A008 registry: hot entries and arena-clean functions.
    pub alloc_entries: Vec<AllocEntry>,
    /// Crate directory names implementing the sanctioned arena
    /// (`anubis-arena`). Their internal allocations record no sites —
    /// pooled growth inside the arena is the mechanism, not a hot-path
    /// cost — and calls into them never count against arena-clean
    /// functions.
    pub arena_crates: Vec<String>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        use AllocMode::{AllocFree, ArenaClean, Tracked};
        let alloc_entries = [
            // Cox-Time training (scanning from `fit` reaches the minibatch
            // loop in `train` and the Breslow bucket closure in `finish`).
            ("selector/src/coxtime.rs", "fit", Tracked),
            // CDF similarity matrix and its integration kernel. The
            // integration kernel is proven allocation-free (PR 2); keep it
            // that way unconditionally.
            (
                "metrics/src/distance.rs",
                "pairwise_similarity_matrix",
                Tracked,
            ),
            (
                "metrics/src/distance.rs",
                "pairwise_similarity_matrix_threads",
                Tracked,
            ),
            (
                "metrics/src/distance.rs",
                "upper_triangle_similarities",
                Tracked,
            ),
            ("metrics/src/distance.rs", "integrate_ecdf", AllocFree),
            // Incremental statistical core (PR 7): the three steady-state
            // kernels run once per benchmark result on the fleet path, so
            // any allocation in their reach is a hard failure. Each was
            // written against the collision list in crate::callgraph
            // (manual swaps instead of `<[T]>::swap`, no calls to names a
            // workspace method shares).
            ("metrics/src/distance.rs", "similarity_rows_into", AllocFree),
            ("selector/src/select.rs", "celf_core", AllocFree),
            ("selector/src/coxtime.rs", "warmstart_merge_into", AllocFree),
            // The batched MLP kernels and the optimizer step: every
            // Cox-Time network evaluation and update runs through them.
            // They reuse caller-provided caches and scratch, and they
            // call no name that a workspace method shares (the batched
            // forward inlines its activations instead of calling
            // `apply`), so their whole reach is enforced.
            ("nn/src/mlp.rs", "forward_batch", AllocFree),
            ("nn/src/mlp.rs", "backward_batch", AllocFree),
            ("nn/src/adam.rs", "step_flat", AllocFree),
            // Deterministic parallel executor: every chunk body runs here.
            ("parallel/src/lib.rs", "execute", Tracked),
            ("parallel/src/lib.rs", "map_chunks", Tracked),
            ("parallel/src/lib.rs", "map_chunks_mut", Tracked),
            ("parallel/src/lib.rs", "map_items", Tracked),
            ("parallel/src/lib.rs", "map_indexed", Tracked),
            ("parallel/src/lib.rs", "reduce_chunks", Tracked),
            // The converted zero-alloc hot loops: per-call scratch comes
            // from `anubis-arena` pools or caller-provided buffers.
            ("cluster/src/sim.rs", "try_allocate", ArenaClean),
            ("benchsuite/src/runner.rs", "append_jsonl", ArenaClean),
            ("obs/src/trace.rs", "append_jsonl", ArenaClean),
            ("metrics/src/json.rs", "push_f64", ArenaClean),
            ("metrics/src/json.rs", "push_escaped", ArenaClean),
            // The fleetd shard hot loop: per-tick scratch is pooled,
            // proposals go to persistent report buffers.
            ("fleetd/src/shard.rs", "tick", ArenaClean),
        ];
        Self {
            gated_crates: GATED_CRATES.iter().map(|c| (*c).to_owned()).collect(),
            alloc_entries: alloc_entries
                .into_iter()
                .map(|(path, func, mode)| AllocEntry::new(path, func, mode))
                .collect(),
            arena_crates: vec!["arena".to_owned()],
        }
    }
}

impl AnalysisConfig {
    /// A config with everything empty — the base the pass unit tests
    /// extend so new fields don't churn every struct literal.
    pub fn bare() -> Self {
        Self {
            gated_crates: Vec::new(),
            alloc_entries: Vec::new(),
            arena_crates: Vec::new(),
        }
    }
}

/// Runs all three passes and returns findings sorted by (code, path,
/// line, kind, func) — a deterministic order suitable for diffing. The
/// call graph is built once and shared by both graph passes.
pub fn run_analysis(ws: &Workspace, config: &AnalysisConfig) -> Vec<Finding> {
    let graph = CallGraph::build(ws);
    let mut findings = a001::run(ws, &graph, config);
    findings.extend(a002::run(ws));
    findings.extend(a008::run(ws, &graph, config));
    findings.sort_by(|a, b| {
        (a.code, &a.path, a.line, &a.kind, &a.func)
            .cmp(&(b.code, &b.path, b.line, &b.kind, &b.func))
    });
    findings
}

/// Renders a call path of function indices as `a -> B::b -> c`.
pub(crate) fn path_string(ws: &Workspace, path: &[usize]) -> String {
    path.iter()
        .map(|&i| ws.fns[i].qual_name())
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// Whether the function at `index` is a public API of a gated crate — a
/// root for reachability passes.
pub(crate) fn is_gated_public_root(ws: &Workspace, index: usize, config: &AnalysisConfig) -> bool {
    let item = &ws.fns[index];
    item.is_public
        && !item.in_test
        && config
            .gated_crates
            .iter()
            .any(|c| *c == ws.files[item.file].crate_name)
}
