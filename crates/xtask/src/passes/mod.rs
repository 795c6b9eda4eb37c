//! Graph-aware analysis passes over the workspace model.
//!
//! Each pass walks the [`Workspace`](crate::model::Workspace) (A001 also
//! the [`CallGraph`](crate::callgraph::CallGraph)) and emits [`Finding`]s
//! with a stable diagnostic code:
//!
//! | Code | Pass | Question answered |
//! |------|------|-------------------|
//! | A001 | [`a001`] | Which public fleet-facing APIs can transitively panic? |
//! | A002 | [`a002`] | Where are floats compared or ordered NaN-unsafely? |
//!
//! The numbering skips A003–A008 on purpose: the toolchain and the tests
//! enforce what those passes checked. The root `clippy.toml` bans the
//! nondeterminism sources and the shared-mutable types (`Mutex`,
//! atomics, `Cell`, `RefCell`); rustc rejects a worker closure that
//! assigns through a capture, since every `anubis-parallel` entry takes
//! `Fn + Sync`; `NodeState` is opaque outside `anubis-lifecycle`, so no
//! other crate can construct a lifecycle state; and the root
//! `tests/alloc_counts.rs` measures hot-path allocation exactly instead
//! of inferring it from the call graph.
//!
//! Findings are keyed by *(code, file, function, kind)* — deliberately not
//! by line — so the committed baseline survives unrelated edits to the
//! same file. Identical keys are aggregated by count in the baseline.

pub mod a001;
pub mod a002;

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
    "fleetd",
    "metrics",
    "traces",
    "parallel",
];

/// One analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable diagnostic code (`A001` or `A002`).
    pub code: &'static str,
    /// Workspace-relative file of the flagged function.
    pub path: String,
    /// 1-based line of the flagged construct (not part of the key).
    pub line: usize,
    /// Qualified name of the flagged function (`Type::name` or `name`).
    pub func: String,
    /// Short machine-readable slug for the finding flavor
    /// (`panic-reach`, `float-eq`, `partial-cmp-unwrap`, …).
    pub kind: String,
    /// Human-readable explanation, including the call path where the pass
    /// computes one.
    pub message: String,
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

/// Tunable inputs of an analysis run. [`AnalysisConfig::default`] matches
/// the real workspace; fixtures construct custom configs.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Crate directory names whose public APIs are A001 roots.
    pub gated_crates: Vec<String>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self {
            gated_crates: GATED_CRATES.iter().map(|c| (*c).to_owned()).collect(),
        }
    }
}

impl AnalysisConfig {
    /// A config with everything empty — the base the pass unit tests
    /// extend so new fields don't churn every struct literal.
    pub fn bare() -> Self {
        Self {
            gated_crates: Vec::new(),
        }
    }
}

/// Runs both passes and returns findings sorted by (code, path, line,
/// kind, func) — a deterministic order suitable for diffing.
pub fn run_analysis(ws: &Workspace, config: &AnalysisConfig) -> Vec<Finding> {
    let graph = CallGraph::build(ws);
    let mut findings = a001::run(ws, &graph, config);
    findings.extend(a002::run(ws));
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
