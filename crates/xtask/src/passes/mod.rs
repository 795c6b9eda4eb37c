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
//! | A003 | [`a003`] | What allocates inside the measured hot paths? |
//! | A008 | [`a008`] | Which hot-path allocations are scope-local (arena-able), and do arena-clean functions stay clean? |
//!
//! A003/A008 consume the interprocedural allocation summaries of
//! [`crate::dataflow`]; the others scan per-function.
//!
//! The numbering skips the codes between A003 and A008 on purpose: the
//! toolchain enforces what they checked. The root `clippy.toml` bans the
//! nondeterminism sources and the shared-mutable types (`Mutex`,
//! atomics, `Cell`, `RefCell`); rustc rejects a worker closure that
//! assigns through a capture, since every `anubis-parallel` entry takes
//! `Fn + Sync`; and `NodeState` is opaque outside `anubis-lifecycle`, so
//! no other crate can construct a lifecycle state.
//!
//! Findings are keyed by *(code, file, function, kind)* — deliberately not
//! by line — so the committed baseline survives unrelated edits to the
//! same file. Identical keys are aggregated by count in the baseline.
//!
//! Findings reachable from an *enforced* hot entry
//! ([`HotEntry::enforced`]) are marked [`Finding::enforced`]; those are
//! hard failures — the baseline never absorbs them (see
//! [`crate::report::Baseline::from_findings`]).

pub mod a001;
pub mod a002;
pub mod a003;
pub mod a008;

use crate::callgraph::CallGraph;
use crate::dataflow::Summaries;
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
    /// Stable diagnostic code (`A001`, `A002`, `A003` or `A008`).
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
    /// `true` when the finding sits on an enforced hot entry's reach: it
    /// is a hard failure the baseline never absorbs.
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

/// One A003 hot entry point: the function whose forward reach is scanned
/// for allocations, plus whether its findings are enforced (hard failure)
/// or merely tracked against the baseline.
#[derive(Debug, Clone)]
pub struct HotEntry {
    /// Path substring selecting the file (`nn/src/mlp.rs`).
    pub path: String,
    /// Function name (`forward_into`).
    pub func: String,
    /// `true` makes every allocation reachable from this entry a hard
    /// failure instead of a baseline-tracked finding.
    pub enforce: bool,
}

impl HotEntry {
    /// A baseline-tracked entry: new allocations regress the baseline but
    /// existing ones are tolerated.
    pub fn tracked(path: &str, func: &str) -> Self {
        Self {
            path: path.to_owned(),
            func: func.to_owned(),
            enforce: false,
        }
    }

    /// An enforced entry: *any* allocation in its reach fails the run,
    /// baseline or not. Reserve for kernels already proven allocation-free.
    pub fn enforced(path: &str, func: &str) -> Self {
        Self {
            path: path.to_owned(),
            func: func.to_owned(),
            enforce: true,
        }
    }
}

/// Tunable inputs of an analysis run. [`AnalysisConfig::default`] matches
/// the real workspace; fixtures construct custom configs.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Crate directory names whose public APIs are A001 roots.
    pub gated_crates: Vec<String>,
    /// Hot entry points for A003.
    pub hot_entries: Vec<HotEntry>,
    /// Crate directory names implementing the sanctioned arena
    /// (`anubis-arena`). Their internal allocations record no sites —
    /// pooled growth inside the arena is the mechanism, not a hot-path
    /// cost — and calls into them never count against arena-clean
    /// functions.
    pub arena_crates: Vec<String>,
    /// Functions registered **arena-clean**: every *direct* allocation in
    /// their own body (closures included) is an enforced A008 failure —
    /// per-call scratch must come from `anubis-arena` instead. Direct
    /// sites only, deliberately: transitive reach through the
    /// over-approximate name-based call graph would import collision
    /// noise, and the transitive budget is A003's job. The `enforce` flag
    /// is ignored; registration itself is the enforcement.
    pub arena_clean_entries: Vec<HotEntry>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        let hot = vec![
            // Cox-Time training (scanning from `fit` reaches the minibatch
            // loop in `train` and the Breslow bucket closure in `finish`).
            HotEntry::tracked("selector/src/coxtime.rs", "fit"),
            // CDF similarity matrix and its integration kernel. The
            // integration kernel is proven allocation-free (PR 2); keep it
            // that way unconditionally.
            HotEntry::tracked("metrics/src/distance.rs", "pairwise_similarity_matrix"),
            HotEntry::tracked(
                "metrics/src/distance.rs",
                "pairwise_similarity_matrix_threads",
            ),
            HotEntry::tracked("metrics/src/distance.rs", "upper_triangle_similarities"),
            HotEntry::enforced("metrics/src/distance.rs", "integrate_ecdf"),
            // Incremental statistical core (PR 7): the three steady-state
            // kernels run once per benchmark result on the fleet path, so
            // any allocation in their reach is a hard failure. Each was
            // written against the collision list in crate::callgraph
            // (manual swaps instead of `<[T]>::swap`, no calls to names a
            // workspace method shares).
            HotEntry::enforced("metrics/src/distance.rs", "similarity_rows_into"),
            HotEntry::enforced("selector/src/select.rs", "celf_core"),
            HotEntry::enforced("selector/src/coxtime.rs", "warmstart_merge_into"),
            // MLP forward/backward and the optimizer step: the PR 2 hoist
            // left the kernels allocation-free, so the ones whose reach is
            // free of name-collision edges are enforced. The two forward
            // kernels stay tracked: their `forward` callee name-matches
            // unrelated `forward`/`apply` methods that carry baseline
            // allocations, and the over-approximating graph must keep
            // those edges (see crate::callgraph).
            HotEntry::tracked("nn/src/mlp.rs", "forward_into"),
            HotEntry::tracked("nn/src/mlp.rs", "forward_scalar_into"),
            HotEntry::enforced("nn/src/mlp.rs", "backward_flat"),
            HotEntry::enforced("nn/src/adam.rs", "step_flat"),
            // Deterministic parallel executor: every chunk body runs here.
            HotEntry::tracked("parallel/src/lib.rs", "execute"),
            HotEntry::tracked("parallel/src/lib.rs", "map_chunks"),
            HotEntry::tracked("parallel/src/lib.rs", "map_chunks_mut"),
            HotEntry::tracked("parallel/src/lib.rs", "map_items"),
            HotEntry::tracked("parallel/src/lib.rs", "map_indexed"),
            HotEntry::tracked("parallel/src/lib.rs", "reduce_chunks"),
        ];
        Self {
            gated_crates: GATED_CRATES.iter().map(|c| (*c).to_owned()).collect(),
            hot_entries: hot,
            arena_crates: vec!["arena".to_owned()],
            // The converted zero-alloc hot loops (PR 9): per-call scratch
            // comes from `anubis-arena` pools or caller-provided buffers;
            // any direct allocation reappearing in them fails the run.
            arena_clean_entries: vec![
                HotEntry::enforced("cluster/src/sim.rs", "try_allocate"),
                HotEntry::enforced("benchsuite/src/runner.rs", "append_jsonl"),
                HotEntry::enforced("obs/src/trace.rs", "append_jsonl"),
                HotEntry::enforced("metrics/src/json.rs", "push_f64"),
                HotEntry::enforced("metrics/src/json.rs", "push_escaped"),
                // The fleetd shard hot loop (PR 10): per-tick scratch is
                // pooled, proposals go to persistent report buffers.
                HotEntry::enforced("fleetd/src/shard.rs", "tick"),
            ],
        }
    }
}

impl AnalysisConfig {
    /// A config with everything empty — the base the pass unit tests
    /// extend so new fields don't churn every struct literal.
    pub fn bare() -> Self {
        Self {
            gated_crates: Vec::new(),
            hot_entries: Vec::new(),
            arena_crates: Vec::new(),
            arena_clean_entries: Vec::new(),
        }
    }
}

/// Runs all four passes and returns findings sorted by (code, path, line,
/// kind, func) — a deterministic order suitable for diffing. The call
/// graph and the interprocedural summaries are computed once and shared
/// by every summary-consuming pass.
pub fn run_analysis(ws: &Workspace, config: &AnalysisConfig) -> Vec<Finding> {
    let graph = CallGraph::build(ws);
    let summaries = Summaries::compute(ws, &graph, config);
    let mut findings = a001::run(ws, &graph, config);
    findings.extend(a002::run(ws));
    findings.extend(a003::run(ws, &graph, &summaries, config));
    findings.extend(a008::run(ws, &graph, &summaries, config));
    findings.sort_by(|a, b| {
        (a.code, &a.path, a.line, &a.kind, &a.func)
            .cmp(&(b.code, &b.path, b.line, &b.kind, &b.func))
    });
    findings
}

/// Computes the A008 arena-able inventory (see [`a008::arena_able`]):
/// every scope-local allocation reachable from an A003 hot entry. The
/// `analyze --arena-report` flag prints it as an informational report;
/// the sites are candidates for pooled-scratch conversion, not findings.
pub fn arena_able_report(ws: &Workspace, config: &AnalysisConfig) -> Vec<a008::ArenaAble> {
    let graph = CallGraph::build(ws);
    let summaries = Summaries::compute(ws, &graph, config);
    a008::arena_able(ws, &graph, &summaries, config)
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
