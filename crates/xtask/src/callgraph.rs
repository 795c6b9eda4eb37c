//! Cross-crate call graph over the token-level [`crate::model`].
//!
//! Nodes are the non-test functions of a [`Workspace`]; edges connect a
//! caller to every workspace function its call sites *may* resolve to.
//! Resolution is name-based and deliberately over-approximate (a static
//! analysis that misses a panic path is worse than one that reports a
//! spurious edge), but it is not naive — unconstrained name matching would
//! resolve `Vec::new()` to every `new` in the workspace. The rules:
//!
//! - **Qualified calls** (`Q::f(..)`) resolve only to functions whose
//!   `impl` type is `Q` or whose file stem is `Q` (module-style calls like
//!   `mask::mask`). A qualifier matching nothing in the workspace (e.g.
//!   `Vec`, `String`, `f64`) resolves to no edge at all: the callee is
//!   foreign, and foreign panics are modeled by the passes' direct token
//!   scans, not by the graph.
//! - **Crate-qualified calls** (`anubis_parallel::map_chunks(..)`,
//!   `crate::helper(..)`) resolve to the free functions of that crate
//!   directory sharing the name (`anubis` itself maps to `crates/core`,
//!   `crate` to the caller's own crate). Without this rule, cross-crate
//!   calls — exactly the ones A001's panic reach must follow — would
//!   produce no edges at all.
//! - **Method calls** (`recv.f(..)`) resolve to every workspace function
//!   named `f` that takes `self` — the receiver's type is unknown at the
//!   token level, so all impls are candidates. Names on the
//!   [`STD_COLLISION_METHODS`] list (`unwrap`, `clone`, `len`, …) resolve
//!   to nothing: they almost always target std types, and their effects
//!   are modeled by the passes' direct token scans.
//! - **Free calls** (`f(..)`) resolve to every function named `f` that
//!   does *not* take `self`; same-file candidates are preferred when any
//!   exist (an unqualified call usually targets the local module), and a
//!   name matching one of the caller's own parameters resolves to nothing
//!   (it invokes a closure argument).
//! - **Macro calls** never produce edges; passes inspect them directly.
//!
//! Traversals are breadth-first over sorted adjacency, so reported
//! shortest paths are deterministic across runs and platforms.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::model::{Call, CallKind, Workspace};

/// Method names so ubiquitous in std that a method call with one of them
/// almost certainly targets a std type, not a workspace impl that happens
/// to share the name (`.expect()` on an `Option` must not edge into a
/// parser's `expect` method). Their panics are modeled by the passes'
/// direct token scans, so dropping the edges loses nothing.
const STD_COLLISION_METHODS: &[&str] = &[
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "clone",
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
    "iter",
    "iter_mut",
    "into_iter",
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "contains",
    "next",
    "map",
    "filter",
    "fold",
    "sum",
    "min",
    "max",
    "sort",
    "sort_by",
    "extend",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
];

/// A call graph: `edges[i]` lists the function indices `fns[i]` may call.
#[derive(Debug)]
pub struct CallGraph {
    /// Adjacency by function index into [`Workspace::fns`], sorted and
    /// deduplicated per node.
    pub edges: Vec<Vec<usize>>,
}

/// Result of a multi-source BFS: distance and predecessor per function.
#[derive(Debug)]
pub struct Reach {
    /// `dist[i]` is the edge count from the nearest root to function `i`,
    /// or `usize::MAX` when unreachable.
    pub dist: Vec<usize>,
    /// `prev[i]` is the function preceding `i` on one shortest path, or
    /// `usize::MAX` for roots and unreachable functions.
    pub prev: Vec<usize>,
}

impl CallGraph {
    /// Builds the graph for `ws` using the resolution rules above.
    pub fn build(ws: &Workspace) -> Self {
        let index = NameIndex::build(ws);
        let mut edges = Vec::with_capacity(ws.fns.len());
        for (caller, item) in ws.fns.iter().enumerate() {
            let mut out: Vec<usize> = item
                .calls
                .iter()
                .flat_map(|call| index.resolve(ws, caller, call))
                .filter(|&callee| callee != caller)
                .collect();
            out.sort_unstable();
            out.dedup();
            edges.push(out);
        }
        Self { edges }
    }

    /// Multi-source BFS from `roots`, following edges caller → callee.
    pub fn reach(&self, roots: &[usize]) -> Reach {
        let n = self.edges.len();
        let mut dist = vec![usize::MAX; n];
        let mut prev = vec![usize::MAX; n];
        let mut queue = VecDeque::new();
        let mut sorted_roots: Vec<usize> = roots.to_vec();
        sorted_roots.sort_unstable();
        sorted_roots.dedup();
        for &root in &sorted_roots {
            if root < n && dist[root] == usize::MAX {
                dist[root] = 0;
                queue.push_back(root);
            }
        }
        while let Some(node) = queue.pop_front() {
            for &next in &self.edges[node] {
                if dist[next] == usize::MAX {
                    dist[next] = dist[node] + 1;
                    prev[next] = node;
                    queue.push_back(next);
                }
            }
        }
        Reach { dist, prev }
    }

    /// BFS over *reversed* edges: which functions can reach `targets`.
    /// `dist[i]` becomes the shortest call-chain length from `i` into the
    /// target set, and following `prev` from `i` walks *toward* a target.
    pub fn reach_reverse(&self, targets: &[usize]) -> Reach {
        let reversed = self.reversed();
        reversed.reach(targets)
    }

    /// The graph with every edge flipped (callee → caller).
    fn reversed(&self) -> CallGraph {
        let mut edges = vec![Vec::new(); self.edges.len()];
        for (caller, out) in self.edges.iter().enumerate() {
            for &callee in out {
                edges[callee].push(caller);
            }
        }
        for out in &mut edges {
            out.sort_unstable();
            out.dedup();
        }
        CallGraph { edges }
    }
}

impl Reach {
    /// The shortest path from `start` following predecessor links until a
    /// node with no predecessor (a root/target), as function indices
    /// starting at `start`. Empty when `start` is unreachable.
    pub fn path_from(&self, start: usize) -> Vec<usize> {
        if start >= self.dist.len() || self.dist[start] == usize::MAX {
            return Vec::new();
        }
        let mut path = vec![start];
        let mut node = start;
        while self.prev[node] != usize::MAX {
            node = self.prev[node];
            path.push(node);
            if path.len() > self.dist.len() {
                break; // Defensive: malformed predecessor chain.
            }
        }
        path
    }
}

/// Name-keyed lookup tables for call resolution.
struct NameIndex {
    /// Method name → indices of fns taking `self` (or any impl fn).
    methods: BTreeMap<String, Vec<usize>>,
    /// Free name → indices of fns not taking `self` and outside impls.
    free: BTreeMap<String, Vec<usize>>,
    /// `Type::name` or `stem::name` → indices (qualified resolution).
    qualified: BTreeMap<(String, String), Vec<usize>>,
    /// `(crate_dir, name)` → indices of that crate's free fns, for
    /// crate-qualified calls (`anubis_parallel::map_chunks`).
    crate_free: BTreeMap<(String, String), Vec<usize>>,
}

impl NameIndex {
    fn build(ws: &Workspace) -> Self {
        let mut methods: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut qualified: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut crate_free: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, item) in ws.fns.iter().enumerate() {
            if item.in_test {
                continue;
            }
            if let Some(ty) = &item.impl_type {
                qualified
                    .entry((ty.clone(), item.name.clone()))
                    .or_default()
                    .push(i);
                // Associated fns are also reachable as method calls when
                // they take self; `Self::name()` inside the impl resolves
                // via the qualified table.
                if item.has_self {
                    methods.entry(item.name.clone()).or_default().push(i);
                }
            } else {
                free.entry(item.name.clone()).or_default().push(i);
                crate_free
                    .entry((ws.files[item.file].crate_name.clone(), item.name.clone()))
                    .or_default()
                    .push(i);
            }
            // Module-style qualification: `stem::name(..)`.
            let stem = ws.files[item.file].stem.clone();
            qualified
                .entry((stem, item.name.clone()))
                .or_default()
                .push(i);
        }
        Self {
            methods,
            free,
            qualified,
            crate_free,
        }
    }

    /// The crate directory a qualifier names, if any: `anubis_parallel` →
    /// `parallel`, `anubis` → `core` (the package at `crates/core`),
    /// `crate` → the caller's own crate directory.
    fn qualifier_crate(ws: &Workspace, caller: usize, qualifier: &str) -> Option<String> {
        if qualifier == "crate" {
            return Some(ws.files[ws.fns[caller].file].crate_name.clone());
        }
        if qualifier == "anubis" {
            return Some("core".to_owned());
        }
        qualifier.strip_prefix("anubis_").map(str::to_owned)
    }

    fn resolve(&self, ws: &Workspace, caller: usize, call: &Call) -> Vec<usize> {
        match call.kind {
            CallKind::Macro => Vec::new(),
            CallKind::Method => {
                if STD_COLLISION_METHODS.contains(&call.name.as_str()) {
                    return Vec::new();
                }
                self.methods.get(&call.name).cloned().unwrap_or_default()
            }
            CallKind::Qualified => {
                let Some(qualifier) = &call.qualifier else {
                    return Vec::new();
                };
                // `Self::f` resolves against the caller's own impl type.
                let qualifier = if qualifier == "Self" {
                    match &ws.fns[caller].impl_type {
                        Some(ty) => ty.clone(),
                        None => return Vec::new(),
                    }
                } else {
                    qualifier.clone()
                };
                // Crate-qualified facade call: `anubis_parallel::f(..)` /
                // `crate::f(..)` edges into that crate's free fns.
                if let Some(dir) = Self::qualifier_crate(ws, caller, &qualifier) {
                    if let Some(hits) = self.crate_free.get(&(dir, call.name.clone())) {
                        return hits.clone();
                    }
                }
                self.qualified
                    .get(&(qualifier, call.name.clone()))
                    .cloned()
                    .unwrap_or_default()
            }
            CallKind::Free => {
                // `f(x)` where `f` is a parameter of the caller invokes a
                // closure, never a named workspace function.
                if ws.fns[caller].params.iter().any(|p| p.name == call.name) {
                    return Vec::new();
                }
                let Some(candidates) = self.free.get(&call.name) else {
                    return Vec::new();
                };
                // Prefer same-file candidates: an unqualified call almost
                // always targets the enclosing module.
                let file = ws.fns[caller].file;
                let local: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&i| ws.fns[i].file == file)
                    .collect();
                if local.is_empty() {
                    candidates.clone()
                } else {
                    local
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Workspace;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(files.iter().copied())
    }

    fn find(ws: &Workspace, qual: &str) -> usize {
        ws.fns
            .iter()
            .position(|f| f.qual_name() == qual)
            .unwrap_or_else(|| panic!("no fn {qual}"))
    }

    #[test]
    fn free_call_resolves_same_file_first() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "fn helper() {}\nfn top() { helper(); }\n",
            ),
            ("crates/b/src/lib.rs", "fn helper() {}\n"),
        ]);
        let g = CallGraph::build(&w);
        let top = find(&w, "top");
        let local = find(&w, "helper");
        assert_eq!(g.edges[top], vec![local]);
    }

    #[test]
    fn free_call_falls_back_to_cross_file() {
        let w = ws(&[
            ("crates/a/src/lib.rs", "pub fn top() { helper(); }\n"),
            ("crates/b/src/util.rs", "pub fn helper() {}\n"),
        ]);
        let g = CallGraph::build(&w);
        let top = find(&w, "top");
        let helper = find(&w, "helper");
        assert_eq!(g.edges[top], vec![helper]);
    }

    #[test]
    fn qualified_call_requires_matching_type_or_stem() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "struct S;\nimpl S { pub fn new() -> S { S } }\n\
                 pub fn make() -> S { S::new() }\n\
                 pub fn noise() { Vec::new(); }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub struct T;\nimpl T { pub fn new() -> T { T } }\n",
            ),
        ]);
        let g = CallGraph::build(&w);
        let make = find(&w, "make");
        let s_new = find(&w, "S::new");
        assert_eq!(
            g.edges[make],
            vec![s_new],
            "S::new resolves to S's impl only"
        );
        let noise = find(&w, "noise");
        assert!(g.edges[noise].is_empty(), "Vec::new resolves to nothing");
    }

    #[test]
    fn module_stem_qualification_resolves() {
        let w = ws(&[
            ("crates/a/src/lib.rs", "pub fn top() { util::helper(); }\n"),
            ("crates/a/src/util.rs", "pub fn helper() {}\n"),
        ]);
        let g = CallGraph::build(&w);
        let top = find(&w, "top");
        let helper = find(&w, "helper");
        assert_eq!(g.edges[top], vec![helper]);
    }

    #[test]
    fn crate_qualified_calls_resolve_across_crates() {
        let w = ws(&[
            (
                "crates/selector/src/select.rs",
                "pub fn pick() { anubis_parallel::map_items(); crate::local(); }\n",
            ),
            ("crates/selector/src/lib.rs", "pub fn local() {}\n"),
            ("crates/parallel/src/lib.rs", "pub fn map_items() {}\n"),
        ]);
        let g = CallGraph::build(&w);
        let pick = find(&w, "pick");
        let local = find(&w, "local");
        let map_items = find(&w, "map_items");
        assert_eq!(
            g.edges[pick],
            vec![local.min(map_items), local.max(map_items)]
        );
    }

    #[test]
    fn self_qualified_resolves_to_own_impl() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "struct S;\nimpl S {\n  fn inner(&self) {}\n  pub fn outer(&self) { Self::inner(self); }\n}\n",
        )]);
        let g = CallGraph::build(&w);
        let outer = find(&w, "S::outer");
        let inner = find(&w, "S::inner");
        assert!(g.edges[outer].contains(&inner));
    }

    #[test]
    fn method_call_resolves_to_all_self_takers() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "struct A;\nimpl A { pub fn go(&self) {} }\npub fn drive(a: &A) { a.go(); }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub struct B;\nimpl B { pub fn go(&self) {} }\n",
            ),
        ]);
        let g = CallGraph::build(&w);
        let drive = find(&w, "drive");
        let a_go = find(&w, "A::go");
        let b_go = find(&w, "B::go");
        assert_eq!(g.edges[drive], vec![a_go.min(b_go), a_go.max(b_go)]);
    }

    #[test]
    fn reverse_reach_reports_path_toward_target() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn api() { mid(); }\nfn mid() { sink(); }\nfn sink() {}\n",
        )]);
        let g = CallGraph::build(&w);
        let api = find(&w, "api");
        let mid = find(&w, "mid");
        let sink = find(&w, "sink");
        let reach = g.reach_reverse(&[sink]);
        assert_eq!(reach.dist[api], 2);
        assert_eq!(reach.path_from(api), vec![api, mid, sink]);
    }

    #[test]
    fn forward_reach_from_roots() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn api() { mid(); }\nfn mid() {}\nfn orphan() {}\n",
        )]);
        let g = CallGraph::build(&w);
        let api = find(&w, "api");
        let mid = find(&w, "mid");
        let orphan = find(&w, "orphan");
        let reach = g.reach(&[api]);
        assert_eq!(reach.dist[api], 0);
        assert_eq!(reach.dist[mid], 1);
        assert_eq!(reach.dist[orphan], usize::MAX);
        assert!(reach.path_from(orphan).is_empty());
    }

    #[test]
    fn test_fns_are_not_resolution_targets() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn api() { helper(); }\n#[cfg(test)]\nmod tests {\n  fn helper() {}\n}\n",
        )]);
        let g = CallGraph::build(&w);
        let api = find(&w, "api");
        assert!(g.edges[api].is_empty());
    }
}
