//! A008 — hot-path allocation, escape and arena discipline.
//!
//! Hoisting allocations out of the Cox-Time gradient loop, the CDF
//! similarity matrix and the MLP forward/backward kernels made training
//! 5.9× faster, and the converted hot loops take their per-call scratch
//! from `anubis-arena`. This pass guards both over one registry,
//! [`AnalysisConfig::alloc_entries`], in the entry's [`AllocMode`]:
//!
//! - **Tracked** and **AllocFree** entries root one forward walk of the
//!   call graph, and every allocation site of every reachable function is
//!   a finding of the site's kind (`Vec::new`/`with_capacity`, `vec!`,
//!   `to_vec`, `clone`, `collect`, `format!`, `Box::new`, `to_owned`,
//!   `to_string`). A site in an AllocFree entry's reach is enforced:
//!   moving it one wrapper deeper changes its call path, never the
//!   verdict. The pass cannot tell a one-time setup allocation from a
//!   per-iteration one, so deliberate tracked allocations live in the
//!   baseline, and the gate fires only when *new* ones appear.
//! - **ArenaClean** entries promise no *direct* allocation in their own
//!   body (closures included); each site is an enforced
//!   `non-arena-alloc` finding. Direct sites only, deliberately:
//!   enforcement through the over-approximate name-based call graph would
//!   import collision noise (`decide` resolves to every `decide` in the
//!   workspace). Calls into the sanctioned arena crates record no sites
//!   ([`AnalysisConfig::arena_crates`]), so `arena.take()` and friends
//!   are free by construction.
//!
//! Every message carries the call path from the nearest entry and the
//! site's escape class ([`Escape`](crate::dataflow::Escape)). The
//! `escape: local` findings are the arena-able inventory: allocations that
//! provably die inside their function, so a pooled buffer could replace
//! them without changing an output byte. `analyze` prints their count,
//! and the `--json` report lists them.

use super::{path_string, AllocMode, AnalysisConfig, Finding};
use crate::callgraph::CallGraph;
use crate::dataflow::{alloc_sites, AllocSite};
use crate::model::Workspace;

/// Runs the pass over every registered entry.
pub fn run(ws: &Workspace, graph: &CallGraph, config: &AnalysisConfig) -> Vec<Finding> {
    let entries = |modes: &[AllocMode]| -> Vec<usize> {
        (0..ws.fns.len())
            .filter(|&i| {
                let item = &ws.fns[i];
                !item.in_test
                    && config.alloc_entries.iter().any(|entry| {
                        modes.contains(&entry.mode)
                            && item.name == entry.func
                            && ws.files[item.file].path.contains(entry.path.as_str())
                    })
            })
            .collect()
    };
    let reach = graph.reach(&entries(&[AllocMode::Tracked, AllocMode::AllocFree]));
    let enforced_reach = graph.reach(&entries(&[AllocMode::AllocFree]));
    let arena_clean = entries(&[AllocMode::ArenaClean]);
    let sites = alloc_sites(ws, config);

    let mut findings = Vec::new();
    for (index, item) in ws.fns.iter().enumerate() {
        if sites[index].is_empty() {
            continue;
        }
        let func = item.qual_name();
        let mut push = |site: &AllocSite, kind: &str, context: &str, enforced| {
            findings.push(Finding {
                code: "A008",
                path: ws.files[item.file].path.clone(),
                line: site.line,
                func: func.clone(),
                kind: kind.to_owned(),
                message: format!(
                    "`{}` allocates in `{func}` (lines {}-{}, escape: {}), {context}",
                    site.kind,
                    site.span.0,
                    site.span.1,
                    site.escape.slug(),
                ),
                enforced,
            });
        };
        if reach.dist[index] != usize::MAX {
            let mut entry_path = reach.path_from(index);
            entry_path.reverse();
            let via = path_string(ws, &entry_path);
            let context = format!("reachable from hot entry via {via}");
            let enforced = enforced_reach.dist[index] != usize::MAX;
            for site in &sites[index] {
                push(site, &site.kind, &context, enforced);
            }
        }
        if arena_clean.contains(&index) {
            let context = "directly in an arena-clean entry; per-call scratch must come \
                           from `anubis-arena` or a caller-provided buffer";
            for site in &sites[index] {
                push(site, "non-arena-alloc", context, true);
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::AllocEntry;
    use AllocMode::{AllocFree, ArenaClean, Tracked};

    fn analyze(files: &[(&str, &str)], entries: &[(&str, &str, AllocMode)]) -> Vec<Finding> {
        let ws = Workspace::from_sources(files.iter().copied());
        let mut config = AnalysisConfig::bare();
        config.arena_crates = vec!["arena".to_owned()];
        config.alloc_entries = entries
            .iter()
            .map(|&(path, func, mode)| AllocEntry::new(path, func, mode))
            .collect();
        run(&ws, &CallGraph::build(&ws), &config)
    }

    #[test]
    fn allocation_in_callee_of_hot_entry_is_flagged_with_path_and_escape() {
        let findings = analyze(
            &[(
                "crates/nn/src/mlp.rs",
                "pub fn forward_into(x: &[f64]) { helper(x); }\n\
                 fn helper(x: &[f64]) { let _y = x.to_vec(); }\n",
            )],
            &[("nn/src/mlp.rs", "forward_into", Tracked)],
        );
        assert_eq!(findings.len(), 1, "{findings:#?}");
        let f = &findings[0];
        assert_eq!(
            (f.code, f.kind.as_str(), f.func.as_str()),
            ("A008", "to_vec", "helper")
        );
        assert!(!f.enforced);
        assert!(
            f.message.contains("forward_into -> helper"),
            "{}",
            f.message
        );
        assert!(f.message.contains("escape: local"), "{}", f.message);
    }

    #[test]
    fn returned_buffer_reports_escape_returned() {
        let findings = analyze(
            &[(
                "crates/nn/src/mlp.rs",
                "pub fn forward_into(x: &[u32]) -> Vec<u32> { x.to_vec() }\n",
            )],
            &[("nn/src/mlp.rs", "forward_into", Tracked)],
        );
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(
            findings[0].message.contains("escape: returned"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn allocation_outside_hot_reachability_is_not_flagged() {
        let findings = analyze(
            &[(
                "crates/nn/src/mlp.rs",
                "pub fn forward_into(x: &[f64]) -> f64 { x[0] }\n\
                 pub fn cold() { let _v: Vec<f64> = Vec::new(); }\n",
            )],
            &[("nn/src/mlp.rs", "forward_into", Tracked)],
        );
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn enforced_entries_mark_their_reach_enforced() {
        let files = [(
            "crates/nn/src/mlp.rs",
            "pub fn forward_into(x: &[f64]) { helper(x); }\n\
             pub fn cold_path(x: &[f64]) { helper(x); }\n\
             fn helper(x: &[f64]) { let _y = x.to_vec(); }\n",
        )];
        // Tracked entry only: finding is not enforced.
        let tracked = analyze(&files, &[("nn/src/mlp.rs", "cold_path", Tracked)]);
        assert_eq!(tracked.len(), 1);
        assert!(!tracked[0].enforced);
        // An alloc-free entry sharing the callee upgrades the finding.
        let findings = analyze(
            &files,
            &[
                ("nn/src/mlp.rs", "cold_path", Tracked),
                ("nn/src/mlp.rs", "forward_into", AllocFree),
            ],
        );
        assert_eq!(findings.len(), 1);
        assert!(findings[0].enforced, "{findings:#?}");
    }

    #[test]
    fn vec_new_and_macros_in_entry_itself_are_flagged() {
        let findings = analyze(
            &[(
                "crates/metrics/src/distance.rs",
                "pub fn integrate_ecdf() { let mut v = Vec::new(); v.push(format!(\"x\")); }\n",
            )],
            &[("metrics/src/distance.rs", "integrate_ecdf", Tracked)],
        );
        let kinds: Vec<&str> = findings.iter().map(|f| f.kind.as_str()).collect();
        assert!(kinds.contains(&"Vec::new"));
        assert!(kinds.contains(&"format!"));
    }

    #[test]
    fn wrapper_shuffle_cannot_dodge_enforcement() {
        // The allocation sits two wrappers deep; the forward reach still
        // gets there, so the enforced verdict is unchanged.
        let findings = analyze(
            &[(
                "crates/metrics/src/distance.rs",
                "pub fn integrate_ecdf(x: &[f64]) { shim(x); }\n\
                 fn shim(x: &[f64]) { deep(x); }\n\
                 fn deep(x: &[f64]) { let _v = x.to_vec(); }\n",
            )],
            &[("metrics/src/distance.rs", "integrate_ecdf", AllocFree)],
        );
        assert_eq!(findings.len(), 1);
        assert!(findings[0].enforced);
        assert!(findings[0]
            .message
            .contains("integrate_ecdf -> shim -> deep"));
    }

    #[test]
    fn reach_over_a_call_cycle_terminates() {
        let findings = analyze(
            &[(
                "crates/metrics/src/lib.rs",
                "pub fn ping(n: usize) { pong(n); let _v = vec![n]; }\n\
                 pub fn pong(n: usize) { ping(n); }\n",
            )],
            &[("metrics/src/lib.rs", "pong", Tracked)],
        );
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].func, "ping");
        assert!(
            findings[0].message.contains("via pong -> ping"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn allocation_in_arena_clean_fn_is_enforced() {
        let findings = analyze(
            &[(
                "crates/cluster/src/sim.rs",
                "pub fn step(n: usize) -> usize { let v = vec![0u32; n]; v.len() }\n",
            )],
            &[("cluster/src/sim.rs", "step", ArenaClean)],
        );
        assert_eq!(findings.len(), 1, "{findings:#?}");
        let f = &findings[0];
        assert_eq!(f.code, "A008");
        assert_eq!(f.kind, "non-arena-alloc");
        assert!(f.enforced, "arena-clean findings are hard failures");
        assert!(f.message.contains("vec!"), "{}", f.message);
        assert!(f.message.contains("escape: local"), "{}", f.message);
    }

    #[test]
    fn clean_registered_fn_reports_nothing() {
        let findings = analyze(
            &[(
                "crates/cluster/src/sim.rs",
                "pub fn step(buf: &mut Vec<u32>, n: usize) { buf.clear(); buf.push(n as u32); }\n",
            )],
            &[("cluster/src/sim.rs", "step", ArenaClean)],
        );
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn arena_crate_allocations_are_sanctioned() {
        let findings = analyze(
            &[
                (
                    "crates/arena/src/lib.rs",
                    "pub fn take(n: usize) -> Vec<u32> { Vec::with_capacity(n) }\n",
                ),
                (
                    "crates/cluster/src/sim.rs",
                    "pub fn step(n: usize) -> usize { let v = anubis_arena::take(n); v.len() }\n",
                ),
            ],
            &[("cluster/src/sim.rs", "step", ArenaClean)],
        );
        assert!(
            findings.is_empty(),
            "pooled growth inside the arena is sanctioned: {findings:#?}"
        );
    }

    #[test]
    fn only_direct_sites_count_against_arena_clean() {
        // The callee allocates, but arena-clean enforcement is direct-site
        // only — transitive budgets belong to the hot-entry modes.
        let findings = analyze(
            &[(
                "crates/cluster/src/sim.rs",
                "pub fn step(x: &[u32]) -> usize { helper(x) }\n\
                 fn helper(x: &[u32]) -> usize { x.to_vec().len() }\n",
            )],
            &[("cluster/src/sim.rs", "step", ArenaClean)],
        );
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn closure_sites_inside_registered_fn_are_direct() {
        let findings = analyze(
            &[(
                "crates/cluster/src/sim.rs",
                "pub fn step(xs: &[u32]) -> usize { xs.iter().map(|x| vec![*x].len()).sum() }\n",
            )],
            &[("cluster/src/sim.rs", "step", ArenaClean)],
        );
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].func, "step");
    }
}
