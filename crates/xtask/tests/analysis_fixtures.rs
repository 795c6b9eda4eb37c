//! One fixture mini-crate per diagnostic code, and one per A008 mode:
//! each triggers exactly its own finding, and the clean fixture triggers
//! nothing. The fixtures live under `tests/fixtures/analysis/<name>/`
//! shaped like a real workspace (`crates/<name>/src/…`), so crate gating
//! and the allocation-entry registry behave exactly as they do on the
//! real tree.

use anubis_xtask::model::Workspace;
use anubis_xtask::passes::{run_analysis, AnalysisConfig, Finding};
use std::path::PathBuf;

fn analyze_fixture(name: &str) -> Vec<Finding> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/analysis")
        .join(name);
    let ws = Workspace::scan(&root).expect("scan fixture");
    run_analysis(&ws, &AnalysisConfig::default())
}

#[test]
fn a001_fixture_reports_panic_reachability_with_call_path() {
    let findings = analyze_fixture("a001");
    assert_eq!(findings.len(), 1, "findings: {findings:#?}");
    let f = &findings[0];
    assert_eq!(f.code, "A001");
    assert_eq!(f.path, "crates/validator/src/lib.rs");
    assert_eq!(f.func, "entry");
    assert!(
        f.message.contains("entry -> helper"),
        "call path missing: {}",
        f.message
    );
    assert!(
        f.message.contains("`.unwrap()`"),
        "panic source missing: {}",
        f.message
    );
}

#[test]
fn a002_fixture_reports_float_equality_and_partial_cmp_unwrap() {
    let findings = analyze_fixture("a002");
    let keyed: Vec<(&str, usize, &str, &str)> = findings
        .iter()
        .map(|f| (f.path.as_str(), f.line, f.func.as_str(), f.kind.as_str()))
        .collect();
    assert_eq!(
        keyed,
        vec![
            ("crates/metrics/src/lib.rs", 5, "converged", "float-eq"),
            ("crates/metrics/src/nan.rs", 6, "sort", "partial-cmp-unwrap"),
            ("crates/metrics/src/nan.rs", 11, "is_day", "float-eq"),
        ],
        "findings: {findings:#?}"
    );
    assert!(findings.iter().all(|f| f.code == "A002"));
}

#[test]
fn a008_tracked_fixture_reports_hot_path_allocation_with_call_path() {
    let findings = analyze_fixture("a008-tracked");
    assert_eq!(findings.len(), 1, "findings: {findings:#?}");
    let f = &findings[0];
    assert_eq!(f.code, "A008");
    assert_eq!(f.path, "crates/selector/src/coxtime.rs");
    assert_eq!(f.func, "accumulate");
    assert_eq!(f.kind, "Vec::new");
    assert!(!f.enforced, "tracked findings go to the baseline");
    // The buffer never escapes `accumulate`: an arena-able site.
    for part in ["fit -> accumulate", "escape: local"] {
        assert!(f.message.contains(part), "{part} missing: {}", f.message);
    }
}

#[test]
fn a008_alloc_free_fixture_enforces_allocation_below_the_kernel() {
    let findings = analyze_fixture("a008-alloc-free");
    assert_eq!(findings.len(), 1, "findings: {findings:#?}");
    let f = &findings[0];
    assert_eq!(f.code, "A008");
    assert_eq!(f.path, "crates/metrics/src/distance.rs");
    assert_eq!(f.func, "total");
    assert_eq!(f.kind, "to_vec");
    assert!(f.enforced, "alloc-free reach findings are hard failures");
    assert!(
        f.message.contains("integrate_ecdf -> total"),
        "call path missing: {}",
        f.message
    );
}

#[test]
fn a008_arena_clean_fixture_reports_direct_allocation() {
    let findings = analyze_fixture("a008-arena-clean");
    assert_eq!(findings.len(), 1, "findings: {findings:#?}");
    let f = &findings[0];
    assert_eq!(f.code, "A008");
    assert_eq!(f.path, "crates/cluster/src/sim.rs");
    assert_eq!(f.func, "try_allocate");
    assert_eq!(f.kind, "non-arena-alloc");
    assert!(f.enforced, "arena-clean violations are hard failures");
    assert!(
        f.message.contains("escape: local"),
        "escape class missing: {}",
        f.message
    );
}

#[test]
fn clean_fixture_reports_nothing() {
    let findings = analyze_fixture("clean");
    assert!(findings.is_empty(), "findings: {findings:#?}");
}
