//! One fixture mini-crate per diagnostic code: each triggers exactly its
//! own code, and the clean fixture triggers nothing. The fixtures live
//! under `tests/fixtures/analysis/<code>/` shaped like a real workspace
//! (`crates/<name>/src/…`), so crate gating and the hot-entry registry
//! behave exactly as they do on the real tree.

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
fn a003_fixture_reports_hot_path_allocation_with_call_path() {
    let findings = analyze_fixture("a003");
    assert_eq!(findings.len(), 1, "findings: {findings:#?}");
    let f = &findings[0];
    assert_eq!(f.code, "A003");
    assert_eq!(f.path, "crates/selector/src/coxtime.rs");
    assert_eq!(f.func, "accumulate");
    assert_eq!(f.kind, "Vec::new");
    assert!(
        f.message.contains("fit -> accumulate"),
        "call path from hot entry missing: {}",
        f.message
    );
}

#[test]
fn a008_fixture_reports_direct_allocation_in_arena_clean_fn() {
    let findings = analyze_fixture("a008");
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
fn a003_fixture_site_is_inventoried_as_arena_able() {
    // The a003 fixture's hot-path buffer never escapes `accumulate`, so
    // the informational arena-able inventory proposes it for conversion,
    // with the call path from the hot entry.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/analysis/a003");
    let ws = Workspace::scan(&root).expect("scan fixture");
    let report = anubis_xtask::passes::arena_able_report(&ws, &AnalysisConfig::default());
    assert_eq!(report.len(), 1, "report: {report:#?}");
    let site = &report[0];
    assert_eq!(site.path, "crates/selector/src/coxtime.rs");
    assert_eq!(site.func, "accumulate");
    assert_eq!(site.kind, "Vec::new");
    assert!(
        site.via.contains("fit -> accumulate"),
        "call path missing: {}",
        site.via
    );
}

#[test]
fn clean_fixture_reports_nothing() {
    let findings = analyze_fixture("clean");
    assert!(findings.is_empty(), "findings: {findings:#?}");
}
