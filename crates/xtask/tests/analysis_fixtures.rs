//! One fixture mini-crate per diagnostic code: each triggers exactly its
//! own findings, and the clean fixture triggers nothing. The fixtures
//! live under `tests/fixtures/analysis/<name>/` shaped like a real
//! workspace (`crates/<name>/src/…`), so crate gating behaves exactly as
//! it does on the real tree.

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
            ("crates/nn/src/lib.rs", 5, "converged", "float-eq"),
            ("crates/nn/src/nan.rs", 6, "sort", "partial-cmp-unwrap"),
            ("crates/nn/src/nan.rs", 11, "is_day", "float-eq"),
        ],
        "findings: {findings:#?}"
    );
    assert!(findings.iter().all(|f| f.code == "A002"));
}

#[test]
fn clean_fixture_reports_nothing() {
    let findings = analyze_fixture("clean");
    assert!(findings.is_empty(), "findings: {findings:#?}");
}
