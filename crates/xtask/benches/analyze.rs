//! Local Criterion kernels for the analyzer itself: the interprocedural
//! fixpoint engine runs on every CI push, so a summary-propagation change
//! that blows up analysis time shows here. Run with
//! `cargo bench -p anubis-xtask`; no CI step reads the medians.

use anubis_xtask::model::Workspace;
use anubis_xtask::passes::{arena_able_report, run_analysis, AnalysisConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::PathBuf;

fn bench_analyze(c: &mut Criterion) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::scan(&root).expect("scan workspace");
    let config = AnalysisConfig::default();
    // The full pass pipeline on the real tree: call graph, effect
    // summaries, all eight passes. Scanning is excluded — it is I/O
    // bound and measured indirectly by every other CI step.
    c.bench_function("xtask/analyze-passes", |bencher| {
        bencher.iter(|| black_box(run_analysis(black_box(&ws), black_box(&config))));
    });
    // The A008 escape computation in isolation: call graph, summaries
    // (every allocation site classified through the token-level escape
    // lattice) and the arena-able inventory over the hot-entry reach.
    // Statement discovery walks tokens per site, so a lattice regression
    // shows up here before it drags the full pipeline.
    c.bench_function("xtask/escape-analysis", |bencher| {
        bencher.iter(|| black_box(arena_able_report(black_box(&ws), black_box(&config))));
    });
}

criterion_group!(benches, bench_analyze);
criterion_main!(benches);
