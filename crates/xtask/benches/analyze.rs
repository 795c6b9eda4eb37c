//! Local Criterion kernel for the analyzer itself: the passes run on
//! every CI push, so a change that blows up analysis time shows here. Run
//! with `cargo bench -p anubis-xtask`; no CI step reads the medians.

use anubis_xtask::model::Workspace;
use anubis_xtask::passes::{run_analysis, AnalysisConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::PathBuf;

fn bench_analyze(c: &mut Criterion) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::scan(&root).expect("scan workspace");
    let config = AnalysisConfig::default();
    // The full pass pipeline on the real tree: the call graph and both
    // passes. Scanning is excluded — it is I/O bound and measured
    // indirectly by every other CI step.
    c.bench_function("xtask/analyze-passes", |bencher| {
        bencher.iter(|| black_box(run_analysis(black_box(&ws), black_box(&config))));
    });
}

criterion_group!(benches, bench_analyze);
criterion_main!(benches);
