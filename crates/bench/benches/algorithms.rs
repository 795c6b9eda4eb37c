//! Criterion benches for the hot algorithms: CDF similarity, criteria
//! clustering, greedy benchmark selection, Cox-Time prediction, the
//! network scan schedulers and the cluster simulator.

use anubis_benchsuite::{run_set, run_set_parallel, BenchmarkId};
use anubis_cluster::{simulate, ClusterSimConfig, Policy};
use anubis_metrics::{
    cdf_distance, one_sided_distance, pairwise_similarity_matrix_threads, Direction, Sample,
};
use anubis_netsim::{
    concurrent_pair_bandwidths, full_scan_rounds, quick_scan_rounds, FatTree, FatTreeConfig,
};
use anubis_selector::{
    select_benchmarks_celf, select_benchmarks_eager, CoverageTable, CoxTimeConfig, CoxTimeModel,
    CoxTimeTrainer, ExponentialModel, NodeStatus, SurvivalModel, SurvivalSample,
};
use anubis_traces::{
    generate_allocation_trace, generate_incident_trace, AllocationConfig, IncidentTraceConfig,
};
use anubis_validator::{calculate_criteria, CentroidMethod, CriteriaCache};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn series_sample(seed: u64, len: usize) -> Sample {
    let values: Vec<f64> = (0..len)
        .map(|i| 100.0 + (((i as u64 * 2654435761) ^ seed) % 1000) as f64 / 500.0)
        .collect();
    Sample::new(values).unwrap()
}

fn bench_distance(c: &mut Criterion) {
    let a = series_sample(1, 512);
    let b = series_sample(2, 512);
    c.bench_function("cdf_distance/512x512", |bencher| {
        bencher.iter(|| black_box(cdf_distance(black_box(&a), black_box(&b))));
    });
    c.bench_function("one_sided_distance/512x512", |bencher| {
        bencher.iter(|| {
            black_box(one_sided_distance(
                black_box(&a),
                black_box(&b),
                Direction::HigherIsBetter,
            ))
        });
    });
}

fn bench_criteria(c: &mut Criterion) {
    let samples: Vec<Sample> = (0..96).map(|i| series_sample(i, 128)).collect();
    c.bench_function("criteria/algorithm2/96nodes", |bencher| {
        bencher.iter(|| {
            black_box(
                calculate_criteria(black_box(&samples), 0.95, CentroidMethod::Medoid).unwrap(),
            )
        });
    });
    c.bench_function("criteria/distribution-mean/96nodes", |bencher| {
        bencher.iter(|| {
            black_box(
                calculate_criteria(black_box(&samples), 0.95, CentroidMethod::DistributionMean)
                    .unwrap(),
            )
        });
    });
    // Steady-state incremental path: 95 nodes already absorbed, bench the
    // cost of folding in the 96th and re-deriving the criteria. This is
    // the per-benchmark-run cost during continuous validation, vs the
    // full O(n²) recluster above.
    let mut warm = CriteriaCache::new(0.95, CentroidMethod::Medoid).unwrap();
    warm.extend(&samples[..95]);
    c.bench_function("criteria/incremental/96nodes", |bencher| {
        bencher.iter_batched(
            || warm.clone(),
            |mut cache| {
                cache.extend(black_box(&samples[95..]));
                black_box(cache.result().unwrap())
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_similarity_matrix(c: &mut Criterion) {
    let samples: Vec<Sample> = (0..64).map(|i| series_sample(i, 256)).collect();
    for threads in [1usize, 8] {
        c.bench_function(
            &format!("similarity-matrix/64x256/{threads}threads"),
            |bencher| {
                bencher.iter(|| {
                    black_box(pairwise_similarity_matrix_threads(
                        black_box(&samples),
                        threads,
                    ))
                });
            },
        );
    }
}

fn bench_selection(c: &mut Criterion) {
    let mut coverage = CoverageTable::new();
    for (i, bench) in BenchmarkId::ALL.iter().enumerate() {
        for d in 0..(5 + i as u64 * 3) {
            coverage.record(*bench, d * 7 % 211);
        }
    }
    let model = ExponentialModel { rate: 1.0 / 120.0 };
    let statuses = vec![NodeStatus::fresh(); 16];
    // The eager O(k·n) rescan — kept as the reference kernel so the
    // baseline keeps measuring the same algorithm it always did.
    c.bench_function("selection/algorithm1/31benchmarks", |bencher| {
        bencher.iter(|| {
            black_box(select_benchmarks_eager(
                &model,
                black_box(&statuses),
                36.0,
                &coverage,
                &BenchmarkId::ALL,
                0.05,
            ))
        });
    });
    // CELF lazy-greedy: byte-identical output, fewer marginal-gain
    // evaluations per round.
    c.bench_function("selection/celf/31benchmarks", |bencher| {
        bencher.iter(|| {
            black_box(select_benchmarks_celf(
                &model,
                black_box(&statuses),
                36.0,
                &coverage,
                &BenchmarkId::ALL,
                0.05,
            ))
        });
    });
}

fn bench_coxtime(c: &mut Criterion) {
    let trace = generate_incident_trace(&IncidentTraceConfig {
        nodes: 60,
        ..IncidentTraceConfig::default()
    });
    let samples: Vec<SurvivalSample> = trace.survival_samples(96.0);
    let model = CoxTimeModel::fit(
        &samples,
        &CoxTimeConfig {
            epochs: 4,
            hidden: vec![16, 16],
            baseline_buckets: 32,
            ..Default::default()
        },
    )
    .expect("incident trace contains events");
    // One full training epoch (forward + backward + optimizer) over the
    // trace, then the Breslow baseline: the whole sequential training path.
    let config = CoxTimeConfig {
        epochs: 1,
        hidden: vec![32, 32],
        baseline_buckets: 16,
        ..Default::default()
    };
    c.bench_function("coxtime/fit-epoch", |bencher| {
        bencher.iter(|| black_box(CoxTimeModel::fit(black_box(&samples), &config)));
    });
    // Warm-start refit: a trained trainer absorbs a small delta of new
    // intervals and runs one more epoch, vs re-fitting from scratch.
    let (base, delta) = samples.split_at(samples.len() - samples.len() / 16);
    let mut trainer = CoxTimeTrainer::new(CoxTimeConfig {
        epochs: 1,
        hidden: vec![16, 16],
        baseline_buckets: 32,
        ..Default::default()
    });
    trainer.ingest(base);
    trainer.train(2).expect("incident trace contains events");
    c.bench_function("coxtime/warmstart", |bencher| {
        bencher.iter_batched(
            || trainer.clone(),
            |mut t| black_box(t.refit(black_box(delta), 1).unwrap()),
            BatchSize::SmallInput,
        );
    });
    let status = samples[0].status;
    c.bench_function("coxtime/expected_tbni", |bencher| {
        bencher.iter(|| black_box(model.expected_tbni(black_box(&status))));
    });
    c.bench_function("coxtime/incident_probability", |bencher| {
        bencher.iter(|| black_box(model.incident_probability(black_box(&status), 36.0)));
    });
}

fn bench_network(c: &mut Criterion) {
    c.bench_function("scan/full/256nodes", |bencher| {
        bencher.iter(|| black_box(full_scan_rounds(black_box(256))));
    });
    let mut cfg = FatTreeConfig::figure3_testbed();
    cfg.nodes = 768;
    let tree = FatTree::build(cfg).unwrap();
    c.bench_function("scan/quick/768nodes", |bencher| {
        bencher.iter(|| black_box(quick_scan_rounds(black_box(&tree)).unwrap()));
    });
    let small = FatTree::build(FatTreeConfig::figure3_testbed()).unwrap();
    let pairs: Vec<(usize, usize)> = (0..12).map(|i| (i, i + 12)).collect();
    c.bench_function("congestion/24node-pairs", |bencher| {
        bencher.iter(|| black_box(concurrent_pair_bandwidths(&small, black_box(&pairs)).unwrap()));
    });
}

fn bench_executor(c: &mut Criterion) {
    use anubis_hwsim::{NodeId, NodeSim, NodeSpec};
    let set = [
        BenchmarkId::GpuGemmFp16,
        BenchmarkId::CpuLatency,
        BenchmarkId::IbHcaLoopback,
        BenchmarkId::GpuH2dBandwidth,
    ];
    let fleet = || -> Vec<NodeSim> {
        (0..16)
            .map(|i| NodeSim::new(NodeId(i), NodeSpec::a100_8x(), 3))
            .collect()
    };
    let members: Vec<usize> = (0..16).collect();
    c.bench_function("executor/sequential/16nodes-4benchmarks", |bencher| {
        bencher.iter_batched(
            fleet,
            |mut nodes| black_box(run_set(&set, &mut nodes, &members, None).unwrap()),
            BatchSize::SmallInput,
        );
    });
    c.bench_function("executor/parallel-8/16nodes-4benchmarks", |bencher| {
        bencher.iter_batched(
            fleet,
            |mut nodes| black_box(run_set_parallel(&set, &mut nodes, 8).unwrap()),
            BatchSize::SmallInput,
        );
    });
}

fn bench_json(c: &mut Criterion) {
    use anubis_metrics::json::to_json;
    let sample = series_sample(9, 1024);
    c.bench_function("json/serialize-1024-sample", |bencher| {
        bencher.iter(|| black_box(to_json(black_box(&sample)).unwrap()));
    });
}

fn bench_cluster_sim(c: &mut Criterion) {
    let config = ClusterSimConfig {
        nodes: 32,
        horizon_hours: 240.0,
        ..Default::default()
    };
    let trace = generate_allocation_trace(&AllocationConfig {
        duration_hours: 240.0,
        ..AllocationConfig::stressed(32)
    });
    c.bench_function("cluster-sim/absence/32nodes-10days", |bencher| {
        bencher.iter_batched(
            || (config.clone(), trace.clone()),
            |(cfg, t)| black_box(simulate(&cfg, &t, &Policy::Absence)),
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    benches,
    bench_distance,
    bench_criteria,
    bench_similarity_matrix,
    bench_selection,
    bench_coxtime,
    bench_network,
    bench_executor,
    bench_json,
    bench_cluster_sim
);
criterion_main!(benches);
