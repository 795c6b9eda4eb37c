//! Byte-determinism of `anubis-obs` traces, and the exact work counters
//! they carry. An instrumented scenario must serialize to the exact same
//! JSONL bytes on repeated runs and at any worker-thread count, and its
//! counter totals must equal the committed `tests/work_counters.expected`.
//! The whole check lives in a single `#[test]` (its own binary) so the
//! `ANUBIS_THREADS` mutations can never race another test.
//!
//! The thread-count half pins the executor contract: recording is only
//! enabled on the coordinating thread and `anubis_parallel::execute`
//! suppresses it on the inline single-worker path, so work dispatched
//! through the executor is invisible to the trace no matter where it ran.
//!
//! The counter half is a performance check that host load cannot move:
//! node-ticks, sketch elements merged, Cox-Time sample-epochs and CELF
//! marginal evaluations count units of work, so an algorithmic
//! regression (a doubled training loop, a criteria refresh every tick, a
//! lazy-greedy bound that no longer prunes) changes a total. On a
//! mismatch the test prints a per-counter diff and writes the actual
//! totals under `CARGO_TARGET_TMPDIR`; re-baselining means copying that
//! file over the expected one and saying why in CHANGES.md.

mod common;

use anubis_benchsuite::{run_set_parallel, BenchmarkId};
use anubis_cluster::{simulate, ClusterSimConfig, Policy};
use anubis_fleetd::{Coordinator, FleetdConfig};
use anubis_hwsim::{NodeId, NodeSim, NodeSpec};
use anubis_selector::{
    select_benchmarks_celf, CoverageTable, CoxTimeConfig, CoxTimeModel, ExponentialModel,
    NodeStatus,
};
use anubis_traces::{
    generate_allocation_trace, generate_incident_trace, AllocationConfig, IncidentTraceConfig,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The committed counter totals of [`traced_scenario`].
const EXPECTED: &str = include_str!("work_counters.expected");

/// Runs an instrumented scenario on this thread and returns the drained
/// trace: a serial cluster simulation, a benchmark fan-out, a small
/// fleetd run, a Cox-Time fit and a CELF selection. Parts of it fan out
/// through the deterministic executor (worker count from
/// `ANUBIS_THREADS`).
fn traced_scenario() -> anubis_obs::Trace {
    anubis_obs::enable_with_capacity(1 << 16);

    let config = ClusterSimConfig {
        nodes: 32,
        horizon_hours: 240.0,
        ..Default::default()
    };
    let jobs = generate_allocation_trace(&AllocationConfig {
        duration_hours: 240.0,
        ..AllocationConfig::stressed(32)
    });
    let outcome = simulate(&config, &jobs, &Policy::FullSet);
    assert!(outcome.jobs_completed > 0);

    let mut nodes: Vec<NodeSim> = (0..8)
        .map(|i| NodeSim::new(NodeId(i), NodeSpec::a100_8x(), 33))
        .collect();
    let set = [BenchmarkId::GpuGemmFp16, BenchmarkId::CpuLatency];
    run_set_parallel(&set, &mut nodes, 0).expect("benchmark fan-out");

    let mut fleet = Coordinator::new(FleetdConfig {
        nodes: 256,
        shards: 4,
        ticks: 30,
        // Below a fresh node's 24-hour risk: every node turns suspect,
        // so validations fill the per-tick cap and feed the sketches.
        risk_threshold: 0.1,
        ..FleetdConfig::default()
    });
    let fleet_totals = fleet.run(30, |_| {});
    assert!(fleet_totals.validations > 0);

    let samples = generate_incident_trace(&IncidentTraceConfig {
        nodes: 60,
        ..IncidentTraceConfig::default()
    })
    .survival_samples(96.0);
    CoxTimeModel::fit(
        &samples,
        &CoxTimeConfig {
            epochs: 3,
            hidden: vec![8],
            baseline_buckets: 16,
            ..CoxTimeConfig::default()
        },
    )
    .expect("incident trace contains events");

    let mut coverage = CoverageTable::new();
    for (b, &bench) in BenchmarkId::ALL.iter().enumerate() {
        for defect in 0..120u64 {
            if (defect * 7 + b as u64 * 13) % 31 < 5 + b as u64 % 4 {
                coverage.record(bench, defect);
            }
        }
    }
    let model = ExponentialModel { rate: 1.0 / 100.0 };
    let statuses = vec![NodeStatus::fresh(); 8];
    let picks = select_benchmarks_celf(&model, &statuses, 36.0, &coverage, &BenchmarkId::ALL, 0.01);
    assert!(picks.len() > 1);

    let trace = anubis_obs::drain();
    anubis_obs::disable();
    trace
}

/// The expected-file body for `trace`: a header comment, then one
/// `name total` line per counter (summed over emitting modules) in name
/// order.
fn render_totals(trace: &anubis_obs::Trace) -> String {
    let mut totals = BTreeMap::new();
    for counter in &trace.counters {
        *totals.entry(counter.name).or_insert(0) += counter.total;
    }
    let mut out = String::from(
        "# Work-counter totals of `traced_scenario` in tests/obs_trace_determinism.rs:\n\
         # one `name total` line per counter, debug-only counters excluded.\n",
    );
    for (name, total) in totals {
        let _ = writeln!(out, "{name} {total}");
    }
    out
}

#[test]
fn traces_are_byte_identical_across_runs_and_thread_counts() {
    std::env::set_var("ANUBIS_THREADS", "1");
    let first_trace = traced_scenario();
    let second = traced_scenario().to_jsonl();
    std::env::set_var("ANUBIS_THREADS", "4");
    let four_workers = traced_scenario().to_jsonl();
    std::env::remove_var("ANUBIS_THREADS");
    let first = first_trace.to_jsonl();

    assert_eq!(
        first, second,
        "repeated runs must produce identical trace bytes"
    );
    assert_eq!(
        first, four_workers,
        "ANUBIS_THREADS=1 and =4 must produce identical trace bytes"
    );

    // Sanity: the trace is substantial and carries the expected spans.
    assert!(first.lines().count() > 10, "trace too small:\n{first}");
    assert!(first.contains("\"name\":\"cluster.simulate\""));
    assert!(first.contains("\"name\":\"runner.run_set_parallel\""));
    assert!(first.contains("\"counter\":\"sim.jobs_completed\""));
    assert!(
        !first.contains("\"name\":\"GPU GEMM FP16\""),
        "per-node benchmark spans must be suppressed under the executor"
    );

    // Exact work counters: the equal bytes above make one run's totals
    // stand for all three.
    let actual = render_totals(&first_trace);
    common::assert_matches_expected("work_counters", "work counters", EXPECTED, &actual);
}
