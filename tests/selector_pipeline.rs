//! Cross-crate integration: trace → survival model → Selector decisions.

use anubis::selector::{
    CoverageTable, CoxTimeConfig, CoxTimeModel, ExponentialModel, NodeStatus, Selector,
    SelectorConfig, SurvivalModel,
};
use anubis::traces::{generate_incident_trace, IncidentTraceConfig};
use anubis_benchsuite::BenchmarkId;
use anubis_hwsim::fault::IncidentCategory;

fn trace_samples() -> Vec<anubis::selector::SurvivalSample> {
    let trace = generate_incident_trace(&IncidentTraceConfig {
        nodes: 250,
        ..IncidentTraceConfig::default()
    });
    trace.survival_samples(96.0)
}

fn worn_status() -> NodeStatus {
    let mut s = NodeStatus::fresh();
    s.advance(500.0);
    for _ in 0..8 {
        s.record_incident(IncidentCategory::GpuCompute);
    }
    s
}

#[test]
fn coxtime_fitted_on_trace_ranks_worn_nodes_riskier() {
    let samples = trace_samples();
    let model = CoxTimeModel::fit(
        &samples,
        &CoxTimeConfig {
            epochs: 25,
            hidden: vec![24, 24],
            baseline_buckets: 48,
            ..Default::default()
        },
    )
    .expect("incident trace contains events");
    let mut fresh = NodeStatus::fresh();
    fresh.advance(500.0);
    let p_fresh = model.incident_probability(&fresh, 48.0);
    let p_worn = model.incident_probability(&worn_status(), 48.0);
    assert!(
        p_worn > p_fresh,
        "worn node must look riskier: {p_worn} vs {p_fresh}"
    );
}

#[test]
fn selector_trades_time_for_coverage() {
    let mut coverage = CoverageTable::new();
    for d in 0..50u64 {
        coverage.record(BenchmarkId::IbHcaLoopback, d);
    }
    for d in 40..70u64 {
        coverage.record(BenchmarkId::GpuH2dBandwidth, d);
    }
    for d in 70..100u64 {
        coverage.record(BenchmarkId::GpuStress, d);
    }
    let model = ExponentialModel { rate: 1.0 / 100.0 };
    let selector = Selector::new(Box::new(model), coverage, SelectorConfig { p0: 0.1 });

    let statuses = vec![NodeStatus::fresh(); 8];
    let subset = selector.select(&statuses, 36.0);
    assert!(!subset.is_empty(), "high-risk set must be validated");
    let subset_minutes = BenchmarkId::total_runtime_minutes(&subset);
    let full_minutes = BenchmarkId::total_runtime_minutes(&BenchmarkId::ALL);
    assert!(
        subset_minutes < full_minutes / 3.0,
        "selection saves most of the validation time: {subset_minutes} vs {full_minutes}"
    );
    // The greedy picks the best probability-drop-per-minute first: one of
    // the cheap micro-benchmarks, never the slow stress test.
    assert!(
        [BenchmarkId::IbHcaLoopback, BenchmarkId::GpuH2dBandwidth].contains(&subset[0]),
        "first pick {:?}",
        subset[0]
    );
}

#[test]
fn residual_probability_decreases_monotonically_during_selection() {
    let mut coverage = CoverageTable::new();
    for (i, bench) in BenchmarkId::ALL.iter().enumerate() {
        for d in 0..=(i as u64 % 7) {
            coverage.record(*bench, d + (i as u64) * 3);
        }
    }
    let model = ExponentialModel { rate: 1.0 / 50.0 };
    let statuses = vec![NodeStatus::fresh(); 4];
    let mut last =
        anubis::selector::select::residual_probability(&model, &statuses, 24.0, &coverage, &[]);
    let subset = anubis::selector::select_benchmarks(
        &model,
        &statuses,
        24.0,
        &coverage,
        &BenchmarkId::ALL,
        0.0,
    );
    let mut chosen = Vec::new();
    for bench in subset {
        chosen.push(bench);
        let p = anubis::selector::select::residual_probability(
            &model, &statuses, 24.0, &coverage, &chosen,
        );
        assert!(p <= last + 1e-12, "residual probability must not increase");
        last = p;
    }
}

#[test]
fn skip_threshold_scales_with_node_count() {
    let model = ExponentialModel { rate: 1.0 / 2000.0 };
    let selector = Selector::new(
        Box::new(model),
        CoverageTable::new(),
        SelectorConfig { p0: 0.05 },
    );
    // One low-risk node: skip. Forty of them jointly exceed p0.
    assert!(!selector.should_validate(&[NodeStatus::fresh(); 1], 24.0));
    assert!(selector.should_validate(&vec![NodeStatus::fresh(); 40], 100.0));
}
