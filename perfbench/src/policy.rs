//! `policy-sim`: `fig8::run` with the Cox-Time Selector and the
//! random-subset ablation, the simulated cluster scaled to 2048 nodes.

use crate::spans::Spans;
use crate::{Layer, Rep, Workload};
use anubis_bench::fig8::{self, Fig8Config, Fig8Result};
use anubis_cluster::{simulate, ClusterSimConfig, Policy, PolicyKind};
use anubis_obs::wall::Stopwatch;
use anubis_traces::{generate_allocation_trace, AllocationConfig};

pub(crate) struct PolicySim {
    seed: u64,
}

impl PolicySim {
    pub(crate) fn new(seed: u64) -> Self {
        Self { seed }
    }

    fn config(&self) -> Fig8Config {
        Fig8Config {
            sim: ClusterSimConfig {
                nodes: 2048,
                seed: self.seed,
                ..ClusterSimConfig::default()
            },
            use_coxtime: true,
            include_ablation: true,
            ..Fig8Config::default()
        }
    }

    /// Set-up: the config, and the allocation trace the simulations
    /// replay, generated as `fig8::run` generates it, to count the jobs
    /// offered.
    fn setup(&self) -> (Fig8Config, usize, f64) {
        let sw = Stopwatch::start();
        let cfg = self.config();
        let offered = generate_allocation_trace(&AllocationConfig::stressed(cfg.sim.nodes)).len();
        (cfg, offered, sw.elapsed_secs())
    }
}

const POLICIES: [PolicyKind; 5] = [
    PolicyKind::Absence,
    PolicyKind::FullSet,
    PolicyKind::Selector,
    PolicyKind::Ideal,
    PolicyKind::RandomSubset,
];

/// The span a policy's simulation is recorded under, and its metric.
fn names(kind: PolicyKind) -> (&'static str, &'static str) {
    match kind {
        PolicyKind::Absence => ("cluster.simulate.absence", "cluster.simulate_ms.absence"),
        PolicyKind::FullSet => ("cluster.simulate.full_set", "cluster.simulate_ms.full_set"),
        PolicyKind::Selector => ("cluster.simulate.selector", "cluster.simulate_ms.selector"),
        PolicyKind::Ideal => ("cluster.simulate.ideal", "cluster.simulate_ms.ideal"),
        PolicyKind::RandomSubset => (
            "cluster.simulate.random_subset",
            "cluster.simulate_ms.random_subset",
        ),
    }
}

fn finish(result: &Fig8Result, setup_s: f64, wall_s: f64) -> Rep {
    let util = |kind| result.outcome(kind).map_or(f64::NAN, |o| o.avg_utilization);
    let (ideal, selector, full, absence) = (
        util(PolicyKind::Ideal),
        util(PolicyKind::Selector),
        util(PolicyKind::FullSet),
        util(PolicyKind::Absence),
    );
    let cut = result.validation_reduction_vs_full_set();
    let gain = result.mtbi_gain_over_absence();
    let check = if !(ideal >= selector && selector > full && full > absence) {
        Err(format!(
            "utilization order broken: ideal {ideal}, selector {selector}, full set {full}, absence {absence}"
        ))
    } else if cut.is_nan() || cut < 0.85 {
        Err(format!("validation-cost cut {cut} < 0.85"))
    } else if gain.is_nan() || gain <= 5.0 {
        Err(format!("MTBI gain {gain} <= 5"))
    } else {
        Ok(())
    };
    Rep {
        setup_s,
        wall_s,
        fingerprint: format!("{result}{:?}\n", result.outcomes),
        check,
        work: None,
        quality: vec![("mtbi_gain", gain)],
        tick_ms: Vec::new(),
    }
}

impl Workload for PolicySim {
    fn run(&self) -> Rep {
        let (cfg, _, setup_s) = self.setup();
        let sw = Stopwatch::start();
        let result = fig8::run(&cfg);
        let wall_s = sw.elapsed_secs();
        finish(&result, setup_s, wall_s)
    }

    fn traced(&self, spans: &mut Spans) -> (Rep, Vec<Layer>) {
        let (cfg, offered, setup_s) = self.setup();
        let mut replayed = 0;
        let result = spans.time("bench.entry", |s| {
            let trace = s.time("traces.allocation_trace", |_| {
                generate_allocation_trace(&AllocationConfig::stressed(cfg.sim.nodes))
            });
            replayed = trace.len();
            let selector = s.time("selector.fit", |_| fig8::build_selector(&cfg));
            let coverage = fig8::table6_coverage_history();
            let mut policies = vec![
                Policy::Absence,
                Policy::FullSet,
                Policy::Selector(&selector),
                Policy::Ideal,
            ];
            if cfg.include_ablation {
                policies.push(Policy::RandomSubset {
                    coverage: &coverage,
                    count: 4,
                });
            }
            // The same fan-out as fig8::run; each worker times its own
            // policy on the shared clock.
            let clock = s.clock();
            let outcomes = s.time("cluster.simulate", |s| {
                let timed = anubis_parallel::map_items(&policies, 0, |policy| {
                    let start = clock.elapsed_secs();
                    let outcome = simulate(&cfg.sim, &trace, policy);
                    (outcome, start, clock.elapsed_secs())
                });
                timed
                    .into_iter()
                    .map(|(outcome, start, end)| {
                        s.record(names(outcome.policy).0, start, end);
                        outcome
                    })
                    .collect()
            });
            Fig8Result { outcomes }
        });
        let wall_s = spans.secs_of("bench.entry")[0];
        let mut rep = finish(&result, setup_s, wall_s);
        if rep.check.is_ok() && replayed != offered {
            rep.check = Err(format!(
                "replayed {replayed} jobs, set-up counted {offered}"
            ));
        }
        let mut layer = vec![("selector.fit_ms", spans.secs_of("selector.fit")[0] * 1e3)];
        for kind in POLICIES {
            let (span, metric) = names(kind);
            let secs: f64 = spans.secs_of(span).iter().sum();
            layer.push((metric, secs * 1e3));
        }
        let sum = |f: fn(&anubis_cluster::SimOutcome) -> u64| {
            result.outcomes.iter().map(f).sum::<u64>() as f64
        };
        layer.push(("cluster.jobs_offered", offered as f64));
        layer.push(("cluster.jobs_completed", sum(|o| o.jobs_completed)));
        layer.push(("cluster.jobs_interrupted", sum(|o| o.jobs_interrupted)));
        (rep, layer)
    }
}
