//! `fleetd-soak`: the 100k-node continuous-validation service soak,
//! `Coordinator::new` then `Coordinator::step` once per tick.

use crate::spans::{mean, median, Spans};
use crate::{Layer, Rep, Workload};
use anubis_fleetd::{Coordinator, FleetdConfig, TickContext, TickSummary};
use anubis_metrics::EcdfSketch;
use anubis_obs::wall::Stopwatch;

/// A traced run times a probe of the shard phase every this many ticks.
const PROBE_EVERY: u32 = 50;

pub(crate) struct Soak {
    cfg: FleetdConfig,
}

impl Soak {
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            cfg: FleetdConfig {
                nodes: 100_000,
                shards: 16,
                ticks: 500,
                seed,
                ..FleetdConfig::default()
            },
        }
    }

    fn setup(&self) -> (Coordinator, f64) {
        let sw = Stopwatch::start();
        let coord = Coordinator::new(self.cfg.clone());
        (coord, sw.elapsed_secs())
    }
}

/// Exact work counters summed from every `TickSummary`.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Counts {
    node_ticks: u64,
    incidents: u64,
    samples: u64,
    proposals: u64,
    validations: u64,
    defects_confirmed: u64,
    incident_quarantines: u64,
    jobs_started: u64,
    jobs_killed: u64,
    jobs_dropped: u64,
}

impl Counts {
    fn add(&mut self, t: &TickSummary) {
        let c = &t.counts;
        let census = c.healthy + c.busy + c.suspect + c.validating + c.quarantined + c.repaired;
        self.node_ticks += census as u64;
        self.incidents += t.incidents as u64;
        self.samples += t.samples as u64;
        self.proposals += t.proposals as u64;
        self.validations += u64::from(t.validations_started);
        self.defects_confirmed += t.defects_confirmed as u64;
        self.incident_quarantines += t.incident_quarantines as u64;
        self.jobs_started += t.jobs_started as u64;
        self.jobs_killed += t.jobs_killed as u64;
        self.jobs_dropped += t.jobs_dropped as u64;
    }

    fn layer(&self) -> Vec<Layer> {
        vec![
            ("fleetd.node_ticks", self.node_ticks as f64),
            ("fleetd.incidents", self.incidents as f64),
            ("fleetd.samples", self.samples as f64),
            ("fleetd.proposals", self.proposals as f64),
            ("fleetd.validations", self.validations as f64),
            ("fleetd.defects_confirmed", self.defects_confirmed as f64),
            (
                "fleetd.incident_quarantines",
                self.incident_quarantines as f64,
            ),
            ("fleetd.jobs_started", self.jobs_started as f64),
            ("fleetd.jobs_killed", self.jobs_killed as f64),
            ("fleetd.jobs_dropped", self.jobs_dropped as f64),
            (
                "fleetd.validation_yield",
                ratio(self.defects_confirmed, self.validations),
            ),
        ]
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Checks the run and packs it into a [`Rep`].
fn finish(
    coord: &Coordinator,
    counts: Counts,
    setup_s: f64,
    wall_s: f64,
    tick_ms: Vec<f64>,
) -> Rep {
    let totals = coord.totals();
    let c = &totals.final_counts;
    let census = c.healthy + c.busy + c.suspect + c.validating + c.quarantined + c.repaired;
    let nodes = u64::from(coord.config().nodes);
    let ticks = u64::from(coord.config().ticks);
    let check = if census as u64 != nodes {
        Err(format!("final census {census} != {nodes} nodes"))
    } else if counts.node_ticks != nodes * ticks {
        Err(format!(
            "{} node-ticks != {nodes} x {ticks}",
            counts.node_ticks
        ))
    } else if (
        counts.validations,
        counts.defects_confirmed,
        counts.jobs_killed,
    ) != (
        totals.validations,
        totals.defects_confirmed,
        totals.jobs_killed,
    ) {
        Err("tick summaries disagree with the run totals".to_string())
    } else {
        Ok(())
    };
    let quarantines = counts.defects_confirmed + counts.incident_quarantines;
    Rep {
        setup_s,
        wall_s,
        fingerprint: format!("{}{counts:?}\n", totals.render()),
        check,
        work: Some(("node_ticks_per_s", counts.node_ticks as f64)),
        quality: vec![
            (
                "validation_catch_frac",
                ratio(counts.defects_confirmed, quarantines),
            ),
            (
                "job_kill_frac",
                ratio(counts.jobs_killed, counts.jobs_started),
            ),
        ],
        tick_ms,
    }
}

impl Workload for Soak {
    fn run(&self) -> Rep {
        let (mut coord, setup_s) = self.setup();
        let mut counts = Counts::default();
        let mut tick_ms = Vec::with_capacity(self.cfg.ticks as usize);
        let run = Stopwatch::start();
        for _ in 0..self.cfg.ticks {
            let sw = Stopwatch::start();
            let summary = coord.step();
            tick_ms.push(sw.elapsed_secs() * 1e3);
            counts.add(&summary);
        }
        let wall_s = run.elapsed_secs();
        finish(&coord, counts, setup_s, wall_s, tick_ms)
    }

    fn traced(&self, spans: &mut Spans) -> (Rep, Vec<Layer>) {
        let (mut coord, setup_s) = self.setup();
        let cfg = self.cfg.clone();
        let mut counts = Counts::default();
        spans.time("bench.entry", |s| {
            for tick in 0..cfg.ticks {
                if tick % PROBE_EVERY == PROBE_EVERY - 1 {
                    probe_shard_tick(&coord, s);
                }
                let refresh = (tick + 1).is_multiple_of(cfg.merge_every_ticks.max(1));
                let name = if refresh {
                    "fleetd.step.refresh"
                } else {
                    "fleetd.step.plain"
                };
                let summary = s.time(name, |_| coord.step());
                counts.add(&summary);
            }
        });
        let wall_s = spans.secs_of("bench.entry")[0];

        // The criteria refresh the coordinator runs, timed on the final
        // shard sketches (median of three).
        let mut merged = (0, f64::NAN);
        for _ in 0..3 {
            merged = spans.time("probe.metrics.sketch_merge", |_| {
                let sketch = EcdfSketch::merged(coord.shards().iter().map(|w| w.sketch()));
                (sketch.len(), sketch.quantile(cfg.defect_quantile))
            });
        }
        let (merged_len, quantile) = merged;
        let merge_ms = median(&spans.secs_of("probe.metrics.sketch_merge")) * 1e3;
        let sketch_len: usize = coord.shards().iter().map(|w| w.sketch().len()).sum();

        let mut rep = finish(&coord, counts, setup_s, wall_s, Vec::new());
        let refreshed_last = cfg.ticks.is_multiple_of(cfg.merge_every_ticks.max(1));
        if rep.check.is_ok() && merged_len != sketch_len {
            rep.check = Err(format!(
                "merged sketch holds {merged_len} of {sketch_len} scores"
            ));
        } else if rep.check.is_ok()
            && refreshed_last
            && merged_len >= cfg.min_criteria_samples
            && coord.criteria_threshold() != Some(quantile)
        {
            rep.check = Err("re-merged criteria differ from the coordinator's".to_string());
        }

        let mut layer = vec![
            (
                "fleetd.step_ms.plain",
                mean(&spans.secs_of("fleetd.step.plain")) * 1e3,
            ),
            (
                "fleetd.step_ms.refresh",
                mean(&spans.secs_of("fleetd.step.refresh")) * 1e3,
            ),
            (
                "fleetd.shard_tick_ms",
                mean(&spans.secs_of("probe.fleetd.shard_tick")) * 1e3,
            ),
            ("metrics.sketch_merge_ms", merge_ms),
            ("metrics.sketch_len", sketch_len as f64),
        ];
        layer.extend(counts.layer());
        (rep, layer)
    }
}

/// Times `ShardWorker::tick` on clones of every shard against the live
/// lifecycle snapshot, one shard after another, leaving the service
/// itself untouched. The snapshot predates the tick's repairs and
/// placements, so this estimates the shard phase's work.
fn probe_shard_tick(coord: &Coordinator, spans: &mut Spans) {
    let cfg = coord.config();
    let tick = coord.tick_index();
    let ctx = TickContext {
        tick,
        t0: f64::from(tick) * cfg.tick_hours,
        t1: f64::from(tick + 1) * cfg.tick_hours,
        horizon_hours: cfg.horizon_hours,
        risk_threshold: cfg.risk_threshold,
        criteria_threshold: coord.criteria_threshold(),
        cooldown_ticks: cfg.cooldown_ticks,
    };
    let mut clones = spans.time("probe.fleetd.shard_clone", |_| coord.shards().to_vec());
    let states = coord.table().states();
    spans.time("probe.fleetd.shard_tick", |_| {
        for worker in &mut clones {
            worker.tick(&ctx, states, &[]);
        }
    });
}
