//! `coxtime-fit`: `table3::run` at its quick preset. The traced run
//! replays table3's stages through the public API, one span per layer
//! call, and must reproduce `table3::run`'s result exactly.

use crate::spans::{mean, Spans};
use crate::{Layer, Rep, Workload};
use anubis_bench::table3::{self, Table3Config, Table3Result};
use anubis_obs::wall::Stopwatch;
use anubis_selector::{
    concordance_index, model_accuracy, CoxTimeTrainer, ExponentialModel, ExponentialPerCountModel,
    ExponentialPerHourModel, SurvivalModel, SurvivalSample,
};
use anubis_traces::{generate_incident_trace, IncidentTraceConfig};

const COXTIME: &str = "Cox-Time Model";

/// Above any seed's training split at the quick preset's 150 nodes.
const TRAINING_CAP: usize = 8_000;

pub(crate) struct CoxFit {
    seed: u64,
}

impl CoxFit {
    pub(crate) fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The quick preset with its 4,000-sample training cap lifted: the
    /// 80% split holds 3,960-4,120 samples depending on the seed, and the
    /// cap would halve it on about half the seeds, doubling or halving
    /// `wall_s` with the seed alone.
    fn config(&self) -> Table3Config {
        Table3Config {
            seed: self.seed,
            max_training_samples: TRAINING_CAP,
            ..Table3Config::quick()
        }
    }

    /// Set-up: the config, and the seed's survival samples generated as
    /// `table3::run` generates them, so the run's work can be counted.
    fn setup(&self) -> (Table3Config, usize, f64) {
        let sw = Stopwatch::start();
        let cfg = self.config();
        let trace = generate_incident_trace(&trace_config(&cfg));
        let samples = trace.survival_samples(cfg.grid_hours).len();
        (cfg, samples, sw.elapsed_secs())
    }
}

fn trace_config(cfg: &Table3Config) -> IncidentTraceConfig {
    IncidentTraceConfig {
        nodes: cfg.nodes,
        seed: cfg.seed,
        ..IncidentTraceConfig::default()
    }
}

/// Cox-Time training samples table3 derives from `total` extracted
/// samples: the 80% split (every fifth sample is held out), strided down
/// to the preset's cap.
fn training_samples(cfg: &Table3Config, total: usize) -> usize {
    let train = total - total / 5;
    if train > cfg.max_training_samples {
        train.div_ceil(train.div_ceil(cfg.max_training_samples))
    } else {
        train
    }
}

fn finish(
    cfg: &Table3Config,
    samples: usize,
    result: &Table3Result,
    setup_s: f64,
    wall_s: f64,
) -> Rep {
    let cox = result.accuracy_of(COXTIME).unwrap_or(f64::NAN);
    let cox_c = result.concordance_of(COXTIME).unwrap_or(f64::NAN);
    let beaten = result
        .accuracies
        .iter()
        .find(|(name, acc, _)| *name != COXTIME && *acc >= cox);
    let check = match beaten {
        _ if result.total_samples != samples => Err(format!(
            "{} samples extracted, the seed's trace holds {samples}",
            result.total_samples
        )),
        Some((name, acc, _)) => Err(format!("{name} ({acc}) is not below Cox-Time ({cox})")),
        None if cox_c.is_nan() || cox_c <= 0.6 => Err(format!("Cox-Time C-index {cox_c} <= 0.6")),
        None => Ok(()),
    };
    let sample_epochs = training_samples(cfg, samples) * cfg.coxtime.epochs;
    Rep {
        setup_s,
        wall_s,
        fingerprint: format!("{result}{:?}\n", result.accuracies),
        check,
        work: Some(("sample_epochs_per_s", sample_epochs as f64)),
        quality: vec![("coxtime_accuracy", cox)],
        tick_ms: Vec::new(),
    }
}

impl Workload for CoxFit {
    fn run(&self) -> Rep {
        let (cfg, samples, setup_s) = self.setup();
        let sw = Stopwatch::start();
        let result = table3::run(&cfg);
        let wall_s = sw.elapsed_secs();
        finish(&cfg, samples, &result, setup_s, wall_s)
    }

    fn traced(&self, spans: &mut Spans) -> (Rep, Vec<Layer>) {
        let (cfg, samples, setup_s) = self.setup();
        let mut trained = 0;
        let result = spans.time("bench.entry", |s| {
            let trace = s.time("traces.incident_trace", |_| {
                generate_incident_trace(&trace_config(&cfg))
            });
            let extracted = s.time("traces.survival_samples", |_| {
                trace.survival_samples(cfg.grid_hours)
            });
            let (mut train, mut test) = (Vec::new(), Vec::new());
            for (i, sample) in extracted.iter().enumerate() {
                if i % 5 == 4 {
                    test.push(sample.clone());
                } else {
                    train.push(sample.clone());
                }
            }
            let cox_train: Vec<SurvivalSample> = if train.len() > cfg.max_training_samples {
                let stride = train.len().div_ceil(cfg.max_training_samples);
                train.iter().step_by(stride).cloned().collect()
            } else {
                train.clone()
            };
            let baselines = s.time("selector.baseline_fit", |_| {
                (
                    ExponentialModel::fit(&train),
                    ExponentialPerCountModel::fit(&train),
                    ExponentialPerHourModel::fit(&train),
                )
            });
            let mut trainer = s.time("selector.coxtime_ingest", |_| {
                let mut trainer = CoxTimeTrainer::new(cfg.coxtime.clone());
                let mid = cox_train.len() / 2;
                trainer.ingest(&cox_train[..mid]);
                trainer.ingest(&cox_train[mid..]);
                trainer
            });
            trained = trainer.len();
            for _ in 0..cfg.coxtime.epochs {
                s.time("selector.coxtime_epoch", |_| trainer.train(1))
                    .expect("incident trace contains events");
            }
            let coxtime = s
                .time("selector.coxtime_finish", |_| trainer.finish())
                .expect("incident trace contains events");
            let c_index_sample: Vec<SurvivalSample> = test
                .iter()
                .filter(|s| s.event)
                .step_by((test.len() / 2000).max(1))
                .cloned()
                .collect();
            let accuracies = s.time("selector.score", |_| {
                let score = |name: &'static str, model: &(dyn SurvivalModel + Sync)| {
                    (
                        name,
                        model_accuracy(model, &test),
                        concordance_index(model, &c_index_sample),
                    )
                };
                vec![
                    score("Exponential Distribution", &baselines.0),
                    score("Exponential Distribution per Incident Count", &baselines.1),
                    score("Exponential Distribution per Hour", &baselines.2),
                    score(COXTIME, &coxtime),
                ]
            });
            Table3Result {
                accuracies,
                total_samples: extracted.len(),
                test_events: test.iter().filter(|s| s.event).count(),
            }
        });
        let wall_s = spans.secs_of("bench.entry")[0];
        let mut rep = finish(&cfg, samples, &result, setup_s, wall_s);
        let expected = training_samples(&cfg, samples);
        if rep.check.is_ok() && trained != expected {
            rep.check = Err(format!(
                "trainer holds {trained} samples, expected {expected}"
            ));
        }
        let ms = |name: &str| spans.secs_of(name).iter().sum::<f64>() * 1e3;
        let layer = vec![
            ("traces.incident_trace_ms", ms("traces.incident_trace")),
            ("traces.survival_samples_ms", ms("traces.survival_samples")),
            ("selector.baseline_fit_ms", ms("selector.baseline_fit")),
            ("selector.coxtime_ingest_ms", ms("selector.coxtime_ingest")),
            (
                "selector.coxtime_epoch_ms",
                mean(&spans.secs_of("selector.coxtime_epoch")) * 1e3,
            ),
            ("selector.coxtime_finish_ms", ms("selector.coxtime_finish")),
            ("selector.score_ms", ms("selector.score")),
            (
                "selector.sample_epochs",
                (trained * cfg.coxtime.epochs) as f64,
            ),
        ];
        (rep, layer)
    }
}
