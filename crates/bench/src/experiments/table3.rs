//! Table 3: accuracy of incident-probability models.

use crate::table::{pct, render_table};
use anubis_selector::{
    concordance_index, model_accuracy, CoxTimeConfig, CoxTimeTrainer, ExponentialModel,
    ExponentialPerCountModel, ExponentialPerHourModel, SurvivalModel, SurvivalSample,
};
use anubis_traces::{generate_incident_trace, IncidentTraceConfig};
use std::fmt;

/// Configuration for the Table 3 reproduction.
#[derive(Debug, Clone)]
pub struct Table3Config {
    /// Nodes in the incident trace.
    pub nodes: u32,
    /// Snapshot grid in hours (denser grid = more samples; the paper
    /// extracts 46,808).
    pub grid_hours: f64,
    /// Cox-Time training configuration.
    pub coxtime: CoxTimeConfig,
    /// Cap on samples used for Cox-Time training (keeps runtime sane).
    pub max_training_samples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Table3Config {
    fn default() -> Self {
        Self {
            nodes: 1000,
            grid_hours: 62.0,
            coxtime: CoxTimeConfig {
                epochs: 150,
                hidden: vec![64, 64],
                learning_rate: 1e-3,
                controls_per_event: 6,
                baseline_buckets: 160,
                ..CoxTimeConfig::default()
            },
            max_training_samples: 32_000,
            seed: 42,
        }
    }
}

impl Table3Config {
    /// A fast preset for tests.
    pub fn quick() -> Self {
        Self {
            nodes: 150,
            grid_hours: 96.0,
            coxtime: CoxTimeConfig {
                epochs: 60,
                hidden: vec![24, 24],
                controls_per_event: 6,
                baseline_buckets: 64,
                ..CoxTimeConfig::default()
            },
            max_training_samples: 4_000,
            ..Self::default()
        }
    }
}

/// Result: per-model TBNI prediction accuracy.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Table3Result {
    /// `(model name, accuracy, concordance index)` rows in the paper's
    /// order. The C-index column is an addition over the paper: it
    /// exposes *ranking* quality, where constant predictors sit at 0.5.
    pub accuracies: Vec<(&'static str, f64, f64)>,
    /// Samples in the extracted dataset.
    pub total_samples: usize,
    /// Samples used for evaluation (events in the 20% split).
    pub test_events: usize,
}

impl Table3Result {
    /// Accuracy of one model by name.
    pub fn accuracy_of(&self, name: &str) -> Option<f64> {
        self.accuracies
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, a, _)| *a)
    }

    /// Concordance index of one model by name.
    pub fn concordance_of(&self, name: &str) -> Option<f64> {
        self.accuracies
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, _, c)| *c)
    }
}

/// Runs the experiment: extract status/TBNI samples from the synthetic
/// trace, fit all four models on the 80% split, and score them on the
/// held-out 20%.
pub fn run(config: &Table3Config) -> Table3Result {
    let trace = generate_incident_trace(&IncidentTraceConfig {
        nodes: config.nodes,
        seed: config.seed,
        ..IncidentTraceConfig::default()
    });
    let samples = trace.survival_samples(config.grid_hours);
    // Deterministic 80/20 split by index hash.
    let (mut train, mut test): (Vec<SurvivalSample>, Vec<SurvivalSample>) =
        (Vec::new(), Vec::new());
    for (i, sample) in samples.iter().enumerate() {
        if i % 5 == 4 {
            test.push(sample.clone());
        } else {
            train.push(sample.clone());
        }
    }
    let cox_train: Vec<SurvivalSample> = if train.len() > config.max_training_samples {
        let stride = train.len().div_ceil(config.max_training_samples);
        train.iter().step_by(stride).cloned().collect()
    } else {
        train.clone()
    };

    let exponential = ExponentialModel::fit(&train);
    let per_count = ExponentialPerCountModel::fit(&train);
    let per_hour = ExponentialPerHourModel::fit(&train);
    // Exercise the incremental machinery end to end: stage the training
    // set through the warm-start trainer in two ingestions. Staged
    // ingestion reconstructs the cold fit's derived state exactly (see
    // `CoxTimeTrainer`), so the table matches a `CoxTimeModel::fit`.
    let mut trainer = CoxTimeTrainer::new(config.coxtime.clone());
    let mid = cox_train.len() / 2;
    trainer.ingest(&cox_train[..mid]);
    trainer.ingest(&cox_train[mid..]);
    trainer
        .train(config.coxtime.epochs)
        .expect("incident trace contains events");
    let coxtime = trainer.finish().expect("incident trace contains events");

    // The full C-index is O(events²); subsample the test events to keep
    // it cheap while staying statistically stable.
    let c_index_sample: Vec<SurvivalSample> = test
        .iter()
        .filter(|s| s.event)
        .step_by((test.len() / 2000).max(1))
        .cloned()
        .collect();
    let score = |model: &(dyn SurvivalModel + Sync)| {
        (
            model_accuracy(model, &test),
            concordance_index(model, &c_index_sample),
        )
    };
    let row = |name: &'static str, (a, c): (f64, f64)| (name, a, c);
    let accuracies = vec![
        row("Exponential Distribution", score(&exponential)),
        row(
            "Exponential Distribution per Incident Count",
            score(&per_count),
        ),
        row("Exponential Distribution per Hour", score(&per_hour)),
        row("Cox-Time Model", score(&coxtime)),
    ];
    Table3Result {
        accuracies,
        total_samples: samples.len(),
        test_events: test.iter().filter(|s| s.event).count(),
    }
}

impl fmt::Display for Table3Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 3: probability-model accuracy ({} samples, {} test events)",
            self.total_samples, self.test_events
        )?;
        let rows: Vec<Vec<String>> = self
            .accuracies
            .iter()
            .map(|(name, acc, c)| vec![name.to_string(), pct(*acc), format!("{c:.3}")])
            .collect();
        write!(
            f,
            "{}",
            render_table(&["Model", "Accuracy", "C-index"], &rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coxtime_beats_every_baseline() {
        let result = run(&Table3Config::quick());
        let cox = result.accuracy_of("Cox-Time Model").unwrap();
        for (name, acc, _) in &result.accuracies {
            if *name != "Cox-Time Model" {
                assert!(
                    cox > *acc,
                    "Cox-Time ({cox:.3}) must beat {name} ({acc:.3})"
                );
            }
        }
        assert!(cox > 0.7, "Cox-Time accuracy {cox}");
        // Ranking quality: Cox-Time clearly beats the constant predictors.
        let cox_c = result.concordance_of("Cox-Time Model").unwrap();
        let exp_c = result.concordance_of("Exponential Distribution").unwrap();
        assert!(
            (exp_c - 0.5).abs() < 1e-9,
            "constant predictor C-index {exp_c}"
        );
        assert!(cox_c > 0.6, "Cox-Time C-index {cox_c}");
    }

    #[test]
    fn accuracies_are_probabilities() {
        let result = run(&Table3Config::quick());
        for (name, acc, c) in &result.accuracies {
            assert!((0.0..=1.0).contains(acc), "{name}: {acc}");
            assert!((0.0..=1.0).contains(c), "{name}: C-index {c}");
        }
        assert!(result.test_events > 50);
    }

    #[test]
    fn renders() {
        let text = run(&Table3Config::quick()).to_string();
        assert!(text.contains("Cox-Time Model"));
    }
}
