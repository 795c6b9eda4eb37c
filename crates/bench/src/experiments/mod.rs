//! One module per paper table/figure, and [`EXPERIMENTS`], the table the
//! `repro` binary dispatches through and the root digest tests walk.

use anubis_metrics::json::to_json;
use std::fmt::Display;

pub mod appendix_a;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table3;
pub mod table5;
pub mod table6;

/// Which configuration an experiment runs: `repro`'s `--quick` and
/// `--centroid-mean` flags.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Preset {
    /// The scaled-down `quick()` config instead of the `Default` one.
    pub quick: bool,
    /// fig9 only: Algorithm 2 centres on the distribution mean instead of
    /// the medoid (the DESIGN.md ablation).
    pub centroid_mean: bool,
}

impl Preset {
    /// `quick()` for a quick preset, the `Default` config otherwise.
    fn config<C: Default>(self, quick: fn() -> C) -> C {
        if self.quick {
            quick()
        } else {
            C::default()
        }
    }
}

/// One run's result, rendered both ways `repro` prints it.
#[derive(Debug, Clone)]
pub struct Output {
    /// The paper-style `Display` tables.
    pub text: String,
    /// The result as one JSON object (`repro --json`).
    pub json: String,
}

impl Output {
    fn of<R: Display + serde::Serialize>(result: &R) -> Self {
        Self {
            text: result.to_string(),
            json: to_json(result).expect("experiment results are serializable"),
        }
    }
}

/// A runnable experiment: its `repro` id and its run at a preset.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The id `repro` accepts and `repro list` prints.
    pub id: &'static str,
    /// Runs the experiment and renders its result.
    pub run: fn(Preset) -> Output,
}

/// fig8 and table4 come from the same simulation.
fn fig8_and_table4(preset: Preset) -> Output {
    Output::of(&fig8::run(&preset.config(fig8::Fig8Config::quick)))
}

/// Every runnable experiment, in `repro list` order.
pub static EXPERIMENTS: [Experiment; 14] = [
    Experiment {
        id: "fig1",
        run: |p| Output::of(&fig1::run(&p.config(fig1::Fig1Config::quick))),
    },
    Experiment {
        id: "fig2",
        run: |p| Output::of(&fig2::run(&p.config(fig2::Fig2Config::quick))),
    },
    Experiment {
        id: "fig3",
        run: |p| Output::of(&fig3::run(&p.config(fig3::Fig3Config::quick))),
    },
    Experiment {
        id: "fig4",
        run: |p| Output::of(&fig4::run(&p.config(fig4::Fig4Config::quick))),
    },
    Experiment {
        id: "fig5",
        run: |p| Output::of(&fig5::run(&p.config(fig5::Fig5Config::quick))),
    },
    Experiment {
        id: "fig6",
        run: |p| Output::of(&fig6::run(&p.config(fig6::Fig6Config::quick))),
    },
    Experiment {
        id: "fig8",
        run: fig8_and_table4,
    },
    Experiment {
        id: "fig9",
        run: |p| {
            let mut config = p.config(fig9::Fig9Config::quick);
            if p.centroid_mean {
                config.centroid = anubis_validator::CentroidMethod::DistributionMean;
            }
            Output::of(&fig9::run(&config))
        },
    },
    Experiment {
        id: "table1",
        run: |p| Output::of(&table1::run(&p.config(table1::Table1Config::quick))),
    },
    Experiment {
        id: "table3",
        run: |p| Output::of(&table3::run(&p.config(table3::Table3Config::quick))),
    },
    Experiment {
        id: "table4",
        run: fig8_and_table4,
    },
    Experiment {
        id: "table5",
        run: |p| Output::of(&table5::run(&p.config(table5::Table5Config::quick))),
    },
    Experiment {
        id: "table6",
        run: |p| Output::of(&table6::run(&p.config(table6::Table6Config::quick))),
    },
    Experiment {
        id: "appendixA",
        run: |p| {
            Output::of(&appendix_a::run(
                &p.config(appendix_a::AppendixAConfig::quick),
            ))
        },
    },
];

/// The experiment `repro` runs for `id` (`appendixa` also names
/// `appendixA`).
pub fn find(id: &str) -> Option<&'static Experiment> {
    let id = if id == "appendixa" { "appendixA" } else { id };
    EXPERIMENTS.iter().find(|e| e.id == id)
}
