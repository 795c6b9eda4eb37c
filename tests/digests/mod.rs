//! Every `repro` experiment output, pinned by digest. [`check`] walks
//! [`EXPERIMENTS`], the table `repro` dispatches through, and compares
//! the FNV-1a digest of each run's `Display` text and JSON with the
//! committed `tests/repro_digests.expected`: one `<repro arguments>: text
//! <hex> json <hex>` row per run. Each id is pinned at its quick and its
//! full preset, and fig9 also with `--centroid-mean`.
//!
//! Each run happens at `ANUBIS_THREADS` 1, 2 and 8 and must print the
//! same bytes at all three; a row that differs at 2 or 8 threads shows up
//! in the diff with the thread count appended. Every row has one [`Owner`],
//! the test that makes its run; that test copies the other rows from the
//! expected file, so on a mismatch its `$CARGO_TARGET_TMPDIR/
//! repro_digests.actual` is complete. Re-baselining means copying that file
//! over the expected one (one failing test at a time) and saying why in
//! CHANGES.md.

use anubis_bench::experiments::{Experiment, Preset, EXPERIMENTS};
use std::sync::PoisonError;

/// The committed digests.
const EXPECTED: &str = include_str!("../repro_digests.expected");

/// The test that makes a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owner {
    /// `parallel_determinism.rs`: every `--quick` run.
    Quick,
    /// `fig8_pinned.rs`: the full fig8 run, which table4 prints too.
    Fig8,
    /// `repro_digests.rs`: the other full runs but the slow ones.
    Full,
    /// `repro_digests.rs`, ignored: the full table3, table5 and table6
    /// runs, about 41, 7 and 8 s each in release.
    Slow,
}

impl Owner {
    /// The test that makes `experiment`'s run at `preset`.
    fn of(experiment: &Experiment, preset: Preset) -> Self {
        if preset.quick {
            Self::Quick
        } else if matches!(experiment.id, "fig8" | "table4") {
            Self::Fig8
        } else if matches!(experiment.id, "table3" | "table5" | "table6") {
            Self::Slow
        } else {
            Self::Full
        }
    }
}

/// Held while a test sets `ANUBIS_THREADS`, which `--include-ignored`
/// would otherwise let two tests of one binary race on.
#[allow(
    clippy::disallowed_types,
    reason = "serializes the tests; no result depends on which runs first"
)]
static THREADS_ENV: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every pinned run in expected-file order: its `repro` arguments, the
/// experiment and the preset.
fn runs() -> Vec<(String, &'static Experiment, Preset)> {
    let mut runs = Vec::new();
    for experiment in &EXPERIMENTS {
        let ablations: &[bool] = if experiment.id == "fig9" {
            &[false, true]
        } else {
            &[false]
        };
        for &centroid_mean in ablations {
            for quick in [true, false] {
                let mut args = experiment.id.to_owned();
                if quick {
                    args.push_str(" --quick");
                }
                if centroid_mean {
                    args.push_str(" --centroid-mean");
                }
                let preset = Preset {
                    quick,
                    centroid_mean,
                };
                runs.push((args, experiment, preset));
            }
        }
    }
    runs
}

/// Makes the runs that `owner` owns at each thread count and checks them,
/// with the other runs' rows copied from the expected file, against
/// `tests/repro_digests.expected`.
pub fn check(owner: Owner) {
    let _env = THREADS_ENV.lock().unwrap_or_else(PoisonError::into_inner);
    let runs: Vec<_> = runs()
        .into_iter()
        .map(|(args, experiment, preset)| {
            let mine = Owner::of(experiment, preset) == owner;
            (args, experiment, preset, mine)
        })
        .collect();
    let mut rows: Vec<String> = runs
        .iter()
        .map(|(args, .., mine)| {
            let copied = EXPECTED
                .lines()
                .find(|line| line.split_once(':').is_some_and(|(a, _)| a == args));
            match copied {
                Some(line) if !mine => line.to_owned(),
                _ => String::new(),
            }
        })
        .collect();
    for threads in ["1", "2", "8"] {
        std::env::set_var("ANUBIS_THREADS", threads);
        // table4 runs fig8's function: one run serves both ids. (Functions
        // that share an address run the same code.)
        let mut digests: Vec<(&Experiment, Preset, String)> = Vec::new();
        for ((args, experiment, preset, mine), row) in runs.iter().zip(&mut rows) {
            if !mine {
                continue;
            }
            let done = digests
                .iter()
                .find(|(e, p, _)| std::ptr::fn_addr_eq(e.run, experiment.run) && p == preset);
            let digest = match done {
                Some((.., digest)) => digest.clone(),
                None => {
                    let output = (experiment.run)(*preset);
                    let digest = format!(
                        "text {:016x} json {:016x}",
                        fnv1a(output.text.as_bytes()),
                        fnv1a(output.json.as_bytes())
                    );
                    digests.push((experiment, *preset, digest.clone()));
                    digest
                }
            };
            let line = format!("{args}: {digest}");
            if threads == "1" {
                *row = line;
            } else if row.lines().next() != Some(line.as_str()) {
                row.push_str(&format!("\n{line} (ANUBIS_THREADS={threads})"));
            }
        }
    }
    std::env::remove_var("ANUBIS_THREADS");

    let mut actual = String::from(
        "# FNV-1a digests of each `repro <arguments>` run's Display text and JSON\n\
         # (tests/repro_digests.rs), the same at ANUBIS_THREADS=1, 2 and 8.\n",
    );
    for row in rows.iter().filter(|row| !row.is_empty()) {
        actual.push_str(row);
        actual.push('\n');
    }
    crate::common::assert_matches_expected("repro_digests", "output digests", EXPECTED, &actual);
}
