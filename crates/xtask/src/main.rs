//! `anubis-xtask` — workspace maintenance commands.
//!
//! Two subcommands:
//!
//! ```text
//! cargo xtask analyze    [--root <dir>] [--baseline <file>] [--json <file>] [--write-baseline]
//! cargo xtask profile    [<trace.jsonl>] [--top <n>]
//! ```
//!
//! `analyze` runs the call-graph passes of [`anubis_xtask::passes`]
//! (A001, A002 and A008) and compares the findings against the committed
//! `analysis-baseline.json`: only *regressions* — new finding keys or
//! grown counts — fail the build. `--write-baseline` regenerates the
//! baseline after intentional changes; `--json` writes a SARIF-style
//! report for CI artifacts. Enforced findings (an alloc-free entry's reach,
//! an arena-clean entry's body) are hard failures the baseline never
//! absorbs. The summary line counts the arena-able A008 findings — the
//! `escape: local` allocations, candidates for pooled scratch.
//!
//! `profile` summarizes an `anubis-obs` trace (the repro binary's
//! `--trace` output, default `target/trace.jsonl`): top-k hot spans by
//! exclusive virtual time, a per-crate rollup, counter totals and
//! histograms.

use anubis_xtask::model::Workspace;
use anubis_xtask::passes::{run_analysis, AnalysisConfig};
use anubis_xtask::profile::Profile;
use anubis_xtask::report::{to_sarif, Baseline};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask <analyze|profile>\n  \
analyze [--root <dir>] [--baseline <file>] [--json <file>] [--write-baseline]\n  \
profile [<trace.jsonl>] [--top <n>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze(&args[1..]),
        Some("profile") => profile(&args[1..]),
        Some(other) => {
            eprintln!("unknown subcommand `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Default workspace root: two levels up from this crate's manifest.
fn default_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

fn analyze(args: &[String]) -> ExitCode {
    let mut root = default_root();
    let mut baseline_path: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut write_baseline = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--write-baseline" => {
                write_baseline = true;
                continue;
            }
            "--root" => match iter.next() {
                Some(value) => root = PathBuf::from(value),
                None => return usage_error(flag),
            },
            "--baseline" => match iter.next() {
                Some(value) => baseline_path = Some(PathBuf::from(value)),
                None => return usage_error(flag),
            },
            "--json" => match iter.next() {
                Some(value) => json_path = Some(PathBuf::from(value)),
                None => return usage_error(flag),
            },
            _ => return usage_error(flag),
        }
    }
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("analysis-baseline.json"));

    let ws = match Workspace::scan(&root) {
        Ok(ws) => ws,
        Err(error) => {
            eprintln!("analyze failed: {error}");
            return ExitCode::from(2);
        }
    };
    let findings = run_analysis(&ws, &AnalysisConfig::default());
    let current = Baseline::from_findings(&findings);
    // Enforced findings are hard failures: the baseline excludes them by construction, so not
    // even --write-baseline can absorb one.
    let enforced: Vec<_> = findings.iter().filter(|f| f.enforced).collect();
    for finding in &enforced {
        println!("{finding} [enforced]");
    }

    if write_baseline {
        // Diff against the previous file so the refresh leaves an audit
        // trail of exactly which keys it pruned or added. A missing or
        // malformed previous baseline diffs as empty: every key reports
        // as added.
        let previous = std::fs::read_to_string(&baseline_path)
            .ok()
            .and_then(|text| Baseline::parse(&text).ok())
            .unwrap_or_default();
        if let Err(error) = std::fs::write(&baseline_path, current.to_json()) {
            eprintln!("cannot write {}: {error}", baseline_path.display());
            return ExitCode::from(2);
        }
        for line in anubis_xtask::report::refresh_summary(&previous, &current) {
            println!("{line}");
        }
        println!(
            "analyze: wrote {} ({} key(s), {} finding(s))",
            baseline_path.display(),
            current.findings.len(),
            findings.len()
        );
        if !enforced.is_empty() {
            println!(
                "analyze: {} enforced finding(s) remain hard failures",
                enforced.len()
            );
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(baseline) => baseline,
            Err(reason) => {
                eprintln!("{}: malformed baseline: {reason}", baseline_path.display());
                return ExitCode::from(2);
            }
        },
        Err(error) if error.kind() == std::io::ErrorKind::NotFound => Baseline::default(),
        Err(error) => {
            eprintln!("cannot read {}: {error}", baseline_path.display());
            return ExitCode::from(2);
        }
    };

    if let Some(json_path) = &json_path {
        if let Err(error) = std::fs::write(json_path, to_sarif(&findings, &baseline)) {
            eprintln!("cannot write {}: {error}", json_path.display());
            return ExitCode::from(2);
        }
    }

    let regressions = baseline.regressions(&current);
    let regressed_keys: Vec<&str> = regressions.iter().map(|r| r.key.as_str()).collect();
    for finding in &findings {
        if regressed_keys.contains(&finding.key().as_str()) {
            println!("{finding}");
        }
    }
    for regression in &regressions {
        println!(
            "analyze: new finding `{}` ({} now vs {} baselined)",
            regression.key, regression.current, regression.baselined
        );
    }
    for stale in baseline.stale(&current) {
        println!(
            "analyze: stale baseline entry `{}` ({} now vs {} baselined) — \
             regenerate with --write-baseline",
            stale.key, stale.current, stale.baselined
        );
    }
    let arena_able = findings
        .iter()
        .filter(|f| f.message.contains("escape: local"))
        .count();
    println!(
        "analyze: {} finding(s) ({arena_able} arena-able), {} baselined key(s), {} new, {} enforced",
        findings.len(),
        baseline.findings.len(),
        regressions.len(),
        enforced.len()
    );
    if regressions.is_empty() && enforced.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn profile(args: &[String]) -> ExitCode {
    let mut trace_path: Option<PathBuf> = None;
    let mut top_k = 15usize;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--top" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(value) if value > 0 => top_k = value,
                _ => return usage_error(flag),
            },
            other if !other.starts_with("--") && trace_path.is_none() => {
                trace_path = Some(PathBuf::from(other));
            }
            _ => return usage_error(flag),
        }
    }
    let trace_path =
        trace_path.unwrap_or_else(|| default_root().join("target").join("trace.jsonl"));

    let text = match std::fs::read_to_string(&trace_path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!(
                "cannot read {}: {error}\n(generate one with `cargo run --release -p anubis-bench \
                 --bin repro -- <experiment> --trace`)",
                trace_path.display()
            );
            return ExitCode::from(2);
        }
    };
    match Profile::from_jsonl(&text) {
        Ok(profile) => {
            println!("profile of {}", trace_path.display());
            print!("{}", profile.render(top_k));
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("{}: {error}", trace_path.display());
            ExitCode::from(2)
        }
    }
}

fn usage_error(flag: &str) -> ExitCode {
    eprintln!("unexpected or incomplete argument `{flag}`\n{USAGE}");
    ExitCode::from(2)
}
