//! The ANUBIS workspace benchmark: three closed-loop workloads driven
//! through the workspace's public entry points, measured end to end
//! (untraced) and per layer (traced). See README.md for every metric.
//!
//! ```text
//! perfbench --workload <fleetd-soak|coxtime-fit|policy-sim|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line on stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod coxfit;
mod policy;
mod soak;
mod spans;

use anubis_obs::wall::Stopwatch;
use anubis_parallel::{INCREMENTAL_ENV, THREADS_ENV};
use spans::{median, peak_rss_mib, percentile, Spans};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: perfbench --workload <fleetd-soak|coxtime-fit|policy-sim|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

const WORKLOADS: [&str; 3] = ["fleetd-soak", "coxtime-fit", "policy-sim"];

/// Timed repetitions a run makes at least, whatever `--seconds` says:
/// medians need a few, and the soak's tick p99 needs ten ticks beyond it.
const MIN_TIMED_REPS: usize = 3;

/// End-to-end metrics of every workload (`--trace 0`).
const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics (`--trace 1`). Every workload reports all of them; a
/// layer the workload never calls reads 0. The first nine are the
/// workload-specific end-to-end metrics, taken from the traced run's
/// untraced repetitions.
const PER_LAYER: [(&str, &str); 46] = [
    ("failed_frac", "ratio"),
    ("node_ticks_per_s", "1/s"),
    ("tick_p50_ms", "ms"),
    ("tick_p99_ms", "ms"),
    ("sample_epochs_per_s", "1/s"),
    ("coxtime_accuracy", "ratio"),
    ("mtbi_gain", "x"),
    ("validation_catch_frac", "ratio"),
    ("job_kill_frac", "ratio"),
    ("fleetd.step_ms.plain", "ms"),
    ("fleetd.step_ms.refresh", "ms"),
    ("fleetd.shard_tick_ms", "ms"),
    ("metrics.sketch_merge_ms", "ms"),
    ("metrics.sketch_len", "count"),
    ("fleetd.node_ticks", "count"),
    ("fleetd.incidents", "count"),
    ("fleetd.samples", "count"),
    ("fleetd.proposals", "count"),
    ("fleetd.validations", "count"),
    ("fleetd.defects_confirmed", "count"),
    ("fleetd.incident_quarantines", "count"),
    ("fleetd.jobs_started", "count"),
    ("fleetd.jobs_killed", "count"),
    ("fleetd.jobs_dropped", "count"),
    ("fleetd.validation_yield", "ratio"),
    ("traces.incident_trace_ms", "ms"),
    ("traces.survival_samples_ms", "ms"),
    ("selector.baseline_fit_ms", "ms"),
    ("selector.coxtime_ingest_ms", "ms"),
    ("selector.coxtime_epoch_ms", "ms"),
    ("selector.coxtime_finish_ms", "ms"),
    ("selector.score_ms", "ms"),
    ("selector.sample_epochs", "count"),
    ("selector.fit_ms", "ms"),
    ("cluster.simulate_ms.absence", "ms"),
    ("cluster.simulate_ms.full_set", "ms"),
    ("cluster.simulate_ms.selector", "ms"),
    ("cluster.simulate_ms.ideal", "ms"),
    ("cluster.simulate_ms.random_subset", "ms"),
    ("cluster.jobs_offered", "count"),
    ("cluster.jobs_completed", "count"),
    ("cluster.jobs_interrupted", "count"),
    ("parallel.speedup", "x"),
    ("bench.trace_overhead_s", "s"),
    ("bench.unaccounted_s", "s"),
    ("bench.ticks_beyond_p99", "count"),
];

/// A named per-layer value.
pub(crate) type Layer = (&'static str, f64);

/// One execution of a workload's entry point.
pub(crate) struct Rep {
    /// Time spent before the entry point.
    pub(crate) setup_s: f64,
    /// Time inside the entry point.
    pub(crate) wall_s: f64,
    /// The rendered result and the exact work counters; every repetition
    /// of a seed, at any thread count, must reproduce it byte for byte.
    pub(crate) fingerprint: String,
    /// The workload's output check.
    pub(crate) check: Result<(), String>,
    /// Throughput metric name and the work units the run completed.
    pub(crate) work: Option<(&'static str, f64)>,
    /// Deterministic quality metrics of the result.
    pub(crate) quality: Vec<Layer>,
    /// Per-tick latencies in ms (soak only).
    pub(crate) tick_ms: Vec<f64>,
}

/// A benchmark workload.
pub(crate) trait Workload {
    /// Runs set-up and the entry point once, untraced.
    fn run(&self) -> Rep;
    /// Replays the entry point under the span `bench.entry`, with a span
    /// around each call into a layer, and returns its layer metrics.
    fn traced(&self, spans: &mut Spans) -> (Rep, Vec<Layer>);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad()),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |flag: &str| format!("{flag} is required");
    let workload = workload.ok_or_else(|| missing("--workload"))?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

fn make_workload(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "fleetd-soak" => Box::new(soak::Soak::new(seed)),
        "coxtime-fit" => Box::new(coxfit::CoxFit::new(seed)),
        _ => Box::new(policy::PolicySim::new(seed)),
    }
}

/// Sets the executor's knobs explicitly, never inheriting them.
fn set_threads(threads: usize) {
    std::env::set_var(THREADS_ENV, threads.to_string());
    std::env::set_var(INCREMENTAL_ENV, "1");
}

/// The commit the checkout is at, read from `.git` when there is one.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .map(|l| l.split(' ').next().unwrap_or_default().to_string())
            })
            .map_or_else(|| "unknown".to_string(), |c| c.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// Judges every repetition against its check and against the first
/// repetition's fingerprint; returns the number that failed.
fn failures(reps: &[&Rep]) -> usize {
    let reference = &reps[0].fingerprint;
    let mut failed = 0;
    for (i, rep) in reps.iter().enumerate() {
        let verdict = match &rep.check {
            Err(why) => Some(why.clone()),
            Ok(()) if rep.fingerprint != *reference => {
                Some("result differs from the first repetition".to_string())
            }
            Ok(()) => None,
        };
        if let Some(why) = verdict {
            eprintln!("perfbench: repetition {i} failed: {why}");
            failed += 1;
        }
    }
    failed
}

/// Every end-to-end metric the workload defines, from the timed untraced
/// repetitions: the three common ones plus its own.
fn end_to_end(reps: &[Rep], peak_rss_mb: f64, failed: usize, attempted: usize) -> Vec<Layer> {
    let wall_s = median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let mut out = vec![
        ("wall_s", wall_s),
        (
            "setup_s",
            median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        ),
        ("peak_rss_mb", peak_rss_mb),
        ("failed_frac", failed as f64 / attempted as f64),
    ];
    if let Some((name, work)) = reps[0].work {
        out.push((name, work / wall_s));
    }
    let ticks: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.tick_ms.iter().copied())
        .collect();
    if !ticks.is_empty() {
        let p99 = percentile(&ticks, 0.99);
        let beyond = ticks.iter().filter(|&&t| t > p99).count();
        out.push(("tick_p50_ms", percentile(&ticks, 0.5)));
        out.push(("tick_p99_ms", p99));
        out.push(("bench.ticks_beyond_p99", beyond as f64));
    }
    out.extend(reps[0].quality.iter().copied());
    out
}

/// The value of metric `name` in `values`, or `missing`.
fn lookup(values: &[Layer], name: &str, missing: f64) -> f64 {
    values.iter().find(|v| v.0 == name).map_or(missing, |v| v.1)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The result object. A value that is not a finite number makes the run
/// incorrect and prints as 0, keeping the line valid JSON.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Layer]) -> String {
    let correct = correct && metrics.iter().all(|(_, v)| v.is_finite());
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, &(name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    out.push_str("}}");
    out
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let context = format!(
        "workload={} seed={} seconds={} trace={} nproc={nproc} rustc=\"{}\" target-cpu={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_TARGET_CPU"),
        commit(&root),
    );
    eprintln!("perfbench: {context}");
    set_threads(nproc);
    let workload = make_workload(&args.workload, args.seed);

    // Untraced repetitions at nproc threads: all of --seconds, or half of
    // it when a traced repetition and a single-thread one follow. The
    // first is a warm-up: checked, but left out of every timing, since a
    // fresh process pays one-off heap growth that swings 1.5-4x.
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let clock = Stopwatch::start();
    let warmup = workload.run();
    // One workload run's high-water mark, before repetitions can add
    // heap fragmentation to it.
    let peak_rss_mb = peak_rss_mib().unwrap_or(f64::NAN);
    let mut reps = Vec::new();
    while reps.len() < MIN_TIMED_REPS || clock.elapsed_secs() < budget {
        reps.push(workload.run());
    }

    let mut spans = Spans::new();
    let extra = args.trace.then(|| {
        let (traced, layer) = workload.traced(&mut spans);
        set_threads(1);
        let single = workload.run();
        set_threads(nproc);
        (traced, layer, single)
    });

    let mut all: Vec<&Rep> = std::iter::once(&warmup).chain(&reps).collect();
    if let Some((traced, _, single)) = &extra {
        all.push(traced);
        all.push(single);
    }
    let attempted = all.len();
    let failed = failures(&all);
    let e2e = end_to_end(&reps, peak_rss_mb, failed, attempted);
    let walls: Vec<String> = reps.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
    eprintln!(
        "perfbench: untraced wall_s, warm-up {:.3}, timed: {}",
        warmup.wall_s,
        walls.join(" ")
    );
    for &(name, value) in &e2e {
        eprintln!("perfbench: {name:<24} {value:>16.6} {}", unit_of(name));
    }

    let metrics: Vec<Layer> = match &extra {
        None => END_TO_END
            .iter()
            .map(|(name, _)| (*name, lookup(&e2e, name, f64::NAN)))
            .collect(),
        Some((_, layer, single)) => {
            let wall_s = lookup(&e2e, "wall_s", f64::NAN);
            let (root, entry) = spans
                .find("bench.entry")
                .expect("traced run opens bench.entry");
            let mut values = e2e.clone();
            values.extend(layer.iter().copied());
            values.push(("parallel.speedup", single.wall_s / wall_s));
            values.push(("bench.trace_overhead_s", entry.secs() - wall_s));
            values.push(("bench.unaccounted_s", spans.self_secs(root)));
            PER_LAYER
                .iter()
                .map(|(name, _)| (*name, lookup(&values, name, 0.0)))
                .collect()
        }
    };
    let line = result_line(failed == 0, attempted, failed, &metrics);

    let dir = results_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = format!(
        "{{\"context\": \"{}\", \"result\": {line}}}\n",
        context.replace('"', "'")
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), record))
        .and_then(|()| match extra {
            Some(_) => std::fs::write(dir.join(format!("{stem}-spans.jsonl")), spans.to_jsonl()),
            None => Ok(()),
        });
    if let Err(err) = written {
        eprintln!("perfbench: cannot write {}: {err}", dir.display());
    }
    println!("{line}");
    ExitCode::SUCCESS
}

/// Runs every workload in a fresh process of its own, one after another,
/// so each reports its own peak RSS.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("perfbench: cannot locate own executable: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let args = parse("--workload coxtime-fit --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, true));
        assert!(parse("--workload nope --seed 1 --seconds 3 --trace 0").is_err());
        assert!(parse("--workload all --seed 1 --seconds 3").is_err());
        assert!(parse("--workload all --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload all --seconds").is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[("wall_s", 1.25), ("tick_p50_ms", 3.5)]);
        assert!(result_line(true, 1, 0, &[("wall_s", f64::NAN)]).starts_with("{\"correct\": false"));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"tick_p50_ms\": {\"value\": 3.5, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn benchmark_json_names_every_metric_and_workload() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for name in WORKLOADS {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} unit {unit}"
            );
        }
    }
}
