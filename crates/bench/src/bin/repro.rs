//! `repro` — regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro <experiment> [--quick] [--json] [--trace[=PATH]] [--out[=PATH]]
//! repro all [--quick] [--json]
//! repro fleetd [--nodes N] [--shards S] [--ticks T] [--seed X]
//!              [--threads K] [--jsonl[=PATH]] [--trace[=PATH]] [--out[=PATH]]
//! repro list
//! ```
//!
//! Experiments: fig1 fig2 fig3 fig4 fig5 fig6 fig8 fig9 table1 table3
//! table4 table5 table6 appendixA. (`table4` is produced together with
//! `fig8` — both come from the same simulation.)
//!
//! `--trace` records a deterministic `anubis-obs` virtual-time trace of
//! the run (default `target/trace.jsonl`; summarize with `cargo xtask
//! profile <path>`). `--out` additionally writes the rendered output to a
//! file (default `target/repro_output.txt`). Both accept `--flag=PATH` or
//! `--flag PATH` (with the experiment named first); output files default
//! under `target/` to keep the repo root clean.
//!
//! `repro fleetd` runs the `anubis-fleetd` continuous-validation service.
//! Its stdout (end-of-run summary) and `--jsonl` per-tick trace are
//! byte-deterministic — identical for any `ANUBIS_THREADS` / `--threads`
//! value and any `--shards` count — while wall-clock throughput figures
//! (events/s, nodes validated/s) go to stderr.
//! `crates/fleetd/tests/determinism.rs` holds that contract across shard
//! and thread counts, `repro fleetd`'s default fleet included.

use anubis_bench::experiments::{find, Experiment, Preset, EXPERIMENTS};
use anubis_obs::wall::Stopwatch;
use std::path::PathBuf;

/// Output format of one experiment run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    /// The paper-style aligned tables.
    Text,
    /// Machine-readable JSON (one object per experiment).
    Json,
}

/// The experiment ids, space-separated, for error messages.
fn experiment_ids() -> String {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    ids.join(" ")
}

/// Parsed command line.
struct Cli {
    preset: Preset,
    format: Format,
    target: Option<String>,
    trace: Option<PathBuf>,
    out: Option<PathBuf>,
}

/// Parses `--flag`, `--flag=PATH`, and `--flag PATH` (the space form only
/// consumes the next token once the experiment has been named, so
/// `repro --trace table3` still treats `table3` as the experiment).
fn optional_path(
    rest: &str,
    args: &[String],
    i: &mut usize,
    target_seen: bool,
    default: &str,
) -> Option<PathBuf> {
    if let Some(explicit) = rest.strip_prefix('=') {
        return Some(PathBuf::from(explicit));
    }
    if !rest.is_empty() {
        return None; // e.g. `--tracey`: not this flag.
    }
    if target_seen {
        if let Some(next) = args.get(*i + 1).filter(|a| !a.starts_with("--")) {
            *i += 1;
            return Some(PathBuf::from(next));
        }
    }
    Some(PathBuf::from(default))
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        preset: Preset::default(),
        format: Format::Text,
        target: None,
        trace: None,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--quick" => cli.preset.quick = true,
            "--centroid-mean" => cli.preset.centroid_mean = true,
            "--json" => cli.format = Format::Json,
            _ if arg.starts_with("--trace") => {
                match optional_path(
                    &arg["--trace".len()..],
                    args,
                    &mut i,
                    cli.target.is_some(),
                    "target/trace.jsonl",
                ) {
                    Some(path) => cli.trace = Some(path),
                    None => return Err(format!("unknown flag `{arg}`")),
                }
            }
            _ if arg.starts_with("--out") => {
                match optional_path(
                    &arg["--out".len()..],
                    args,
                    &mut i,
                    cli.target.is_some(),
                    "target/repro_output.txt",
                ) {
                    Some(path) => cli.out = Some(path),
                    None => return Err(format!("unknown flag `{arg}`")),
                }
            }
            _ if arg.starts_with("--") => return Err(format!("unknown flag `{arg}`")),
            _ if cli.target.is_none() => cli.target = Some(arg.to_owned()),
            _ => return Err(format!("unexpected argument `{arg}`")),
        }
        i += 1;
    }
    Ok(cli)
}

/// Writes `contents` to `path`, creating parent directories.
fn write_file(path: &PathBuf, contents: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("write {}: {e}", path.display()))
}

fn usage_exit(message: Option<&str>) -> ! {
    if let Some(message) = message {
        eprintln!("error: {message}");
    }
    eprintln!(
        "usage: repro <experiment|all|list> [--quick] [--centroid-mean] [--json] [--trace[=PATH]] [--out[=PATH]]"
    );
    eprintln!("experiments: {}", experiment_ids());
    std::process::exit(2);
}

/// Parsed `repro fleetd` command line.
struct FleetdCli {
    config: anubis_fleetd::FleetdConfig,
    jsonl: Option<PathBuf>,
    trace: Option<PathBuf>,
    out: Option<PathBuf>,
}

/// Parses the `fleetd` subcommand's flags (`--flag N` and `--flag=N`
/// forms for the numeric knobs).
fn parse_fleetd_args(args: &[String]) -> Result<FleetdCli, String> {
    fn numeric<T: std::str::FromStr>(
        flag: &str,
        arg: &str,
        args: &[String],
        i: &mut usize,
    ) -> Result<Option<T>, String> {
        let rest = match arg.strip_prefix(flag) {
            Some(rest) => rest,
            None => return Ok(None),
        };
        let raw = if let Some(explicit) = rest.strip_prefix('=') {
            explicit.to_owned()
        } else if rest.is_empty() {
            *i += 1;
            match args.get(*i) {
                Some(next) => next.clone(),
                None => return Err(format!("`{flag}` needs a value")),
            }
        } else {
            return Ok(None); // e.g. `--nodesy`: not this flag.
        };
        match raw.parse::<T>() {
            Ok(value) => Ok(Some(value)),
            Err(_) => Err(format!("`{flag}` needs a number, got `{raw}`")),
        }
    }

    let mut cli = FleetdCli {
        config: anubis_fleetd::FleetdConfig::default(),
        jsonl: None,
        trace: None,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if let Some(n) = numeric::<u32>("--nodes", arg, args, &mut i)? {
            cli.config.nodes = n;
        } else if let Some(s) = numeric::<u32>("--shards", arg, args, &mut i)? {
            cli.config.shards = s;
        } else if let Some(t) = numeric::<u32>("--ticks", arg, args, &mut i)? {
            cli.config.ticks = t;
        } else if let Some(x) = numeric::<u64>("--seed", arg, args, &mut i)? {
            cli.config.seed = x;
        } else if let Some(k) = numeric::<usize>("--threads", arg, args, &mut i)? {
            cli.config.threads = k;
        } else if let Some(rest) = arg.strip_prefix("--jsonl") {
            match optional_path(rest, args, &mut i, true, "target/fleetd.jsonl") {
                Some(path) => cli.jsonl = Some(path),
                None => return Err(format!("unknown flag `{arg}`")),
            }
        } else if let Some(rest) = arg.strip_prefix("--trace") {
            match optional_path(rest, args, &mut i, true, "target/fleetd-trace.jsonl") {
                Some(path) => cli.trace = Some(path),
                None => return Err(format!("unknown flag `{arg}`")),
            }
        } else if let Some(rest) = arg.strip_prefix("--out") {
            match optional_path(rest, args, &mut i, true, "target/fleetd-summary.txt") {
                Some(path) => cli.out = Some(path),
                None => return Err(format!("unknown flag `{arg}`")),
            }
        } else {
            return Err(format!("unknown fleetd argument `{arg}`"));
        }
        i += 1;
    }
    Ok(cli)
}

/// Runs the continuous-validation service and reports. Deterministic
/// output (summary, per-tick JSONL) goes to stdout and `--jsonl`;
/// wall-clock throughput goes to stderr only.
fn run_fleetd(args: &[String]) -> ! {
    let cli = match parse_fleetd_args(args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: repro fleetd [--nodes N] [--shards S] [--ticks T] [--seed X] \
                 [--threads K] [--jsonl[=PATH]] [--trace[=PATH]] [--out[=PATH]]"
            );
            std::process::exit(2);
        }
    };
    if let Err(error) = cli.config.validate() {
        eprintln!("error: invalid fleetd config: {error}");
        std::process::exit(2);
    }
    if cli.trace.is_some() {
        anubis_obs::enable();
    }
    let ticks = cli.config.ticks;
    let mut fleet = anubis_fleetd::Coordinator::new(cli.config);
    let mut jsonl = String::new();
    let want_jsonl = cli.jsonl.is_some();
    let started = Stopwatch::start();
    let summary = fleet.run(ticks, |tick| {
        if want_jsonl {
            tick.write_jsonl(&mut jsonl);
        }
    });
    let elapsed = started.elapsed_secs().max(1e-9);

    let rendered = summary.render();
    print!("{rendered}");
    let mut failed = false;
    if let Some(path) = &cli.out {
        match write_file(path, &rendered) {
            Ok(()) => eprintln!("summary written to {}", path.display()),
            Err(message) => {
                eprintln!("error: {message}");
                failed = true;
            }
        }
    }
    if let Some(path) = &cli.jsonl {
        match write_file(path, &jsonl) {
            Ok(()) => eprintln!("tick trace written to {}", path.display()),
            Err(message) => {
                eprintln!("error: {message}");
                failed = true;
            }
        }
    }
    if let Some(path) = &cli.trace {
        let trace = anubis_obs::drain();
        anubis_obs::disable();
        match write_file(path, &trace.to_jsonl()) {
            Ok(()) => eprintln!(
                "obs trace written to {} ({} records, {} dropped)",
                path.display(),
                trace.records.len(),
                trace.dropped
            ),
            Err(message) => {
                eprintln!("error: {message}");
                failed = true;
            }
        }
    }

    let node_ticks = f64::from(summary.nodes) * f64::from(summary.ticks);
    let events = summary.incidents + summary.samples + summary.jobs_started + summary.repairs;
    eprintln!(
        "fleetd: {} nodes x {} ticks ({} shards) in {:.2}s — {:.0} node-ticks/s, {:.0} events/s, {:.0} nodes validated/s",
        summary.nodes,
        summary.ticks,
        summary.shards,
        elapsed,
        node_ticks / elapsed,
        events as f64 / elapsed,
        summary.validations as f64 / elapsed,
    );
    std::process::exit(i32::from(failed));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "fleetd") {
        run_fleetd(&args[1..]);
    }
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => usage_exit(Some(&message)),
    };
    let Some(target) = cli.target.clone() else {
        usage_exit(None);
    };

    if target == "list" {
        for experiment in &EXPERIMENTS {
            println!("{}", experiment.id);
        }
        return;
    }

    if cli.trace.is_some() {
        anubis_obs::enable();
    }

    // `table4` is rendered as part of fig8; avoid running the simulation
    // twice under `all`.
    let runs: Vec<(&str, &Experiment)> = if target == "all" {
        EXPERIMENTS
            .iter()
            .filter(|e| e.id != "table4")
            .map(|e| (e.id, e))
            .collect()
    } else if let Some(experiment) = find(&target) {
        vec![(target.as_str(), experiment)]
    } else {
        eprintln!("error: unknown experiment `{target}`");
        eprintln!("experiments: {}", experiment_ids());
        std::process::exit(2);
    };

    let mut collected = String::new();
    for (id, experiment) in runs {
        let started = Stopwatch::start();
        let output = {
            let _span = anubis_obs::span!(experiment.id);
            (experiment.run)(cli.preset)
        };
        let rendered = if cli.format == Format::Json {
            format!("{}\n", output.json)
        } else {
            format!(
                "=== {id} ({:.1}s) ===\n{}\n",
                started.elapsed_secs(),
                output.text
            )
        };
        print!("{rendered}");
        if cli.out.is_some() {
            collected.push_str(&rendered);
        }
    }

    if let Some(path) = &cli.out {
        if let Err(message) = write_file(path, &collected) {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
        eprintln!("output written to {}", path.display());
    }
    if let Some(path) = &cli.trace {
        let trace = anubis_obs::drain();
        anubis_obs::disable();
        let jsonl = trace.to_jsonl();
        if let Err(message) = write_file(path, &jsonl) {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
        eprintln!(
            "trace written to {} ({} records, {} dropped; summarize with `cargo xtask profile {}`)",
            path.display(),
            trace.records.len(),
            trace.dropped,
            path.display()
        );
    }
}
