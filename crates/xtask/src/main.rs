//! `anubis-xtask` — workspace maintenance commands.
//!
//! ```text
//! cargo xtask profile    [<trace.jsonl>] [--top <n>]
//! ```
//!
//! `profile` summarizes an `anubis-obs` trace (the repro binary's
//! `--trace` output, default `target/trace.jsonl`): top-k hot spans by
//! exclusive virtual time, a per-crate rollup, counter totals and
//! histograms.

use anubis_xtask::profile::Profile;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask profile [<trace.jsonl>] [--top <n>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
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
