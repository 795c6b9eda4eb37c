//! The determinism bans live in the root `clippy.toml` and panic-freedom
//! in the library crates' lint headers. This test runs clippy on the
//! fixture crate under `tests/fixtures/clippy/`, whose every module breaks
//! a rule on purpose, and asserts the exact set of findings: a dropped
//! ban, a misspelled path, a missing header lint or an `#[expect]` that no
//! longer fails when stale fails here.
//!
//! Lifecycle ownership and executor closure discipline need no lint at
//! all: rustc rejects them. `tests/fixtures/compile_fail/` breaks each
//! rule once, and the test asserts the exact error codes, which a
//! `compile_fail` doctest would not check.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;
use std::process::Command;

/// The library crates (directories under `crates/`) whose non-test code
/// must be panic-free: each root carries [`PANIC_LINTS`] in a
/// `#![cfg_attr(not(test), warn(…))]` header, and CI denies warnings.
const GATED_CRATES: &[&str] = &[
    "arena",
    "benchsuite",
    "cluster",
    "config",
    "fleetd",
    "hwsim",
    "lifecycle",
    "metrics",
    "netsim",
    "nn",
    "obs",
    "parallel",
    "selector",
    "traces",
    "validator",
    "workload",
];

/// The lints of the panic-freedom header. `disallowed_macros` enforces the
/// root `clippy.toml`'s assert-family ban, which is off workspace-wide.
const PANIC_LINTS: &[&str] = &[
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "unimplemented",
    "indexing_slicing",
    "integer_division_remainder_used",
    "float_cmp",
    "disallowed_macros",
];

/// Every finding the fixture must draw, as `file:line: message`.
const EXPECTED: &[&str] = &[
    // Indexing, slicing, integer `/` and `%`, the assert family,
    // `unreachable!` and float `==`; the fulfilled `#[expect]` on `first`
    // draws nothing, the stale one on `first_checked` draws a finding.
    "src/bounds.rs:6: slicing may panic",
    "src/bounds.rs:7: indexing may panic",
    "src/bounds.rs:12: use of `/` has been disallowed in this context",
    "src/bounds.rs:12: use of `%` has been disallowed in this context",
    "src/bounds.rs:17: use of a disallowed macro `std::assert`",
    "src/bounds.rs:18: use of a disallowed macro `std::assert_eq`",
    "src/bounds.rs:20: usage of the `unreachable!` macro",
    "src/bounds.rs:22: strict comparison of `f32` or `f64`: help: consider comparing them \
     within some margin of error: `(x - y).abs() < error_margin`",
    "src/bounds.rs:32: this lint expectation is unfulfilled",
    // Wall clock: the imports, then each `::now` (the method and the
    // type-relative path both fire).
    "src/determinism.rs:3: use of a disallowed type `std::time::Instant`",
    "src/determinism.rs:3: use of a disallowed type `std::time::SystemTime`",
    "src/determinism.rs:7: use of a disallowed method `std::time::Instant::now`",
    "src/determinism.rs:7: use of a disallowed type `std::time::Instant`",
    "src/determinism.rs:8: use of a disallowed method `std::time::SystemTime::now`",
    "src/determinism.rs:8: use of a disallowed type `std::time::SystemTime`",
    // Hash iteration order, the environment and thread identity.
    "src/leaks.rs:4: use of a disallowed type `std::collections::HashMap`",
    "src/leaks.rs:7: use of a disallowed type `std::collections::HashMap`",
    "src/leaks.rs:19: use of a disallowed type `std::collections::HashMap`",
    "src/leaks.rs:27: use of a disallowed method `std::env::var`",
    "src/leaks.rs:32: use of a disallowed method `std::thread::current`",
    // Panic-freedom (the gated-crate header) and the `todo` deny.
    "src/panics.rs:5: used `unwrap()` on an `Option` value",
    "src/panics.rs:6: used `expect()` on an `Option` value",
    "src/panics.rs:8: `panic` should not be present in production code",
    "src/panics.rs:11: `todo` should not be present in production code",
    // Shared-mutable state, built inline without a type annotation.
    "src/shared.rs:5: use of a disallowed type `std::sync::Mutex`",
    "src/shared.rs:16: use of a disallowed type `std::sync::atomic::AtomicUsize`",
    "src/shared.rs:25: use of a disallowed type `std::cell::Cell`",
    "src/shared.rs:26: use of a disallowed type `std::cell::RefCell`",
    // Documentation: the undocumented module, struct and function.
    "src/lib.rs:23: missing documentation for a module",
    "src/docs.rs:3: missing documentation for a struct",
    "src/docs.rs:8: missing documentation for a function",
];

/// Every error the compile-fail fixture must draw, as `file:line: error[code]`.
const EXPECTED_ERRORS: &[&str] = &[
    // `NodeState::Suspect` outside `anubis-lifecycle`: no such item.
    "src/lib.rs:9: error[E0599]",
    // `total += …` inside a `map_chunks` closure: the closure is `Fn`.
    "src/lib.rs:17: error[E0594]",
    // A captured `RefCell` in a `map_chunks` closure: the closure is `Sync`.
    "src/lib.rs:26: error[E0277]",
];

/// Parses one `--message-format=short` line
/// (`src/x.rs:3:17: warning: message`) into `file:line: message`.
fn parse(line: &str) -> Option<String> {
    let (location, rest) = line.split_once(": ")?;
    let (file_line, _column) = location.rsplit_once(':')?;
    let message = rest
        .strip_prefix("warning: ")
        .or_else(|| rest.strip_prefix("error: "))?;
    Some(format!("{file_line}: {message}"))
}

/// Runs `cargo <subcommand>` on the fixture crate `name` and returns its
/// `--message-format=short` diagnostics.
fn run_on_fixture(subcommand: &str, name: &str) -> String {
    let xtask = Path::new(env!("CARGO_MANIFEST_DIR"));
    let output = Command::new(env!("CARGO"))
        .current_dir(xtask.join("tests/fixtures").join(name))
        .args([subcommand, "--offline", "--quiet", "--message-format=short"])
        .arg("--target-dir")
        .arg(xtask.join("../../target").join(format!("{name}-fixture")))
        .output()
        .expect("cargo runs");
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn clippy_flags_every_fixture_violation() {
    let stderr = run_on_fixture("clippy", "clippy");
    let found: BTreeSet<String> = stderr.lines().filter_map(parse).collect();
    let expected: BTreeSet<String> = EXPECTED.iter().map(|f| (*f).to_owned()).collect();
    assert_eq!(found, expected, "clippy output:\n{stderr}");
}

#[test]
fn rustc_rejects_every_compile_fail_case() {
    let stderr = run_on_fixture("check", "compile_fail");
    // `src/lib.rs:17:9: error[E0594]: …` → `src/lib.rs:17: error[E0594]`.
    let found: BTreeSet<String> = stderr
        .lines()
        .filter_map(|line| {
            let (location, rest) = line.split_once(": error[")?;
            let (file_line, _column) = location.rsplit_once(':')?;
            let (code, _message) = rest.split_once(']')?;
            Some(format!("{file_line}: error[{code}]"))
        })
        .collect();
    let expected: BTreeSet<String> = EXPECTED_ERRORS.iter().map(|f| (*f).to_owned()).collect();
    assert_eq!(found, expected, "cargo check output:\n{stderr}");
}

/// Whether a crate root carries the panic-freedom header: a
/// `#![cfg_attr(not(test), warn(…))]` naming every lint of [`PANIC_LINTS`].
fn has_panic_header(lib: &str) -> bool {
    lib.match_indices("#![cfg_attr(").any(|(at, _)| {
        let attr = &lib[at..];
        let attr = &attr[..attr.find(")]").map_or(attr.len(), |end| end + 2)];
        attr.contains("not(test)")
            && PANIC_LINTS.iter().all(|lint| {
                attr.split(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
                    .any(|word| word == format!("clippy::{lint}"))
            })
    })
}

/// The crate directories whose `lib.rs` carries the panic-freedom header.
fn crates_with_panic_header(root: &Path) -> BTreeSet<String> {
    let mut gated = BTreeSet::new();
    for entry in fs::read_dir(root.join("crates")).expect("list crates") {
        let dir = entry.expect("crate entry").path();
        let Ok(lib) = fs::read_to_string(dir.join("src/lib.rs")) else {
            continue;
        };
        if has_panic_header(&lib) {
            gated.insert(dir.file_name().unwrap().to_string_lossy().into_owned());
        }
    }
    gated
}

#[test]
fn gated_crates_match_the_lint_headers() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let listed: BTreeSet<String> = GATED_CRATES.iter().map(|c| (*c).to_owned()).collect();
    assert_eq!(
        crates_with_panic_header(&root),
        listed,
        "GATED_CRATES and the crates carrying the panic-freedom header must agree"
    );
}
