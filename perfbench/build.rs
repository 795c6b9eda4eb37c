//! Records the toolchain facts every result carries: the rustc version and
//! the `target-cpu` code-generation flag the benchmark was built with.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    // CARGO_ENCODED_RUSTFLAGS separates flags with 0x1f; `-C target-cpu=X`
    // may arrive as one flag or as two.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let target_cpu = flags
        .split('\u{1f}')
        .find_map(|flag| flag.trim_start_matches("-C").strip_prefix("target-cpu="))
        .unwrap_or("default")
        .to_string();
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_TARGET_CPU={target_cpu}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
