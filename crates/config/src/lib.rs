//! Sanctioned process-environment shim.
//!
//! ANUBIS promises bit-identical outputs for identical seeds, so the root
//! `clippy.toml` disallows `std::env::var` and friends — a run's result
//! must never depend on ambient process state. [`raw`] is the one
//! sanctioned reader: every knob this crate serves is *performance-shaped
//! only* — thread counts, incremental-path toggles, perf-gate tolerances
//! — values that change wall-clock time or gate strictness but never a
//! computed number. Routing all env reads through here keeps that
//! contract auditable: a `std::env` read anywhere else fails clippy, and
//! a reviewer approving a new call-site *in this crate* is consciously
//! asserting the knob is determinism-neutral.
//!
//! The crate is a dependency leaf (std only) so even `anubis-parallel`,
//! which nothing else may depend on, can use it.
#![forbid(unsafe_code)]

use std::str::FromStr;

/// The raw value of environment variable `name`, if set and valid
/// Unicode. Use when the caller must distinguish *unset* from *invalid*
/// (the perf gate reports a typo in its tolerance override instead of
/// silently falling back).
#[must_use]
// The workspace's one sanctioned environment reader.
#[allow(clippy::disallowed_methods)]
pub fn raw(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// Boolean knob: `default` when `name` is unset, `false` when its
/// trimmed value is `"0"`, `true` otherwise. This is the fleet-script
/// convention (`ANUBIS_INCREMENTAL=0` disables, anything else enables).
#[must_use]
pub fn enabled(name: &str, default: bool) -> bool {
    raw(name).map_or(default, |v| v.trim() != "0")
}

/// Parses the trimmed value of `name`, returning `None` when the
/// variable is unset or fails to parse. Callers supply their own default
/// via `unwrap_or`.
#[must_use]
pub fn parsed<T: FromStr>(name: &str) -> Option<T> {
    raw(name).and_then(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Process-global state: each test uses its own variable name so
    // parallel test threads never race on a shared key.

    #[test]
    fn enabled_honors_default_and_zero() {
        let name = "ANUBIS_CONFIG_TEST_ENABLED";
        assert!(enabled(name, true));
        assert!(!enabled(name, false));
        std::env::set_var(name, "0");
        assert!(!enabled(name, true));
        std::env::set_var(name, " 0 ");
        assert!(!enabled(name, true));
        std::env::set_var(name, "1");
        assert!(enabled(name, false));
        std::env::set_var(name, "yes");
        assert!(enabled(name, false));
        std::env::remove_var(name);
    }

    #[test]
    fn parsed_trims_and_rejects_garbage() {
        let name = "ANUBIS_CONFIG_TEST_PARSED";
        assert_eq!(parsed::<usize>(name), None);
        std::env::set_var(name, " 12 ");
        assert_eq!(parsed::<usize>(name), Some(12));
        std::env::set_var(name, "twelve");
        assert_eq!(parsed::<usize>(name), None);
        std::env::remove_var(name);
    }

    #[test]
    fn raw_distinguishes_unset_from_set() {
        let name = "ANUBIS_CONFIG_TEST_RAW";
        assert_eq!(raw(name), None);
        std::env::set_var(name, "0.4");
        assert_eq!(raw(name).as_deref(), Some("0.4"));
        std::env::remove_var(name);
    }
}
