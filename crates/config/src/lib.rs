//! Sanctioned process-environment shim.
//!
//! ANUBIS promises bit-identical outputs for identical seeds, so the root
//! `clippy.toml` disallows `std::env::var` and friends — a run's result
//! must never depend on ambient process state. [`parsed`] is the one
//! sanctioned reader: every knob this crate serves is *performance-shaped
//! only* — today the worker-thread count — a value that changes
//! wall-clock time but never a computed number. Routing all env reads
//! through here keeps that contract auditable: a `std::env` read anywhere else fails clippy, and
//! a reviewer approving a new call-site *in this crate* is consciously
//! asserting the knob is determinism-neutral.
//!
//! The crate is a dependency leaf (std only) so even `anubis-parallel`,
//! which nothing else may depend on, can use it.

// Panic-freedom: clippy rejects every panic path in this crate's library
// code: unwrap/expect/panic!/unreachable!, indexing and slicing, integer
// `/` and `%`, and the assert family (disallowed in `clippy.toml`), plus
// float `==`. A justified site carries `#[expect(lint, reason = "…")]`,
// which fails once the site is gone; tests may panic freely.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::integer_division_remainder_used,
        clippy::float_cmp,
        clippy::disallowed_macros
    )
)]
#![forbid(unsafe_code)]

use std::str::FromStr;

/// The raw value of environment variable `name`, if set and valid
/// Unicode.
// The workspace's one sanctioned environment reader.
#[allow(clippy::disallowed_methods)]
fn raw(name: &str) -> Option<String> {
    std::env::var(name).ok()
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
