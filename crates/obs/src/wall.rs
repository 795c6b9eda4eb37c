//! Wall-clock timing, feature-gated behind `wallclock`.
//!
//! This module is the workspace's **only** sanctioned `std::time` facade:
//! the root `clippy.toml` disallows `Instant`/`SystemTime` everywhere
//! else. Wall-clock readings are for operator-facing progress output only
//! (e.g. the repro binary's per-experiment runtime header); they must
//! never flow into results or trace records — traces carry virtual time
//! exclusively.

// The sanctioned wall-clock facade: readings reach stderr and side
// channels only.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::time::Instant;

/// A started wall-clock stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a stopwatch at the current wall-clock instant.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_non_negative_and_increases() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_secs();
        let b = sw.elapsed_secs();
        assert!(a >= 0.0);
        assert!(b >= a);
    }
}
