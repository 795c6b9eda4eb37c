//! Fixture: ambient nondeterminism — hash iteration order, the process
//! environment and thread identity.

use std::collections::HashMap;

/// Folds link loads in whatever order the hasher yields.
pub fn first_loaded(loads: &HashMap<u32, u64>) -> u32 {
    let mut found = 0;
    for (port, load) in loads {
        if *load > 0 && found == 0 {
            found = *port;
        }
    }
    found
}

/// Per-slot outputs whose body reads a hash container: the iteration
/// order leaks into every slot.
pub fn spread(m: &HashMap<u32, f64>, slots: usize) -> Vec<f64> {
    (0..slots)
        .map(|i| m.values().copied().next().unwrap_or(0.0) + i as f64)
        .collect()
}

/// Reads a knob straight from the environment.
pub fn deep() -> bool {
    std::env::var("FIXTURE_KNOB").is_ok()
}

/// Names the thread it happens to run on.
pub fn worker_name() -> Option<String> {
    std::thread::current().name().map(str::to_owned)
}
