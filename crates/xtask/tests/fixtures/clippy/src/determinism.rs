//! Fixture: wall-clock reads.

use std::time::{Instant, SystemTime};

/// Measures elapsed time the wrong way.
pub fn elapsed() -> u64 {
    let start = Instant::now();
    let _ = SystemTime::now();
    start.elapsed().as_secs()
}

#[cfg(test)]
mod tests {
    use std::time::Instant; // exempt: test-only code
}
