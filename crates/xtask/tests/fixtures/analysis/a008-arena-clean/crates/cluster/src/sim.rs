//! A008 arena-clean-mode fixture: a direct allocation inside an
//! arena-clean function.

/// Registered `ArenaClean` in `AnalysisConfig::alloc_entries`: all
/// per-call scratch must come from `anubis-arena`, so the direct `vec!`
/// below is an enforced finding even though it never escapes.
pub fn try_allocate(n: usize) -> usize {
    let scratch = vec![0u32; n];
    scratch.len()
}
