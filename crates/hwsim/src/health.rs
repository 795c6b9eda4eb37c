//! Component health and redundancy masking.

/// A redundant resource group (e.g. ToR uplinks, HBM spare rows, NVLink
/// lanes).
///
/// The paper's key observation (Section 2.2) is that redundancy *masks*
/// degradation: capacity only drops once failures eat past the masking
/// budget. For Azure's over-provisioned InfiniBand uplinks "more than half
/// of the redundant links must be functional" before congestion shows, so
/// the default masking budget is half the redundant units.
///
/// # Examples
///
/// ```
/// use anubis_hwsim::RedundantGroup;
///
/// // 8 uplinks of which 2 are redundant (25% over-provisioning).
/// let mut group = RedundantGroup::new(8, 2);
/// assert_eq!(group.capacity_factor(), 1.0);
/// group.break_units(1); // within the masking budget (half of 2)
/// assert_eq!(group.capacity_factor(), 1.0);
/// group.break_units(1); // past the budget: capacity degrades
/// assert!(group.capacity_factor() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedundantGroup {
    total: u32,
    redundant: u32,
    broken: u32,
}

impl RedundantGroup {
    /// Creates a group of `total` units of which `redundant` are extra
    /// capacity beyond what full performance needs.
    ///
    /// # Panics
    ///
    /// Panics if `redundant >= total`; a group must have some required
    /// capacity.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented precondition on a hardware spec constant"
    )]
    pub fn new(total: u32, redundant: u32) -> Self {
        assert!(
            redundant < total,
            "redundant units must be fewer than total"
        );
        Self {
            total,
            redundant,
            broken: 0,
        }
    }

    /// Units currently working.
    pub fn working(&self) -> u32 {
        self.total - self.broken
    }

    /// Units currently broken.
    pub fn broken(&self) -> u32 {
        self.broken
    }

    /// Total units.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Breaks up to `count` additional units (saturating at `total`).
    pub fn break_units(&mut self, count: u32) {
        self.broken = (self.broken + count).min(self.total);
    }

    /// Repairs everything.
    pub fn repair_all(&mut self) {
        self.broken = 0;
    }

    /// The number of failures that are fully masked: half the redundancy.
    #[expect(clippy::integer_division_remainder_used, reason = "a constant divisor")]
    pub fn masking_budget(&self) -> u32 {
        self.redundant / 2
    }

    /// Effective capacity multiplier in `(0, 1]`.
    ///
    /// Failures within the masking budget cost nothing; beyond it, capacity
    /// falls proportionally to the working units relative to the critical
    /// level `total − masking_budget`.
    pub fn capacity_factor(&self) -> f64 {
        if self.broken <= self.masking_budget() {
            return 1.0;
        }
        let critical = (self.total - self.masking_budget()) as f64;
        (self.working() as f64 / critical).clamp(0.0, 1.0)
    }

    /// Whether hidden damage exists: some units are broken but performance
    /// is still fully masked — the paper's "gray" state.
    pub fn has_hidden_damage(&self) -> bool {
        // `capacity_factor` is exactly 1 iff the failures fit the budget.
        self.broken > 0 && self.broken <= self.masking_budget()
    }
}

/// Row-remapping state of one GPU's HBM (Section 2.2, Table 1).
///
/// A100-class GPUs transparently remap degraded rows onto spare rows. The
/// remapping itself is invisible to software, but the paper found nodes with
/// more than 10 remapped correctable errors regress end-to-end with 83.3%
/// probability (vs. 5.6% for 1–10 errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowRemapState {
    /// Total correctable errors absorbed by remapping.
    pub correctable_errors: u32,
    /// Spare rows consumed.
    pub remapped_rows: u32,
}

impl RowRemapState {
    /// Records `errors` new correctable errors, each consuming a spare row.
    pub fn record_errors(&mut self, errors: u32) {
        self.correctable_errors += errors;
        self.remapped_rows += errors;
    }

    /// Clears the state (GPU replacement / full repair).
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// The paper's high-risk predicate: more than 10 correctable errors.
    pub fn is_high_risk(&self) -> bool {
        self.correctable_errors > 10
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redundancy_masks_then_degrades() {
        let mut g = RedundantGroup::new(8, 4); // masking budget = 2
        assert_eq!(g.masking_budget(), 2);
        g.break_units(2);
        assert_eq!(g.capacity_factor(), 1.0);
        assert!(g.has_hidden_damage());
        g.break_units(1);
        let f = g.capacity_factor();
        assert!(f < 1.0 && f > 0.0, "factor {f}");
        assert!(!g.has_hidden_damage());
    }

    #[test]
    fn capacity_factor_monotone_in_breaks() {
        let mut g = RedundantGroup::new(10, 4);
        let mut last = g.capacity_factor();
        for _ in 0..10 {
            g.break_units(1);
            let f = g.capacity_factor();
            assert!(f <= last + 1e-12);
            last = f;
        }
        assert_eq!(g.working(), 0);
        assert_eq!(g.capacity_factor(), 0.0);
    }

    #[test]
    fn repair_restores_full_capacity() {
        let mut g = RedundantGroup::new(6, 2);
        g.break_units(4);
        assert!(g.capacity_factor() < 1.0);
        g.repair_all();
        assert_eq!(g.capacity_factor(), 1.0);
        assert_eq!(g.working(), 6);
    }

    #[test]
    #[should_panic(expected = "redundant units must be fewer")]
    fn rejects_all_redundant_group() {
        RedundantGroup::new(4, 4);
    }

    #[test]
    fn row_remap_risk_threshold() {
        let mut r = RowRemapState::default();
        r.record_errors(5);
        assert!(!r.is_high_risk());
        r.record_errors(6);
        assert!(r.is_high_risk());
        assert_eq!(r.remapped_rows, 11);
        r.reset();
        assert_eq!(r.correctable_errors, 0);
    }
}
