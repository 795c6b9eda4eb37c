//! Historical defect coverage per benchmark.

use anubis_benchsuite::BenchmarkId;
use std::collections::BTreeMap;

/// Which historical defects each benchmark identified.
///
/// Algorithm 1 defines a subset's coverage `C` as the fraction of all
/// historically-identified defective nodes the subset would have caught —
/// overlapping sets counted once (the paper's `{B₁, B₂}` example).
///
/// Each distinct defect id gets a dense bit index in first-seen order, and
/// each benchmark keeps one bitset over those indices, so a subset's union
/// is a word-wise OR plus a popcount with no allocation.
///
/// # Examples
///
/// ```
/// use anubis_benchsuite::BenchmarkId;
/// use anubis_selector::CoverageTable;
///
/// let mut table = CoverageTable::new();
/// table.record(BenchmarkId::IbHcaLoopback, 1);
/// table.record(BenchmarkId::IbHcaLoopback, 2);
/// table.record(BenchmarkId::GpuGemmFp16, 2);
/// table.record(BenchmarkId::GpuGemmFp16, 3);
/// // Union {1,2} ∪ {2,3} = 3 of 3 defects.
/// let subset = [BenchmarkId::IbHcaLoopback, BenchmarkId::GpuGemmFp16];
/// assert_eq!(table.coverage(&subset), 1.0);
/// assert!((table.coverage(&[BenchmarkId::IbHcaLoopback]) - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CoverageTable {
    /// Bit index of every recorded defect id, assigned in first-seen order.
    bit_of: BTreeMap<u64, usize>,
    /// One defect bitset per benchmark, at its declaration position
    /// (`BenchmarkId as usize`, which is its [`BenchmarkId::ALL`] index).
    /// A row ends at its highest nonzero word; missing words are zero.
    rows: [Vec<u64>; BenchmarkId::ALL.len()],
}

impl CoverageTable {
    /// An empty table (no history yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `benchmark` identified defect instance `defect_id`.
    ///
    /// Defect ids identify *defect occurrences* (e.g. node × validation),
    /// so the same node failing twice counts as two instances.
    pub fn record(&mut self, benchmark: BenchmarkId, defect_id: u64) {
        let next = self.bit_of.len();
        let bit = *self.bit_of.entry(defect_id).or_insert(next);
        if let Some(row) = self.rows.get_mut(benchmark as usize) {
            let word = bit / 64;
            if row.len() <= word {
                row.resize(word + 1, 0);
            }
            if let Some(w) = row.get_mut(word) {
                *w |= 1 << (bit % 64);
            }
        }
    }

    /// Total historical defect instances.
    pub fn total_defects(&self) -> usize {
        self.bit_of.len()
    }

    /// Defects attributed to one benchmark.
    pub fn defects_of(&self, benchmark: BenchmarkId) -> usize {
        self.bits_of(benchmark)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// One benchmark's defect bitset: bit `k` is the `k`-th distinct defect
    /// id recorded. The CELF mask builder copies these rows.
    pub(crate) fn bits_of(&self, benchmark: BenchmarkId) -> &[u64] {
        self.rows.get(benchmark as usize).map_or(&[], Vec::as_slice)
    }

    /// Coverage of a benchmark subset: `|union of their defect sets| /
    /// |all defects|`. Returns 0 with no history (conservative: an unknown
    /// subset prevents nothing).
    pub fn coverage(&self, subset: &[BenchmarkId]) -> f64 {
        let total = self.bit_of.len();
        if total == 0 {
            return 0.0;
        }
        let mut covered = 0usize;
        for w in 0..total.div_ceil(64) {
            let word = subset.iter().fold(0u64, |acc, &bench| {
                acc | self.bits_of(bench).get(w).copied().unwrap_or(0)
            });
            covered += word.count_ones() as usize;
        }
        covered as f64 / total as f64
    }

    /// Marginal defects a benchmark adds on top of a subset.
    pub fn marginal_coverage(&self, subset: &[BenchmarkId], candidate: BenchmarkId) -> f64 {
        let mut with = subset.to_vec();
        with.push(candidate);
        self.coverage(&with) - self.coverage(subset)
    }

    /// Per-benchmark defect share (for Table 6-style reporting), sorted
    /// descending.
    pub fn defect_shares(&self) -> Vec<(BenchmarkId, f64)> {
        let total = self.bit_of.len() as f64;
        // `ALL` is in `Ord` order, so equal shares keep ascending ids.
        let mut shares: Vec<(BenchmarkId, f64)> = BenchmarkId::ALL
            .iter()
            .map(|&b| (b, self.defects_of(b)))
            .filter(|&(_, n)| n > 0)
            .map(|(b, n)| (b, n as f64 / total))
            .collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        shares
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_covers_nothing() {
        let table = CoverageTable::new();
        assert_eq!(table.coverage(&[BenchmarkId::GpuGemmFp16]), 0.0);
        assert_eq!(table.total_defects(), 0);
        assert!(table.defect_shares().is_empty());
    }

    #[test]
    fn paper_example_overlap() {
        // B identified 10 defects; B1 found {1,2} (C=0.2), B2 found
        // {2,3,4} (C=0.3); together they cover 4 => C=0.4.
        let mut table = CoverageTable::new();
        for d in 1..=10u64 {
            table.record(BenchmarkId::GpuStress, d); // the rest of B
        }
        table.record(BenchmarkId::IbHcaLoopback, 1);
        table.record(BenchmarkId::IbHcaLoopback, 2);
        for d in [2u64, 3, 4] {
            table.record(BenchmarkId::GpuGemmFp16, d);
        }
        assert!((table.coverage(&[BenchmarkId::IbHcaLoopback]) - 0.2).abs() < 1e-12);
        assert!((table.coverage(&[BenchmarkId::GpuGemmFp16]) - 0.3).abs() < 1e-12);
        assert!(
            (table.coverage(&[BenchmarkId::IbHcaLoopback, BenchmarkId::GpuGemmFp16]) - 0.4).abs()
                < 1e-12
        );
    }

    #[test]
    fn marginal_coverage_accounts_for_overlap() {
        let mut table = CoverageTable::new();
        table.record(BenchmarkId::IbHcaLoopback, 1);
        table.record(BenchmarkId::IbHcaLoopback, 2);
        table.record(BenchmarkId::GpuGemmFp16, 2);
        let marginal =
            table.marginal_coverage(&[BenchmarkId::IbHcaLoopback], BenchmarkId::GpuGemmFp16);
        assert_eq!(marginal, 0.0, "defect 2 already covered");
    }

    #[test]
    fn coverage_is_monotone_in_subset() {
        let mut table = CoverageTable::new();
        table.record(BenchmarkId::CpuLatency, 1);
        table.record(BenchmarkId::DiskSeqRead, 2);
        table.record(BenchmarkId::GpuBurn, 3);
        let c1 = table.coverage(&[BenchmarkId::CpuLatency]);
        let c2 = table.coverage(&[BenchmarkId::CpuLatency, BenchmarkId::DiskSeqRead]);
        let c3 = table.coverage(&[
            BenchmarkId::CpuLatency,
            BenchmarkId::DiskSeqRead,
            BenchmarkId::GpuBurn,
        ]);
        assert!(c1 < c2 && c2 < c3);
        assert_eq!(c3, 1.0);
    }

    #[test]
    fn shares_sort_descending() {
        let mut table = CoverageTable::new();
        for d in 0..5u64 {
            table.record(BenchmarkId::IbHcaLoopback, d);
        }
        table.record(BenchmarkId::CpuLatency, 100);
        let shares = table.defect_shares();
        assert_eq!(shares[0].0, BenchmarkId::IbHcaLoopback);
        assert!(shares[0].1 > shares[1].1);
    }
}
