//! Property-based tests for selection and survival invariants.

use anubis_benchsuite::BenchmarkId;
use anubis_selector::{
    model_accuracy, select_benchmarks, select_benchmarks_celf, select_benchmarks_eager,
    CoverageTable, ExponentialModel, ExponentialPerCountModel, NodeStatus, SurvivalModel,
    SurvivalSample,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn coverage_strategy() -> impl Strategy<Value = CoverageTable> {
    prop::collection::vec((0usize..31, 0u64..40), 0..120).prop_map(|records| {
        let mut table = CoverageTable::new();
        for (bench_idx, defect) in records {
            table.record(BenchmarkId::ALL[bench_idx], defect);
        }
        table
    })
}

/// The set-union definition of coverage that [`CoverageTable`]'s bitsets
/// must reproduce: one `BTreeSet` of defect ids per benchmark.
#[derive(Default)]
struct SetReference {
    by_benchmark: BTreeMap<BenchmarkId, BTreeSet<u64>>,
    all: BTreeSet<u64>,
}

impl SetReference {
    fn record(&mut self, benchmark: BenchmarkId, defect_id: u64) {
        self.by_benchmark
            .entry(benchmark)
            .or_default()
            .insert(defect_id);
        self.all.insert(defect_id);
    }

    fn defects_of(&self, benchmark: BenchmarkId) -> usize {
        self.by_benchmark.get(&benchmark).map_or(0, BTreeSet::len)
    }

    fn coverage(&self, subset: &[BenchmarkId]) -> f64 {
        if self.all.is_empty() {
            return 0.0;
        }
        let mut covered: BTreeSet<u64> = BTreeSet::new();
        for bench in subset {
            if let Some(set) = self.by_benchmark.get(bench) {
                covered.extend(set);
            }
        }
        covered.len() as f64 / self.all.len() as f64
    }

    fn defect_shares(&self) -> Vec<(BenchmarkId, f64)> {
        let total = self.all.len() as f64;
        let mut shares: Vec<(BenchmarkId, f64)> = self
            .by_benchmark
            .iter()
            .map(|(&b, set)| (b, set.len() as f64 / total))
            .collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        shares
    }
}

/// Records in arbitrary order: small ids repeat across benchmarks, wide
/// ones spread the table over several 64-bit words, and extreme ones sit
/// far from both.
fn history_strategy() -> impl Strategy<Value = Vec<(usize, u64)>> {
    let id = prop_oneof![0u64..40, 0u64..700, u64::MAX - 3..=u64::MAX];
    prop::collection::vec((0usize..31, id), 0..500)
}

/// Asserts every count and fraction of `table` equals the reference's,
/// bit for bit.
fn assert_matches_reference(
    table: &CoverageTable,
    reference: &SetReference,
    subsets: &[Vec<usize>],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(table.total_defects(), reference.all.len());
    for bench in BenchmarkId::ALL {
        prop_assert_eq!(table.defects_of(bench), reference.defects_of(bench));
    }
    let bits = |shares: Vec<(BenchmarkId, f64)>| -> Vec<(BenchmarkId, u64)> {
        shares.into_iter().map(|(b, s)| (b, s.to_bits())).collect()
    };
    prop_assert_eq!(bits(table.defect_shares()), bits(reference.defect_shares()));
    for picks in subsets {
        let subset: Vec<BenchmarkId> = picks.iter().map(|&i| BenchmarkId::ALL[i]).collect();
        prop_assert_eq!(
            table.coverage(&subset).to_bits(),
            reference.coverage(&subset).to_bits(),
            "subset {:?}",
            subset
        );
    }
    Ok(())
}

/// The table keeps benchmark `b`'s bitset at `b as usize`, and lists
/// shares in `ALL` order, which must therefore be `Ord` order.
#[test]
fn benchmarks_sit_at_declaration_positions_in_ord_order() {
    for (i, &bench) in BenchmarkId::ALL.iter().enumerate() {
        assert_eq!(bench as usize, i);
    }
    assert!(BenchmarkId::ALL.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn empty_table_matches_reference() {
    let subsets = [vec![], vec![0], vec![3, 3, 30]];
    assert_matches_reference(&CoverageTable::new(), &SetReference::default(), &subsets).unwrap();
}

proptest! {
    /// The bitset table reproduces the set-union reference on every query,
    /// for subsets with repeated benchmarks and benchmarks without history.
    #[test]
    fn bitset_table_matches_set_reference(
        records in history_strategy(),
        subsets in prop::collection::vec(prop::collection::vec(0usize..31, 0..40), 1..8),
    ) {
        let mut table = CoverageTable::new();
        let mut reference = SetReference::default();
        for &(bench_idx, defect) in &records {
            table.record(BenchmarkId::ALL[bench_idx], defect);
            reference.record(BenchmarkId::ALL[bench_idx], defect);
        }
        assert_matches_reference(&table, &reference, &subsets)?;
    }

    /// Selection always returns a subset of the candidates, without
    /// duplicates, and its residual probability never exceeds the
    /// unvalidated probability.
    #[test]
    fn selection_is_a_proper_subset(
        table in coverage_strategy(),
        rate_inv in 20.0f64..2000.0,
        p0 in 0.0f64..0.9,
        nodes in 1usize..16,
    ) {
        let model = ExponentialModel { rate: 1.0 / rate_inv };
        let statuses = vec![NodeStatus::fresh(); nodes];
        let subset = select_benchmarks(&model, &statuses, 36.0, &table, &BenchmarkId::ALL, p0);
        prop_assert!(subset.len() <= BenchmarkId::ALL.len());
        let mut dedup = subset.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), subset.len(), "no duplicates");
        use anubis_selector::select::residual_probability;
        let before = residual_probability(&model, &statuses, 36.0, &table, &[]);
        let after = residual_probability(&model, &statuses, 36.0, &table, &subset);
        prop_assert!(after <= before + 1e-12);
    }

    /// The lazy-greedy (CELF) path returns the eager scan's exact
    /// benchmark sequence — same identities, same order — for arbitrary
    /// coverage histories, candidate lists, risk levels and thresholds.
    /// Runtime ratios in the suite make real-value efficiency ties
    /// common (e.g. marginal 2 over 4 minutes vs 1 over 2), so this also
    /// exercises the keep-the-earliest tie handling at full bit
    /// fidelity.
    #[test]
    fn celf_selection_is_bit_identical_to_eager(
        table in coverage_strategy(),
        candidate_mask in 0u32..(1u32 << 31),
        rate_inv in 20.0f64..2000.0,
        p0 in 0.0f64..0.9,
        nodes in 1usize..16,
    ) {
        let candidates: Vec<BenchmarkId> = BenchmarkId::ALL
            .iter()
            .enumerate()
            .filter(|&(i, _)| candidate_mask & (1 << i) != 0)
            .map(|(_, &b)| b)
            .collect();
        let model = ExponentialModel { rate: 1.0 / rate_inv };
        let statuses = vec![NodeStatus::fresh(); nodes];
        let eager =
            select_benchmarks_eager(&model, &statuses, 36.0, &table, &candidates, p0);
        let celf = select_benchmarks_celf(&model, &statuses, 36.0, &table, &candidates, p0);
        prop_assert_eq!(celf, eager);
    }

    /// Coverage is monotone and bounded for arbitrary histories.
    #[test]
    fn coverage_is_monotone_and_bounded(table in coverage_strategy(), split in 0usize..31) {
        let all = BenchmarkId::ALL;
        let partial = &all[..split];
        let c_partial = table.coverage(partial);
        let c_full = table.coverage(&all);
        prop_assert!((0.0..=1.0).contains(&c_partial));
        prop_assert!(c_partial <= c_full + 1e-12);
        if table.total_defects() > 0 {
            prop_assert!((c_full - 1.0).abs() < 1e-12, "ALL covers everything recorded");
        }
    }

    /// Survival-model sanity under arbitrary fitted data: probabilities
    /// in [0, 1] and monotone in the horizon; accuracy in [0, 1].
    #[test]
    fn survival_model_sanity(
        durations in prop::collection::vec(1.0f64..2400.0, 4..60),
        counts in prop::collection::vec(0u32..12, 4..60),
        horizon in 1.0f64..500.0,
    ) {
        let samples: Vec<SurvivalSample> = durations
            .iter()
            .zip(counts.iter().cycle())
            .map(|(&duration, &count)| {
                let mut status = NodeStatus::fresh();
                status.advance(100.0);
                for _ in 0..count {
                    status.record_incident(
                        anubis_hwsim::fault::IncidentCategory::GpuCompute,
                    );
                }
                SurvivalSample { status, duration, event: true }
            })
            .collect();
        for model in [
            Box::new(ExponentialModel::fit(&samples)) as Box<dyn SurvivalModel + Sync>,
            Box::new(ExponentialPerCountModel::fit(&samples)),
        ] {
            let status = samples[0].status;
            let p_short = model.incident_probability(&status, horizon);
            let p_long = model.incident_probability(&status, horizon * 2.0);
            prop_assert!((0.0..=1.0).contains(&p_short));
            prop_assert!(p_long >= p_short - 1e-12);
            let tbni = model.expected_tbni(&status);
            prop_assert!(tbni > 0.0 && tbni <= 2400.0);
            let acc = model_accuracy(model.as_ref(), &samples);
            prop_assert!((0.0..=1.0).contains(&acc));
        }
    }
}
