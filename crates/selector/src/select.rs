//! Greedy benchmark selection (paper Algorithm 1).

use crate::coverage::CoverageTable;
use crate::status::NodeStatus;
use crate::survival::SurvivalModel;
use anubis_benchsuite::BenchmarkId;
use anubis_lifecycle::LifecycleEvent;

/// Joint probability that at least one node in the set has an incident
/// within `horizon` hours: `p = 1 − Π (1 − pₙ)`.
pub fn joint_incident_probability(
    model: &dyn SurvivalModel,
    statuses: &[NodeStatus],
    horizon: f64,
) -> f64 {
    1.0 - model.joint_survival(statuses, horizon)
}

/// The residual incident probability after validating with `subset`
/// (Algorithm 1's `IncidentProb`): `p × (1 − C(subset))`.
pub fn residual_probability(
    model: &dyn SurvivalModel,
    statuses: &[NodeStatus],
    horizon: f64,
    coverage: &CoverageTable,
    subset: &[BenchmarkId],
) -> f64 {
    joint_incident_probability(model, statuses, horizon) * (1.0 - coverage.coverage(subset))
}

/// Algorithm 1: greedily add the benchmark with the highest probability
/// decrease per unit time until the residual probability drops below `p0`
/// or the full candidate set is selected.
///
/// Returns the selected subset in selection order. An empty return means
/// validation can be skipped entirely (`p ≤ p0` with no benchmarks).
///
/// Runs the lazy-greedy (CELF) implementation, which returns the same
/// benchmark sequence as [`select_benchmarks_eager`] (see [`celf_core`]
/// for the argument, and the property tests for the evidence).
pub fn select_benchmarks(
    model: &dyn SurvivalModel,
    statuses: &[NodeStatus],
    horizon: f64,
    coverage: &CoverageTable,
    candidates: &[BenchmarkId],
    p0: f64,
) -> Vec<BenchmarkId> {
    select_benchmarks_celf(model, statuses, horizon, coverage, candidates, p0)
}

/// The eager reference implementation of Algorithm 1: every round rescans
/// all remaining candidates and recomputes each one's coverage union from
/// scratch. Kept as the semantic baseline the CELF path is proven
/// against.
pub fn select_benchmarks_eager(
    model: &dyn SurvivalModel,
    statuses: &[NodeStatus],
    horizon: f64,
    coverage: &CoverageTable,
    candidates: &[BenchmarkId],
    p0: f64,
) -> Vec<BenchmarkId> {
    let _span = anubis_obs::span!("selector.select_benchmarks");
    let mut subset: Vec<BenchmarkId> = Vec::new();
    let mut p = residual_probability(model, statuses, horizon, coverage, &subset);
    while p > p0 && subset.len() < candidates.len() {
        // Pick the candidate with the best Δp per minute.
        let mut best: Option<(BenchmarkId, f64)> = None;
        for &candidate in candidates.iter().filter(|c| !subset.contains(c)) {
            let mut with = subset.clone();
            with.push(candidate);
            let delta = p - residual_probability(model, statuses, horizon, coverage, &with);
            let efficiency = delta / candidate.spec().runtime_minutes;
            match best {
                Some((_, e)) if e >= efficiency => {}
                _ => best = Some((candidate, efficiency)),
            }
        }
        let Some((choice, efficiency)) = best else {
            break;
        };
        if efficiency <= 0.0 && !subset.is_empty() {
            // No remaining benchmark reduces the probability: adding more
            // wastes node hours.
            break;
        }
        subset.push(choice);
        p = residual_probability(model, statuses, horizon, coverage, &subset);
    }
    anubis_obs::counter!("selector.benchmarks_selected", subset.len() as i64);
    subset
}

/// Algorithm 1 via lazy-greedy (CELF) selection: coverage sets become
/// fixed-width bitmasks, and each round consults a max-priority queue of
/// cached efficiencies instead of rescanning every candidate.
///
/// Returns the same benchmark sequence as [`select_benchmarks_eager`] —
/// bit-for-bit, not approximately (see [`celf_core`]).
#[expect(clippy::indexing_slicing, reason = "CELF picks are candidate indices")]
pub fn select_benchmarks_celf(
    model: &dyn SurvivalModel,
    statuses: &[NodeStatus],
    horizon: f64,
    coverage: &CoverageTable,
    candidates: &[BenchmarkId],
    p0: f64,
) -> Vec<BenchmarkId> {
    let _span = anubis_obs::span!("selector.select_benchmarks");
    let masks = CoverageMasks::build(coverage, candidates);
    let p_joint = joint_incident_probability(model, statuses, horizon);
    let mut scratch = CelfScratch::default();
    let mut picks = Vec::new();
    let evaluations = celf_core(&masks, p_joint, p0, &mut scratch, &mut picks);
    anubis_obs::counter!("selector.celf_evaluations", evaluations as i64);
    let subset: Vec<BenchmarkId> = picks.iter().map(|&i| candidates[i as usize]).collect();
    anubis_obs::counter!("selector.benchmarks_selected", subset.len() as i64);
    subset
}

/// A [`CoverageTable`] flattened to per-candidate defect bitmasks.
///
/// Bit `k` stands for the `k`-th distinct defect id the table recorded
/// (first-seen order, not ascending id: only union *counts* enter the
/// efficiencies, so the bit order cannot change a pick). Each candidate's
/// mask is one row of `words` consecutive `u64`s, so union coverage is a
/// word-wise OR plus a popcount.
#[derive(Debug, Clone)]
pub struct CoverageMasks {
    words: usize,
    masks: Vec<u64>,
    runtimes: Vec<f64>,
    universe: usize,
}

impl CoverageMasks {
    /// Flattens `coverage` over a fixed candidate list: each row is the
    /// candidate's table bitset, zero-padded to the universe's width.
    pub fn build(coverage: &CoverageTable, candidates: &[BenchmarkId]) -> Self {
        let universe = coverage.total_defects();
        let words = universe.div_ceil(64).max(1);
        let mut masks = Vec::with_capacity(words * candidates.len());
        let mut runtimes = Vec::with_capacity(candidates.len());
        for &bench in candidates {
            let row = coverage.bits_of(bench).iter().copied();
            masks.extend(row.chain(std::iter::repeat(0)).take(words));
            runtimes.push(bench.spec().runtime_minutes);
        }
        Self {
            words,
            masks,
            runtimes,
            universe,
        }
    }

    /// Number of candidates in the mask table.
    pub fn candidates(&self) -> usize {
        self.runtimes.len()
    }

    /// Number of distinct defects (bits) in the universe.
    pub fn universe(&self) -> usize {
        self.universe
    }
}

/// Reusable buffers for [`celf_core`] — hold one across selection rounds
/// to keep the hot loop allocation-free.
#[derive(Debug, Default)]
pub struct CelfScratch {
    covered: Vec<u64>,
    chosen: Vec<bool>,
    marginal: Vec<u32>,
    heap: Vec<CelfEntry>,
}

/// One priority-queue entry: a candidate and its efficiency upper bound
/// for the current round.
#[derive(Debug, Clone, Copy)]
struct CelfEntry {
    bound: f64,
    index: u32,
}

/// Heap priority: higher bound first; equal bounds resolve to the lower
/// candidate index, matching the eager loop's keep-the-earliest tie
/// handling. Numeric (not total-order) comparison on purpose: the eager
/// path compares efficiencies numerically.
#[expect(
    clippy::float_cmp,
    reason = "exact ties break by index, so the order is total and deterministic"
)]
fn celf_better(a: CelfEntry, b: CelfEntry) -> bool {
    a.bound > b.bound || (a.bound == b.bound && a.index < b.index)
}

/// Covered fraction with the batch path's empty-universe convention
/// ([`CoverageTable::coverage`] returns 0 with no history).
fn celf_fraction(count: usize, universe: usize) -> f64 {
    if universe == 0 {
        0.0
    } else {
        count as f64 / universe as f64
    }
}

/// The eager loop's efficiency expression, operation for operation:
/// `(p − p_joint·(1 − C_with)) / runtime`. Weakly monotone in
/// `covered_with` even under IEEE rounding (every step — conversion,
/// division by a positive constant, subtraction from a constant,
/// multiplication by a non-negative constant — is monotone, and rounding
/// preserves weak order), which is what makes cached marginal counts
/// usable as exact efficiency upper bounds.
fn celf_efficiency(
    p: f64,
    p_joint: f64,
    covered_with: usize,
    universe: usize,
    runtime: f64,
) -> f64 {
    let residual = p_joint * (1.0 - celf_fraction(covered_with, universe));
    (p - residual) / runtime
}

/// Sift entry `i` down to its heap position.
#[expect(
    clippy::indexing_slicing,
    reason = "`i` and the children checked against `heap.len()` are in the heap"
)]
fn celf_sift_down(heap: &mut [CelfEntry], mut i: usize) {
    loop {
        let left = 2 * i + 1;
        if left >= heap.len() {
            return;
        }
        let right = left + 1;
        let mut top = if celf_better(heap[left], heap[i]) {
            left
        } else {
            i
        };
        if right < heap.len() && celf_better(heap[right], heap[top]) {
            top = right;
        }
        if top == i {
            return;
        }
        heap.swap(i, top);
        i = top;
    }
}

/// Floyd heap construction over the freshly refilled entry buffer.
#[expect(clippy::integer_division_remainder_used, reason = "a constant divisor")]
fn celf_heapify(heap: &mut [CelfEntry]) {
    let mut i = heap.len() / 2;
    while i > 0 {
        i -= 1;
        celf_sift_down(heap, i);
    }
}

/// Pops the max-priority entry.
fn celf_pop_top(heap: &mut Vec<CelfEntry>) -> Option<CelfEntry> {
    if heap.len() > 1 {
        let last = heap.len() - 1;
        heap.swap(0, last);
    }
    let top = heap.pop();
    celf_sift_down(heap, 0);
    top
}

/// Popcount of candidate `c`'s mask row.
#[expect(
    clippy::indexing_slicing,
    reason = "row `c` of the masks spans words `c * words..(c + 1) * words`"
)]
fn celf_row_popcount(masks: &CoverageMasks, c: usize) -> u32 {
    let row = &masks.masks[c * masks.words..(c + 1) * masks.words];
    let mut count = 0u32;
    for &word in row {
        count += word.count_ones();
    }
    count
}

/// Popcount of `covered ∪ mask(c)` without materialising the union.
#[expect(
    clippy::indexing_slicing,
    reason = "row `c` of the masks spans words `c * words..(c + 1) * words`, and `covered` has `words` words"
)]
fn celf_union_popcount(masks: &CoverageMasks, covered: &[u64], c: usize) -> usize {
    let row = &masks.masks[c * masks.words..(c + 1) * masks.words];
    let mut count = 0usize;
    for (w, &word) in row.iter().enumerate() {
        count += (covered[w] | word).count_ones() as usize;
    }
    count
}

/// ORs candidate `c`'s mask row into the covered set.
#[expect(
    clippy::indexing_slicing,
    reason = "row `c` of the masks spans words `c * words..(c + 1) * words`, and `covered` has `words` words"
)]
fn celf_or_row(covered: &mut [u64], masks: &CoverageMasks, c: usize) {
    let row = &masks.masks[c * masks.words..(c + 1) * masks.words];
    for (w, &word) in row.iter().enumerate() {
        covered[w] |= word;
    }
}

/// Total popcount of the covered set.
fn celf_popcount(covered: &[u64]) -> usize {
    let mut count = 0usize;
    for &word in covered {
        count += word.count_ones() as usize;
    }
    count
}

/// The CELF selection loop. Appends the chosen candidate indices (into
/// the mask table's candidate order) to `selected` and returns how many
/// full coverage-union evaluations were performed — the work the lazy
/// queue saves relative to eager's `rounds × candidates`.
///
/// # Equivalence to the eager loop
///
/// Each candidate carries its marginal defect *count* from its most
/// recent evaluation. Marginal counts are exact integers and
/// non-increasing as the covered set grows (submodularity), so a cached
/// count is an upper bound on the current one. At the start of each
/// round every unselected candidate's cached count is converted to an
/// efficiency *bound* through `celf_efficiency` with the **current**
/// residual `p` — by that function's float monotonicity the bound is
/// `≥` the candidate's true current efficiency, with bit-exact equality
/// when the cached count is still fresh. The queue then yields
/// candidates in `(bound desc, index asc)` order; each is re-evaluated
/// until the incumbent best can no longer be beaten (nor tied by a
/// smaller index). The surviving `(max efficiency, min index)` pick is
/// exactly the eager scan's keep-the-earliest argmax, so the selected
/// sequence — and every residual-probability update that follows — is
/// bit-identical.
#[expect(
    clippy::float_cmp,
    clippy::indexing_slicing,
    reason = "the scratch arrays and `runtimes` have one entry per candidate; exact efficiency ties break by index"
)]
pub fn celf_core(
    masks: &CoverageMasks,
    p_joint: f64,
    p0: f64,
    scratch: &mut CelfScratch,
    selected: &mut Vec<u32>,
) -> u64 {
    selected.clear();
    let n = masks.runtimes.len();
    scratch.covered.clear();
    scratch.covered.resize(masks.words, 0);
    scratch.chosen.clear();
    scratch.chosen.resize(n, false);
    scratch.marginal.clear();
    scratch.marginal.resize(n, 0);
    // Seed the stale marginals with each candidate's own defect count —
    // its exact marginal against the empty covered set.
    for c in 0..n {
        scratch.marginal[c] = celf_row_popcount(masks, c);
    }
    let mut count = 0usize;
    let mut p = p_joint * (1.0 - celf_fraction(count, masks.universe));
    let mut evaluations = 0u64;
    while p > p0 && selected.len() < n {
        // Refresh every unselected candidate's bound against the current
        // residual. This is O(n) float work; the expensive coverage
        // unions below run only until the incumbent is provably best.
        scratch.heap.clear();
        for c in 0..n {
            if scratch.chosen[c] {
                continue;
            }
            let with = count + scratch.marginal[c] as usize;
            let bound = celf_efficiency(p, p_joint, with, masks.universe, masks.runtimes[c]);
            scratch.heap.push(CelfEntry {
                bound,
                index: c as u32,
            });
        }
        celf_heapify(&mut scratch.heap);
        let mut best: Option<(f64, u32)> = None;
        while let Some(top) = celf_pop_top(&mut scratch.heap) {
            if let Some((best_eff, best_index)) = best {
                // Remaining bounds are ≤ this one; once the incumbent can
                // neither be beaten nor tied by a smaller index, stop.
                if top.bound < best_eff || (top.bound == best_eff && best_index < top.index) {
                    break;
                }
            }
            let c = top.index as usize;
            let with = celf_union_popcount(masks, &scratch.covered, c);
            scratch.marginal[c] = (with - count) as u32;
            evaluations += 1;
            let efficiency = celf_efficiency(p, p_joint, with, masks.universe, masks.runtimes[c]);
            let replace = match best {
                None => true,
                Some((best_eff, best_index)) => {
                    efficiency > best_eff || (efficiency == best_eff && top.index < best_index)
                }
            };
            if replace {
                best = Some((efficiency, top.index));
            }
        }
        let Some((efficiency, index)) = best else {
            break;
        };
        if efficiency <= 0.0 && !selected.is_empty() {
            // No remaining benchmark reduces the probability: adding more
            // wastes node hours.
            break;
        }
        selected.push(index);
        scratch.chosen[index as usize] = true;
        celf_or_row(&mut scratch.covered, masks, index as usize);
        count = celf_popcount(&scratch.covered);
        p = p_joint * (1.0 - celf_fraction(count, masks.universe));
    }
    evaluations
}

/// Selector configuration.
#[derive(Debug, Clone, Copy)]
pub struct SelectorConfig {
    /// Acceptable residual incident probability `p₀`.
    pub p0: f64,
}

impl Default for SelectorConfig {
    fn default() -> Self {
        Self { p0: 0.1 }
    }
}

/// The ANUBIS Selector: a survival model plus historical coverage, deciding
/// when to validate and with which subset.
///
/// # Examples
///
/// ```
/// use anubis_benchsuite::BenchmarkId;
/// use anubis_selector::{CoverageTable, ExponentialModel, NodeStatus, Selector, SelectorConfig};
///
/// let mut coverage = CoverageTable::new();
/// for defect in 0..10 {
///     coverage.record(BenchmarkId::IbHcaLoopback, defect);
/// }
/// let selector = Selector::new(
///     Box::new(ExponentialModel { rate: 1.0 / 50.0 }),
///     coverage,
///     SelectorConfig::default(),
/// );
/// let statuses = vec![NodeStatus::fresh(); 4];
/// assert!(selector.should_validate(&statuses, 24.0));
/// let subset = selector.select(&statuses, 24.0);
/// assert_eq!(subset, vec![BenchmarkId::IbHcaLoopback]);
/// ```
pub struct Selector {
    model: Box<dyn SurvivalModel + Send + Sync>,
    coverage: CoverageTable,
    config: SelectorConfig,
}

impl std::fmt::Debug for Selector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Selector")
            .field("coverage_defects", &self.coverage.total_defects())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Selector {
    /// Creates a Selector from a fitted survival model and defect history.
    pub fn new(
        model: Box<dyn SurvivalModel + Send + Sync>,
        coverage: CoverageTable,
        config: SelectorConfig,
    ) -> Self {
        Self {
            model,
            coverage,
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SelectorConfig {
        &self.config
    }

    /// The coverage history (mutable, to record new defects).
    pub fn coverage_mut(&mut self) -> &mut CoverageTable {
        &mut self.coverage
    }

    /// Read-only coverage history.
    pub fn coverage(&self) -> &CoverageTable {
        &self.coverage
    }

    /// Joint incident probability of a node set over a horizon.
    pub fn incident_probability(&self, statuses: &[NodeStatus], horizon: f64) -> f64 {
        joint_incident_probability(self.model.as_ref(), statuses, horizon)
    }

    /// Whether validation is warranted (the Selector skips it when the
    /// joint probability is already below `p₀`, saving node hours).
    pub fn should_validate(&self, statuses: &[NodeStatus], horizon: f64) -> bool {
        self.incident_probability(statuses, horizon) > self.config.p0
    }

    /// Maps the risk decision onto the node-lifecycle machine: the event
    /// the coordinator should apply to the nodes in this set —
    /// [`LifecycleEvent::RiskCrossed`] when the joint incident probability
    /// exceeds `p₀` (validation warranted), [`LifecycleEvent::RiskCleared`]
    /// otherwise. Callers gate the application with
    /// [`anubis_lifecycle::NodeLifecycle::can`]: `RiskCleared` is only
    /// legal on a node that is currently suspect.
    pub fn assess(&self, statuses: &[NodeStatus], horizon: f64) -> LifecycleEvent {
        if self.should_validate(statuses, horizon) {
            LifecycleEvent::RiskCrossed
        } else {
            LifecycleEvent::RiskCleared
        }
    }

    /// Selects a benchmark subset from the full suite for these nodes.
    pub fn select(&self, statuses: &[NodeStatus], horizon: f64) -> Vec<BenchmarkId> {
        select_benchmarks(
            self.model.as_ref(),
            statuses,
            horizon,
            &self.coverage,
            &BenchmarkId::ALL,
            self.config.p0,
        )
    }

    /// Selects from an explicit candidate list.
    pub fn select_from(
        &self,
        statuses: &[NodeStatus],
        horizon: f64,
        candidates: &[BenchmarkId],
    ) -> Vec<BenchmarkId> {
        select_benchmarks(
            self.model.as_ref(),
            statuses,
            horizon,
            &self.coverage,
            candidates,
            self.config.p0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::survival::ExponentialModel;

    /// Rate such that a 24h horizon gives ~0.3 per node.
    fn risky_model() -> ExponentialModel {
        ExponentialModel {
            rate: -((1.0f64 - 0.3).ln()) / 24.0,
        }
    }

    fn safe_model() -> ExponentialModel {
        ExponentialModel { rate: 1e-6 }
    }

    fn statuses(n: usize) -> Vec<NodeStatus> {
        vec![NodeStatus::fresh(); n]
    }

    /// Coverage: loopback finds 6 defects cheaply, stress finds 8 of 10
    /// slowly, GEMM finds 2 that loopback also finds.
    fn coverage() -> CoverageTable {
        let mut table = CoverageTable::new();
        for d in 0..6u64 {
            table.record(BenchmarkId::IbHcaLoopback, d);
        }
        for d in 2..10u64 {
            table.record(BenchmarkId::GpuStress, d);
        }
        table.record(BenchmarkId::GpuGemmFp16, 0);
        table.record(BenchmarkId::GpuGemmFp16, 1);
        table
    }

    #[test]
    fn joint_probability_composes() {
        let model = risky_model();
        let p1 = joint_incident_probability(&model, &statuses(1), 24.0);
        let p4 = joint_incident_probability(&model, &statuses(4), 24.0);
        assert!((p1 - 0.3).abs() < 1e-9);
        assert!((p4 - (1.0 - 0.7f64.powi(4))).abs() < 1e-9);
        assert_eq!(joint_incident_probability(&model, &[], 24.0), 0.0);
    }

    #[test]
    fn skips_validation_when_risk_is_low() {
        let selector = Selector::new(
            Box::new(safe_model()),
            coverage(),
            SelectorConfig::default(),
        );
        assert!(!selector.should_validate(&statuses(8), 24.0));
        assert!(selector.select(&statuses(8), 24.0).is_empty());
    }

    #[test]
    fn selects_cheap_high_coverage_first() {
        let candidates = [
            BenchmarkId::IbHcaLoopback,
            BenchmarkId::GpuStress,
            BenchmarkId::GpuGemmFp16,
        ];
        let table = coverage();
        let model = risky_model();
        let selected = select_benchmarks(&model, &statuses(2), 24.0, &table, &candidates, 0.2);
        assert!(!selected.is_empty());
        // Loopback: 0.6 coverage / 4 min >> stress: 0.8 / 45 min.
        assert_eq!(selected[0], BenchmarkId::IbHcaLoopback);
    }

    #[test]
    fn stops_once_p0_is_met() {
        let candidates = [
            BenchmarkId::IbHcaLoopback,
            BenchmarkId::GpuStress,
            BenchmarkId::GpuGemmFp16,
        ];
        let table = coverage();
        let model = risky_model();
        // p(2 nodes) = 0.51; loopback leaves 0.51*0.4 = 0.204 ≤ 0.25.
        let selected = select_benchmarks(&model, &statuses(2), 24.0, &table, &candidates, 0.25);
        assert_eq!(selected, vec![BenchmarkId::IbHcaLoopback]);
    }

    #[test]
    fn escalates_to_more_benchmarks_for_tighter_p0() {
        let candidates = [
            BenchmarkId::IbHcaLoopback,
            BenchmarkId::GpuStress,
            BenchmarkId::GpuGemmFp16,
        ];
        let table = coverage();
        let model = risky_model();
        let loose = select_benchmarks(&model, &statuses(2), 24.0, &table, &candidates, 0.25);
        let tight = select_benchmarks(&model, &statuses(2), 24.0, &table, &candidates, 0.05);
        assert!(tight.len() > loose.len());
    }

    #[test]
    fn full_set_when_nothing_suffices() {
        // Coverage never reaches 1, p0 = 0: selection ends at the full
        // candidate list without looping forever.
        let mut table = CoverageTable::new();
        table.record(BenchmarkId::CpuLatency, 0);
        table.record(BenchmarkId::DiskSeqRead, 1);
        // A third defect no candidate covers.
        table.record(BenchmarkId::GpuStress, 2);
        let candidates = [BenchmarkId::CpuLatency, BenchmarkId::DiskSeqRead];
        let model = risky_model();
        let selected = select_benchmarks(&model, &statuses(4), 24.0, &table, &candidates, 0.0);
        assert_eq!(selected.len(), 2, "selects everything then stops");
    }

    #[test]
    fn no_history_selects_cheapest_then_stops() {
        // With an empty coverage table nothing reduces p; the algorithm
        // adds one benchmark (Algorithm 1 always admits its first pick)
        // then stops on zero marginal gain.
        let table = CoverageTable::new();
        let model = risky_model();
        let candidates = [BenchmarkId::GpuStress, BenchmarkId::CpuLatency];
        let selected = select_benchmarks(&model, &statuses(2), 24.0, &table, &candidates, 0.1);
        assert_eq!(selected.len(), 1);
    }

    #[test]
    fn assess_maps_risk_onto_lifecycle_events() {
        use anubis_lifecycle::NodeLifecycle;
        let risky = Selector::new(
            Box::new(risky_model()),
            coverage(),
            SelectorConfig::default(),
        );
        let safe = Selector::new(
            Box::new(safe_model()),
            coverage(),
            SelectorConfig::default(),
        );
        let set = statuses(4);
        assert_eq!(risky.assess(&set, 24.0), LifecycleEvent::RiskCrossed);
        assert_eq!(safe.assess(&set, 24.0), LifecycleEvent::RiskCleared);

        // The events drive the machine through the documented path: a
        // crossing flags the node, a later clear releases it.
        let mut life = NodeLifecycle::new();
        life.apply(risky.assess(&set, 24.0)).unwrap();
        assert!(life.state().is_suspect());
        life.apply(safe.assess(&set, 24.0)).unwrap();
        assert!(life.state().is_healthy());
        // On a healthy node a clear is a no-op the caller must gate on.
        assert!(!life.can(LifecycleEvent::RiskCleared));
    }

    #[test]
    fn celf_matches_eager_on_the_fixture() {
        let table = coverage();
        let model = risky_model();
        for nodes in [1usize, 2, 8] {
            for p0 in [0.0, 0.05, 0.2, 0.25, 0.5] {
                let candidates = [
                    BenchmarkId::IbHcaLoopback,
                    BenchmarkId::GpuStress,
                    BenchmarkId::GpuGemmFp16,
                ];
                let set = statuses(nodes);
                let eager = select_benchmarks_eager(&model, &set, 24.0, &table, &candidates, p0);
                let celf = select_benchmarks_celf(&model, &set, 24.0, &table, &candidates, p0);
                assert_eq!(celf, eager, "nodes {nodes}, p0 {p0}");
            }
        }
    }

    #[test]
    fn celf_admits_first_pick_without_history() {
        // Empty universe: every efficiency is exactly 0; both paths admit
        // one benchmark then stop on zero marginal gain.
        let table = CoverageTable::new();
        let model = risky_model();
        let candidates = [BenchmarkId::GpuStress, BenchmarkId::CpuLatency];
        let eager = select_benchmarks_eager(&model, &statuses(2), 24.0, &table, &candidates, 0.1);
        let celf = select_benchmarks_celf(&model, &statuses(2), 24.0, &table, &candidates, 0.1);
        assert_eq!(celf, eager);
        assert_eq!(celf.len(), 1);
    }

    #[test]
    fn celf_scratch_is_reusable_across_calls() {
        let table = coverage();
        let model = risky_model();
        let candidates = [
            BenchmarkId::IbHcaLoopback,
            BenchmarkId::GpuStress,
            BenchmarkId::GpuGemmFp16,
        ];
        let masks = CoverageMasks::build(&table, &candidates);
        assert_eq!(masks.candidates(), 3);
        assert_eq!(masks.universe(), 10);
        let mut scratch = CelfScratch::default();
        let mut picks = Vec::new();
        let set = statuses(2);
        let p_joint = joint_incident_probability(&model, &set, 24.0);
        let evals_first = celf_core(&masks, p_joint, 0.05, &mut scratch, &mut picks);
        let first = picks.clone();
        let evals_second = celf_core(&masks, p_joint, 0.05, &mut scratch, &mut picks);
        assert_eq!(picks, first, "stale scratch state must not leak");
        assert_eq!(evals_first, evals_second);
        // The lazy queue must not evaluate more unions than eager's
        // rounds × remaining-candidates rescan would.
        assert!(evals_first <= (first.len() as u64 + 1) * candidates.len() as u64);
    }

    #[test]
    fn selector_facade_records_defects() {
        let mut selector = Selector::new(
            Box::new(risky_model()),
            CoverageTable::new(),
            SelectorConfig::default(),
        );
        selector
            .coverage_mut()
            .record(BenchmarkId::IbHcaLoopback, 42);
        assert_eq!(selector.coverage().total_defects(), 1);
        assert!(selector.should_validate(&statuses(4), 24.0));
    }
}
