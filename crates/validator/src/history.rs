//! Criteria evolution: rolling benchmark-result history and periodic
//! re-learning.
//!
//! Figure 7's loop: "the new node statuses and benchmark results will be
//! continuously collected ... to periodically update the offline model and
//! criteria, allowing the entire system to evolve in tandem with the
//! latest node statuses". This module keeps a bounded, most-recent-first
//! window of samples per benchmark and re-runs Algorithm 2 over it, so
//! criteria track firmware/driver drift instead of freezing at build-out.

use crate::criteria::{calculate_criteria, CentroidMethod, CriteriaResult};
use crate::filter::{Criteria, DefectFilter};
use crate::incremental::CriteriaCache;
use anubis_benchsuite::{BenchmarkId, RunData};
use anubis_metrics::{MetricsError, Sample};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Rolling window of benchmark results feeding criteria re-learning.
#[derive(Debug, Clone)]
pub struct CriteriaHistory {
    window: usize,
    samples: BTreeMap<BenchmarkId, VecDeque<Sample>>,
}

impl CriteriaHistory {
    /// Creates a history keeping the most recent `window` samples per
    /// benchmark.
    ///
    /// # Errors
    ///
    /// Returns [`MetricsError::InvalidParameter`] if `window` is zero; an
    /// empty window cannot learn criteria.
    pub fn new(window: usize) -> Result<Self, MetricsError> {
        if window == 0 {
            return Err(MetricsError::InvalidParameter {
                name: "window",
                message: "history window must be positive".to_owned(),
            });
        }
        Ok(Self {
            window,
            samples: BTreeMap::new(),
        })
    }

    /// Absorbs a validation run's results, evicting the oldest samples
    /// beyond the window.
    pub fn absorb(&mut self, data: &RunData) {
        for (&bench, rows) in &data.results {
            let queue = self.samples.entry(bench).or_default();
            for (_, sample) in rows {
                if queue.len() == self.window {
                    queue.pop_front();
                }
                queue.push_back(sample.clone());
            }
        }
    }

    /// Samples currently retained for one benchmark.
    pub fn len_of(&self, bench: BenchmarkId) -> usize {
        self.samples.get(&bench).map_or(0, VecDeque::len)
    }

    /// Re-learns criteria for every benchmark with enough history and
    /// installs them into `filter`. Returns the per-benchmark clustering
    /// results.
    ///
    /// Benchmarks with fewer than `min_samples` retained samples are
    /// skipped (their existing criteria stay in force).
    pub fn relearn(
        &self,
        filter: &mut DefectFilter,
        alpha: f64,
        centroid: CentroidMethod,
        min_samples: usize,
    ) -> Result<BTreeMap<BenchmarkId, CriteriaResult>, MetricsError> {
        let mut results = BTreeMap::new();
        for (&bench, queue) in &self.samples {
            if queue.len() < min_samples.max(1) {
                continue;
            }
            let samples: Vec<Sample> = queue.iter().cloned().collect();
            let result = calculate_criteria(&samples, alpha, centroid)?;
            filter.set_criteria(
                bench,
                Criteria {
                    sample: result.criteria.clone(),
                    direction: bench.spec().direction,
                    alpha,
                },
            );
            results.insert(bench, result);
        }
        Ok(results)
    }

    /// [`CriteriaHistory::relearn`] through per-benchmark
    /// [`CriteriaCache`]s: while a benchmark's window is still growing,
    /// only the matrix rows its new samples touch are integrated; once
    /// the window starts evicting, that benchmark's cache rebuilds. The
    /// caller owns `caches` so the state survives across learning
    /// cycles. Results (and the criteria installed into `filter`) are
    /// bit-identical to the batch [`CriteriaHistory::relearn`].
    pub fn relearn_incremental(
        &self,
        caches: &mut BTreeMap<BenchmarkId, CriteriaCache>,
        filter: &mut DefectFilter,
        alpha: f64,
        centroid: CentroidMethod,
        min_samples: usize,
    ) -> Result<BTreeMap<BenchmarkId, CriteriaResult>, MetricsError> {
        let mut results = BTreeMap::new();
        for (&bench, queue) in &self.samples {
            if queue.len() < min_samples.max(1) {
                continue;
            }
            let cache = match caches.entry(bench) {
                std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(CriteriaCache::new(alpha, centroid)?)
                }
            };
            if cache.alpha().to_bits() != alpha.to_bits() || cache.method() != centroid {
                *cache = CriteriaCache::new(alpha, centroid)?;
            }
            cache.sync(queue.iter());
            let result = cache.result()?;
            filter.set_criteria(
                bench,
                Criteria {
                    sample: result.criteria.clone(),
                    direction: bench.spec().direction,
                    alpha,
                },
            );
            results.insert(bench, result);
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anubis_hwsim::NodeId;

    fn run_data(bench: BenchmarkId, values: &[f64]) -> RunData {
        let mut data = RunData::default();
        data.results.insert(
            bench,
            values
                .iter()
                .enumerate()
                .map(|(i, &v)| (NodeId(i as u32), Sample::scalar(v).unwrap()))
                .collect(),
        );
        data
    }

    #[test]
    fn window_evicts_oldest() {
        let mut history = CriteriaHistory::new(4).unwrap();
        history.absorb(&run_data(BenchmarkId::GpuGemmFp16, &[1.0, 2.0, 3.0]));
        history.absorb(&run_data(BenchmarkId::GpuGemmFp16, &[4.0, 5.0, 6.0]));
        assert_eq!(history.len_of(BenchmarkId::GpuGemmFp16), 4);
        assert_eq!(history.len_of(BenchmarkId::CpuLatency), 0);
    }

    #[test]
    fn criteria_track_a_fleetwide_drift() {
        // Firmware update shifts nominal GEMM from 300 to 270 TFLOPS; the
        // rolling window re-learns, so the slower-but-uniform fleet stays
        // healthy instead of being mass-flagged.
        let mut history = CriteriaHistory::new(12).unwrap();
        let mut filter = DefectFilter::new();
        let old: Vec<f64> = (0..12).map(|i| 300.0 + f64::from(i) * 0.05).collect();
        history.absorb(&run_data(BenchmarkId::GpuGemmFp16, &old));
        history
            .relearn(&mut filter, 0.95, CentroidMethod::Medoid, 4)
            .unwrap();
        let old_criteria = filter
            .criteria_for(BenchmarkId::GpuGemmFp16)
            .unwrap()
            .clone();
        assert!(old_criteria.is_defective(&Sample::scalar(270.0).unwrap()));

        let new: Vec<f64> = (0..12).map(|i| 270.0 + f64::from(i) * 0.05).collect();
        history.absorb(&run_data(BenchmarkId::GpuGemmFp16, &new));
        history
            .relearn(&mut filter, 0.95, CentroidMethod::Medoid, 4)
            .unwrap();
        let refreshed = filter.criteria_for(BenchmarkId::GpuGemmFp16).unwrap();
        assert!(
            !refreshed.is_defective(&Sample::scalar(270.0).unwrap()),
            "criteria must follow the new nominal"
        );
    }

    #[test]
    fn thin_history_is_skipped() {
        let mut history = CriteriaHistory::new(16).unwrap();
        history.absorb(&run_data(BenchmarkId::CpuLatency, &[95.0, 96.0]));
        let mut filter = DefectFilter::new();
        let results = history
            .relearn(&mut filter, 0.95, CentroidMethod::Medoid, 8)
            .unwrap();
        assert!(results.is_empty());
        assert!(filter.criteria_for(BenchmarkId::CpuLatency).is_none());
    }

    #[test]
    fn incremental_relearn_matches_batch_across_eviction() {
        let mut history = CriteriaHistory::new(12).unwrap();
        let mut caches = BTreeMap::new();
        for round in 0..4u32 {
            // 6 samples per round: the window grows for two rounds, then
            // evicts — exercising both the incremental and rebuild paths.
            let values: Vec<f64> = (0..6).map(|i| 300.0 + f64::from(round * 6 + i)).collect();
            history.absorb(&run_data(BenchmarkId::GpuGemmFp16, &values));
            let mut batch_filter = DefectFilter::new();
            let mut inc_filter = DefectFilter::new();
            let batch = history
                .relearn(&mut batch_filter, 0.9, CentroidMethod::Medoid, 1)
                .unwrap();
            let incremental = history
                .relearn_incremental(&mut caches, &mut inc_filter, 0.9, CentroidMethod::Medoid, 1)
                .unwrap();
            assert_eq!(batch, incremental, "round {round}");
            assert_eq!(
                batch_filter.criteria_for(BenchmarkId::GpuGemmFp16),
                inc_filter.criteria_for(BenchmarkId::GpuGemmFp16)
            );
        }
    }

    #[test]
    fn zero_window_is_rejected() {
        assert!(matches!(
            CriteriaHistory::new(0),
            Err(MetricsError::InvalidParameter { name: "window", .. })
        ));
    }
}
