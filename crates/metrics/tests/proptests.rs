//! Property-based tests for the statistics substrate invariants.

use anubis_metrics::outlier::{KMeans, KMeansConfig};
use anubis_metrics::{
    cdf_distance, one_sided_distance, pairwise_similarity_matrix,
    pairwise_similarity_matrix_threads, similarity, Direction, Ecdf, EcdfSketch, Sample,
};
use proptest::prelude::*;

/// Strategy: non-empty vectors of plausible benchmark measurements.
fn measurements() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1.0e6, 1..64)
}

/// Strategy: 1 to 40 measurements, mostly from a small palette so values
/// repeat within a sample and tie across samples, with `-0.0` beside
/// `0.0`; also one- and two-value samples and all-zero samples.
fn tied_measurements() -> impl Strategy<Value = Vec<f64>> {
    let palette = || prop::sample::select(vec![0.0, -0.0, 0.5, 1.0, 2.0, 3.75, 1.0e3]);
    let value = || prop_oneof![palette(), palette(), 0.0f64..10.0];
    prop_oneof![
        prop::collection::vec(value(), 1..41),
        prop::collection::vec(value(), 1..3),
        prop::collection::vec(prop::sample::select(vec![0.0, -0.0]), 1..41),
    ]
}

/// The Eq. (2)/(4) integral by definition: the sorted, deduplicated union
/// of both supports is the grid, and [`Ecdf::eval`] gives each CDF on
/// every window `[x0, x1)`, normalized by the grid's last point.
fn integral_by_definition(a: &Sample, b: &Sample, numerator: impl Fn(f64, f64) -> f64) -> f64 {
    let mut grid: Vec<f64> = a.sorted().iter().chain(b.sorted()).copied().collect();
    grid.sort_by(f64::total_cmp);
    grid.dedup();
    let upper = grid.last().copied().unwrap_or(0.0);
    if upper <= 0.0 {
        return 0.0;
    }
    let (ea, eb) = (Ecdf::new(a), Ecdf::new(b));
    let mut area = 0.0;
    for window in grid.windows(2) {
        let (f1, f2) = (ea.eval(window[0]), eb.eval(window[0]));
        let denom = f1.max(f2);
        if denom > 0.0 {
            area += numerator(f1, f2) / denom * (window[1] - window[0]);
        }
    }
    (area / upper).clamp(0.0, 1.0)
}

proptest! {
    #[test]
    fn sample_orders_invariants(values in measurements()) {
        let s = Sample::new(values.clone()).unwrap();
        prop_assert_eq!(s.len(), values.len());
        prop_assert!(s.sorted().windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(s.min() <= s.mean() + 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
        prop_assert!(s.min() <= s.median() && s.median() <= s.max());
    }

    #[test]
    fn ecdf_is_monotone_and_bounded(values in measurements(), probe in 0.0f64..1.0e6) {
        let s = Sample::new(values).unwrap();
        let cdf = Ecdf::new(&s);
        let f = cdf.eval(probe);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!(cdf.eval(probe + 1.0) >= f);
        prop_assert_eq!(cdf.eval(s.max()), 1.0);
        prop_assert_eq!(cdf.eval(s.min() - 1.0), 0.0);
    }

    #[test]
    fn distance_is_a_bounded_symmetric_semimetric(a in measurements(), b in measurements()) {
        let sa = Sample::new(a).unwrap();
        let sb = Sample::new(b).unwrap();
        let d_ab = cdf_distance(&sa, &sb);
        let d_ba = cdf_distance(&sb, &sa);
        prop_assert!((0.0..=1.0).contains(&d_ab));
        prop_assert!((d_ab - d_ba).abs() < 1e-9);
        prop_assert!(cdf_distance(&sa, &sa) < 1e-12);
        prop_assert!((similarity(&sa, &sb) - (1.0 - d_ab)).abs() < 1e-12);
    }

    #[test]
    fn one_sided_sides_partition_total(a in measurements(), b in measurements()) {
        let sa = Sample::new(a).unwrap();
        let sb = Sample::new(b).unwrap();
        let total = cdf_distance(&sa, &sb);
        let worse = one_sided_distance(&sa, &sb, Direction::HigherIsBetter);
        let better = one_sided_distance(&sa, &sb, Direction::LowerIsBetter);
        prop_assert!(worse >= 0.0 && better >= 0.0);
        prop_assert!(worse <= total + 1e-9);
        prop_assert!(better <= total + 1e-9);
        prop_assert!((worse + better - total).abs() < 1e-9);
    }

    #[test]
    fn uniform_scaling_preserves_distance(values in measurements(), scale in 0.1f64..100.0) {
        // Scale-invariance: the normalized distance depends only on relative
        // shape, so scaling both samples by the same factor is a no-op.
        let a = Sample::new(values.clone()).unwrap();
        let b = Sample::new(values.iter().rev().copied().collect()).unwrap();
        let scaled_a = Sample::new(values.iter().map(|v| v * scale).collect()).unwrap();
        let scaled_b =
            Sample::new(values.iter().rev().map(|v| v * scale).collect()).unwrap();
        let d = cdf_distance(&a, &b);
        let d_scaled = cdf_distance(&scaled_a, &scaled_b);
        prop_assert!((d - d_scaled).abs() < 1e-9);
    }

    #[test]
    fn merge_walk_matches_the_definition_bitwise(
        a in tied_measurements(),
        b in tied_measurements(),
    ) {
        let sa = Sample::new(a).unwrap();
        let sb = Sample::new(b).unwrap();
        for (x, y) in [(&sa, &sb), (&sb, &sa)] {
            let two_sided = integral_by_definition(x, y, |f1, f2| (f1 - f2).abs());
            prop_assert_eq!(cdf_distance(x, y).to_bits(), two_sided.to_bits());
            let higher = integral_by_definition(x, y, |fo, fc| (fo - fc).max(0.0));
            prop_assert_eq!(
                one_sided_distance(x, y, Direction::HigherIsBetter).to_bits(),
                higher.to_bits()
            );
            let lower = integral_by_definition(x, y, |fo, fc| (fc - fo).max(0.0));
            prop_assert_eq!(
                one_sided_distance(x, y, Direction::LowerIsBetter).to_bits(),
                lower.to_bits()
            );
        }
    }

    #[test]
    fn similarity_matrix_is_thread_count_invariant(raw in prop::collection::vec(
        prop::collection::vec(1.0f64..1.0e6, 1..24), 2..10))
    {
        let samples: Vec<Sample> = raw.into_iter()
            .map(|v| Sample::new(v).unwrap())
            .collect();
        let reference = pairwise_similarity_matrix(&samples);
        for threads in [1usize, 2, 8] {
            let matrix = pairwise_similarity_matrix_threads(&samples, threads);
            prop_assert_eq!(&reference, &matrix);
        }
        // Symmetry and unit diagonal hold regardless of scheduling.
        for (i, row) in reference.iter().enumerate() {
            prop_assert_eq!(row[i].to_bits(), 1.0f64.to_bits());
            for (j, &v) in row.iter().enumerate() {
                prop_assert_eq!(v.to_bits(), reference[j][i].to_bits());
            }
        }
    }

    #[test]
    fn kmeans_assigns_every_point(points in prop::collection::vec(
        prop::collection::vec(-100.0f64..100.0, 2), 4..32))
    {
        let model = KMeans::fit(&points, KMeansConfig { k: 2, ..Default::default() }).unwrap();
        prop_assert_eq!(model.assignments().len(), points.len());
        prop_assert!(model.assignments().iter().all(|&a| a < 2));
        prop_assert!(model.inertia() >= 0.0);
        let majority = model.majority_cluster();
        prop_assert!(model.members_of(majority).len() * 2 >= points.len());
    }

    // EcdfSketch is observationally equivalent to the batch Ecdf: any
    // interleaving of appends and sub-sketch merges over the same multiset
    // of values answers eval/quantile bit-identically.
    #[test]
    fn sketch_append_is_observationally_equivalent_to_batch(
        values in measurements(),
        probes in prop::collection::vec(0.0f64..1.0e6, 4),
        ps in prop::collection::vec(0.0f64..1.0, 4),
    ) {
        let batch = Ecdf::new(&Sample::new(values.clone()).unwrap());
        let mut sketch = EcdfSketch::new();
        sketch.extend(values.iter().copied());
        prop_assert_eq!(sketch.len(), batch.len());
        for &x in probes.iter().chain(values.iter()) {
            prop_assert_eq!(sketch.eval(x).to_bits(), batch.eval(x).to_bits());
        }
        for &p in &ps {
            prop_assert_eq!(sketch.quantile(p).to_bits(), batch.quantile(p).to_bits());
        }
        prop_assert_eq!(sketch.min().to_bits(), batch.min().to_bits());
        prop_assert_eq!(sketch.max().to_bits(), batch.max().to_bits());
        prop_assert_eq!(sketch.to_ecdf(), batch);
    }

    #[test]
    fn sketch_merge_is_observationally_equivalent_to_batch(
        shards in prop::collection::vec(measurements(), 1..5),
        probes in prop::collection::vec(0.0f64..1.0e6, 4),
    ) {
        let mut merged = EcdfSketch::new();
        let mut all = Vec::new();
        for shard in &shards {
            let mut s = EcdfSketch::new();
            s.extend(shard.iter().copied());
            merged.merge(&s);
            all.extend_from_slice(shard);
        }
        let batch = Ecdf::new(&Sample::new(all).unwrap());
        prop_assert_eq!(merged.len(), batch.len());
        for &x in &probes {
            prop_assert_eq!(merged.eval(x).to_bits(), batch.eval(x).to_bits());
        }
        for p in [0.0, 0.25, 0.5, 0.95, 1.0] {
            prop_assert_eq!(merged.quantile(p).to_bits(), batch.quantile(p).to_bits());
        }
        prop_assert_eq!(merged.to_ecdf(), batch);
    }

    // Selecting the quantile from the parts' sorted runs returns the same
    // bits as merging the parts first and as the batch ECDF, whatever the
    // partition: empty parts, duplicates and `-0.0` next to `0.0`
    // included. The negated values cover the negative half of the order
    // (a `Sample` rejects negatives, so they are checked against the
    // merged sketch only).
    #[test]
    fn quantile_of_matches_merged_and_batch_bits(
        values in prop::collection::vec(
            prop_oneof![
                prop::sample::select(vec![-0.0, 0.0, 1.0, 97.5, f64::MIN_POSITIVE]),
                0.0f64..1.0e6,
            ],
            0..200,
        ),
        part_of in prop::collection::vec(0usize..8, 200),
        parts in 1usize..8,
    ) {
        let mut sketches = vec![EcdfSketch::new(); parts];
        let mut negated = vec![EcdfSketch::new(); parts];
        for (v, &part) in values.iter().zip(&part_of) {
            sketches[part % parts].append(*v);
            negated[part % parts].append(-*v);
        }
        let merged = EcdfSketch::merged(sketches.iter());
        let merged_negated = EcdfSketch::merged(negated.iter());
        for p in [0.0, 1e-9, 0.05, 0.5, 1.0] {
            let selected = EcdfSketch::quantile_of(sketches.iter(), p);
            prop_assert_eq!(selected.to_bits(), merged.quantile(p).to_bits(), "p={}", p);
            prop_assert_eq!(
                EcdfSketch::quantile_of(negated.iter(), p).to_bits(),
                merged_negated.quantile(p).to_bits(),
                "negated, p={}", p
            );
            if values.is_empty() {
                prop_assert!(selected.is_nan());
            } else {
                let batch = Ecdf::new(&Sample::new(values.clone()).unwrap());
                prop_assert_eq!(selected.to_bits(), batch.quantile(p).to_bits(), "p={}", p);
            }
        }
    }
}
