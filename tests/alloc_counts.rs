//! Exact heap-allocation counts of the hot paths, measured rather than
//! inferred. A counting `#[global_allocator]` (test-only: no shipped
//! binary links it) counts every `alloc`, `alloc_zeroed` and `realloc`
//! into a const-initialised thread-local, so the counter itself never
//! allocates and parallel test threads never pollute each other's counts.
//! Every scenario runs the executor at 1 thread: its inline path keeps
//! each allocation on the counting thread.
//!
//! Two kinds of promise are checked:
//!
//! - **Allocation-free kernels** must count exactly 0 over N warm calls.
//!   The similarity kernel has no public warm entry, so it is measured
//!   through `pairwise_similarity_matrix_threads` as allocations per
//!   sample pair: every pair is one `integrate` merge walk over the two
//!   samples' sorted values, written straight into its matrix cell.
//! - **Pinned counts**: every other hot path's exact count equals
//!   the committed `tests/alloc_counts.expected`. On a mismatch the test
//!   prints a per-entry diff and writes the actual counts under
//!   `CARGO_TARGET_TMPDIR`; re-baselining means copying that file over the
//!   expected one and saying why in CHANGES.md.
//!
//! What this cannot see: branches no scenario runs, the multi-thread
//! executor path (the calling thread claims tasks beside the workers it
//! spawns, so which allocations land on the counting thread depends on
//! timing, and the workers count on their own thread-locals), and
//! an allocation whose unused value the optimizer removed (at `--release`
//! it then does not exist; the default test profile still counts it).

mod common;

use anubis_bench::fig8::table6_coverage_history;
use anubis_benchsuite::BenchmarkId;
use anubis_cluster::{simulate, ClusterSimConfig, Policy};
use anubis_fleetd::{FleetdConfig, ShardWorker, TickContext};
use anubis_lifecycle::{LifecycleEvent, LifecycleTable};
use anubis_metrics::{pairwise_similarity_matrix_threads, Sample};
use anubis_nn::{Activation, Adam, BatchCache, Mlp};
use anubis_selector::{
    celf_core, warmstart_merge_into, CelfScratch, CoverageMasks, CoverageTable, CoxTimeConfig,
    CoxTimeModel, Selector, SelectorConfig, SurvivalSample,
};
use anubis_traces::{
    generate_allocation_trace, generate_incident_trace, AllocationConfig, IncidentTraceConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;

/// The committed counts of [`pinned_counts`].
const EXPECTED: &str = include_str!("alloc_counts.expected");

// The test-only counting allocator: a thread-local `Cell` is the one
// counter that neither allocates nor synchronizes.
#[allow(clippy::disallowed_types)]
mod counting {
    use super::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    pub struct Counting;

    fn bump() {
        // `try_with`: allocation during thread teardown must not panic.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }

    // SAFETY: every method passes its arguments to `System` unchanged, so
    // `System` upholds the `GlobalAlloc` contract; `bump` neither allocates
    // nor panics.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            bump();
            System.alloc(layout)
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            bump();
            System.alloc_zeroed(layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            bump();
            System.realloc(ptr, layout, new_size)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }
    }

    /// Allocations made so far on this thread.
    pub fn allocs() -> u64 {
        ALLOCS.with(Cell::get)
    }
}

#[global_allocator]
static GLOBAL: counting::Counting = counting::Counting;

/// Heap allocations `f` makes on this thread, with its result.
fn count<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = counting::allocs();
    let result = f();
    (counting::allocs() - before, result)
}

/// Allocations of `calls` calls of `f`.
fn count_calls(calls: usize, mut f: impl FnMut()) -> u64 {
    count(|| (0..calls).for_each(|_| f())).0
}

#[test]
fn counter_counts_allocations_and_reallocations() {
    let (n, mut v) = count(|| Vec::<u64>::with_capacity(1));
    assert_eq!(n, 1, "`with_capacity(1)` is one allocation");
    v.push(1);
    let (n, ()) = count(|| v.push(2));
    assert_eq!(n, 1, "a push past capacity is one `realloc`");
}

// The one spawned thread of the suite: a worker that allocates while
// this thread counts.
#[allow(clippy::disallowed_methods)]
#[test]
fn another_threads_allocations_count_zero_here() {
    let start = std::sync::Arc::new(std::sync::Barrier::new(2));
    let worker = {
        let start = std::sync::Arc::clone(&start);
        std::thread::spawn(move || {
            start.wait();
            (1..=1000)
                .map(|i| std::hint::black_box(vec![0u8; i]).len())
                .sum::<usize>()
        })
    };
    let (n, total) = count(|| {
        start.wait();
        worker.join().expect("worker thread")
    });
    assert_eq!(total, 500_500);
    assert_eq!(n, 0, "the worker's 1000 allocations are its own");
}

#[test]
fn warm_arena_take_give_cycle_allocates_nothing() {
    let arena: anubis_arena::Arena<Vec<u64>> = anubis_arena::Arena::new();
    let cycle = || {
        let mut buf = arena.take();
        buf.extend(0..64);
        arena.give(buf);
    };
    cycle();
    assert_eq!(count_calls(100, cycle), 0);
}

/// Warm calls per allocation-free kernel.
const WARM_CALLS: usize = 100;

/// `n` ECDF-distinct samples of 16 values each (equal lengths, so one
/// merged-grid reservation per chunk fits every pair).
fn samples(n: usize) -> Vec<Sample> {
    (0..n)
        .map(|i| {
            let values = (0..16).map(|k| 100.0 + (i * 7 + k * 13) as f64 % 29.0);
            Sample::new(values.collect()).expect("finite, non-empty")
        })
        .collect()
}

/// Allocations of one `pairwise_similarity_matrix_threads` call over `n`
/// samples at 1 thread (after a warm-up call).
fn similarity_matrix_allocs(n: usize) -> u64 {
    let samples = samples(n);
    pairwise_similarity_matrix_threads(&samples, 1);
    count(|| pairwise_similarity_matrix_threads(&samples, 1)).0
}

/// The MLP kernels and the optimizer step on a 9-32-32-1 network, the
/// range kernels on two row segments and two parameter parts.
fn mlp_kernels() -> [(&'static str, u64); 6] {
    const ROWS: usize = 64;
    const SPLIT: usize = 27;
    let mut mlp = Mlp::new(&[9, 32, 32, 1], Activation::Tanh, 5);
    let inputs: Vec<f64> = (0..ROWS * 9)
        .map(|i| (i % 17) as f64 / 17.0 - 0.5)
        .collect();
    let output_grads: Vec<f64> = (0..ROWS).map(|r| r as f64 / ROWS as f64 - 0.5).collect();
    let mut cache = BatchCache::default();
    let mut flat = vec![0.0; mlp.parameter_count()];
    let mut adam = Adam::new(&mlp, 1e-3);
    mlp.forward_batch(&inputs, ROWS, &mut cache);
    mlp.backward_batch(&mut cache, &output_grads, &mut flat);
    adam.step_flat(&mut mlp, &flat);
    let forward = count_calls(WARM_CALLS, || mlp.forward_batch(&inputs, ROWS, &mut cache));
    let backward = count_calls(WARM_CALLS, || {
        mlp.backward_batch(&mut cache, &output_grads, &mut flat);
    });
    let step = count_calls(WARM_CALLS, || adam.step_flat(&mut mlp, &flat));

    let mut halves = [BatchCache::default(), BatchCache::default()];
    let split_rows = |half: &mut [BatchCache; 2]| {
        let [a, b] = half;
        mlp.forward_batch(&inputs[..SPLIT * 9], SPLIT, a);
        mlp.forward_batch(&inputs[SPLIT * 9..], ROWS - SPLIT, b);
    };
    split_rows(&mut halves);
    let deltas = |half: &mut [BatchCache; 2]| {
        let [a, b] = half;
        mlp.backprop_deltas(a, &output_grads[..SPLIT]);
        mlp.backprop_deltas(b, &output_grads[SPLIT..]);
    };
    deltas(&mut halves);
    let rows_warm = count_calls(WARM_CALLS, || split_rows(&mut halves));
    let deltas_warm = count_calls(WARM_CALLS, || deltas(&mut halves));
    let gradients = count_calls(WARM_CALLS, || {
        let [a, b] = &halves;
        for part in 0..2 {
            let range = mlp.gradient_part(part, 2);
            mlp.accumulate_gradients(&[a, b], range.start, &mut flat[range]);
        }
    });
    [
        ("Mlp::forward_batch", forward),
        ("Mlp::backward_batch", backward),
        ("Adam::step_flat", step),
        ("Mlp::forward_batch (two row segments)", rows_warm),
        ("Mlp::backprop_deltas (two row segments)", deltas_warm),
        (
            "Mlp::accumulate_gradients (two segments, two parts)",
            gradients,
        ),
    ]
}

/// A deterministic coverage history over every benchmark.
fn coverage() -> CoverageTable {
    let mut coverage = CoverageTable::new();
    for (b, &bench) in BenchmarkId::ALL.iter().enumerate() {
        for defect in 0..120u64 {
            if (defect * 7 + b as u64 * 13) % 31 < 5 + b as u64 % 4 {
                coverage.record(bench, defect);
            }
        }
    }
    coverage
}

fn celf_kernel() -> u64 {
    let masks = CoverageMasks::build(&coverage(), &BenchmarkId::ALL);
    let mut scratch = CelfScratch::default();
    let mut selected = Vec::new();
    celf_core(&masks, 0.9, 0.01, &mut scratch, &mut selected);
    assert!(selected.len() > 1);
    count_calls(WARM_CALLS, || {
        celf_core(&masks, 0.9, 0.01, &mut scratch, &mut selected);
    })
}

fn warmstart_merge_kernel() -> u64 {
    let samples: Vec<SurvivalSample> = (0..200)
        .map(|i| SurvivalSample {
            status: anubis_selector::NodeStatus::fresh(),
            duration: ((i * 37) % 101) as f64,
            event: i % 3 == 0,
        })
        .collect();
    let mut old: Vec<usize> = (0..150).collect();
    old.sort_by(|&a, &b| samples[a].duration.total_cmp(&samples[b].duration));
    let mut incoming: Vec<usize> = (150..200).collect();
    incoming.sort_by(|&a, &b| samples[a].duration.total_cmp(&samples[b].duration));
    let mut out = Vec::new();
    warmstart_merge_into(&samples, &old, &incoming, &mut out);
    count_calls(WARM_CALLS, || {
        warmstart_merge_into(&samples, &old, &incoming, &mut out);
    })
}

/// Allocations per sample pair of the similarity kernel. From 5 to 8
/// samples the matrix runs two 4-row chunks, so every other allocation
/// of the call (the `n + 1` matrix vectors and the executor's task list)
/// is affine in the sample count; the second difference over 6, 7 and 8
/// samples isolates the per-pair term.
fn similarity_kernel_per_pair() -> u64 {
    let [a, b, c] = [6, 7, 8].map(similarity_matrix_allocs);
    (c + a).abs_diff(2 * b)
}

#[test]
fn alloc_free_kernels_allocate_nothing_when_warm() {
    let mut counts = mlp_kernels().to_vec();
    counts.push(("celf_core", celf_kernel()));
    counts.push(("warmstart_merge_into", warmstart_merge_kernel()));
    counts.push((
        "pairwise_similarity_matrix_threads/integrate (per pair)",
        similarity_kernel_per_pair(),
    ));
    let failures: Vec<String> = counts
        .iter()
        .filter(|(_, n)| *n != 0)
        .map(|(name, n)| format!("  {name}: {n} allocation(s), expected 0"))
        .collect();
    assert!(
        failures.is_empty(),
        "allocation-free kernels allocated when warm:\n{}",
        failures.join("\n")
    );
}

/// Allocations of 200 ticks of a 256-node shard against `table`, after
/// 20 warm-up ticks; every tenth tick repairs `repaired`.
fn shard_ticks(table: &LifecycleTable, repaired: &[u32], criteria: Option<f64>) -> u64 {
    let config = FleetdConfig {
        nodes: 256,
        base_mtbi_hours: 30.0,
        ..FleetdConfig::default()
    };
    let mut shard = ShardWorker::new(&config, 0..256);
    let mut tick = |t: u32| {
        let ctx = TickContext {
            tick: t,
            t0: f64::from(t),
            t1: f64::from(t + 1),
            horizon_hours: 24.0,
            risk_threshold: 0.25,
            criteria_threshold: criteria,
            cooldown_ticks: 4,
        };
        let repaired = if t.is_multiple_of(10) { repaired } else { &[] };
        shard.tick(&ctx, table.states(), repaired);
    };
    (0..20).for_each(&mut tick);
    count(|| (20..220).for_each(&mut tick)).0
}

/// The fleetd shard loop: an all-healthy fleet, then one with busy and
/// validating nodes whose verdicts both pass and fail.
fn shard_scenarios() -> [(&'static str, u64); 2] {
    let healthy = LifecycleTable::new(256);
    let mut mixed = LifecycleTable::new(256);
    for node in 96..128 {
        assert!(mixed.apply_if_legal(node, LifecycleEvent::JobAssigned));
    }
    for node in 128..256 {
        assert!(mixed.apply_if_legal(node, LifecycleEvent::RiskCrossed));
        assert!(mixed.apply_if_legal(node, LifecycleEvent::ValidationStarted));
    }
    let base_score = FleetdConfig::default().base_score;
    [
        (
            "ShardWorker::tick healthy (256 nodes, 200 ticks)",
            shard_ticks(&healthy, &[3, 40], None),
        ),
        (
            "ShardWorker::tick busy+validating (256 nodes, 200 ticks)",
            shard_ticks(&mixed, &[3, 100, 200], Some(0.97 * base_score)),
        ),
    ]
}

/// A small trace's survival samples and a small Cox-Time configuration.
fn small_coxtime_inputs() -> (Vec<SurvivalSample>, CoxTimeConfig) {
    let samples = generate_incident_trace(&IncidentTraceConfig {
        nodes: 60,
        ..IncidentTraceConfig::default()
    })
    .survival_samples(96.0);
    let config = CoxTimeConfig {
        epochs: 3,
        hidden: vec![8],
        baseline_buckets: 16,
        threads: 1,
        ..CoxTimeConfig::default()
    };
    (samples, config)
}

/// Cox-Time `fit` (training and the Breslow baseline) on a small trace.
fn coxtime_fit() -> u64 {
    let (samples, config) = small_coxtime_inputs();
    let fit = || CoxTimeModel::fit(&samples, &config).expect("trace has events");
    fit();
    count(fit).0
}

/// The executor entries at 1 thread over 100 items in chunks of 8.
fn executor() -> [(&'static str, u64); 4] {
    let mut items: Vec<u64> = (0..100).collect();
    let sum = |_: usize, chunk: &[u64]| chunk.iter().sum::<u64>();
    [
        (
            "anubis_parallel::map_chunks",
            count(|| anubis_parallel::map_chunks(&items, 8, 1, sum)).0,
        ),
        (
            "anubis_parallel::map_chunks_mut",
            count(|| anubis_parallel::map_chunks_mut(&mut items, 8, 1, |_, chunk| chunk.len())).0,
        ),
        (
            "anubis_parallel::map_items",
            count(|| anubis_parallel::map_items(&items, 1, |x| x * 2)).0,
        ),
        (
            "anubis_parallel::map_indexed",
            count(|| anubis_parallel::map_indexed(100, 1, |i| i * 2)).0,
        ),
    ]
}

/// `cluster::simulate`, whose event loop allocates jobs through
/// `try_allocate`, under the full set, no validation, and a Cox-Time
/// Selector (whose count includes its model inference per decision).
fn cluster_sim() -> [(&'static str, u64); 3] {
    let config = ClusterSimConfig {
        nodes: 32,
        horizon_hours: 240.0,
        ..ClusterSimConfig::default()
    };
    let jobs = generate_allocation_trace(&AllocationConfig {
        duration_hours: 240.0,
        ..AllocationConfig::stressed(32)
    });
    let run = |policy: &Policy<'_>| {
        simulate(&config, &jobs, policy);
        count(|| simulate(&config, &jobs, policy)).0
    };
    let (samples, coxtime) = small_coxtime_inputs();
    let selector = Selector::new(
        Box::new(CoxTimeModel::fit(&samples, &coxtime).expect("trace has events")),
        table6_coverage_history(),
        SelectorConfig::default(),
    );
    [
        (
            "cluster::simulate FullSet (try_allocate)",
            run(&Policy::FullSet),
        ),
        (
            "cluster::simulate Absence (try_allocate)",
            run(&Policy::Absence),
        ),
        (
            "cluster::simulate Selector (try_allocate)",
            run(&Policy::Selector(&selector)),
        ),
    ]
}

/// The JSON writers into a warm caller buffer.
fn serializers() -> [(&'static str, u64); 2] {
    anubis_obs::enable_with_capacity(64);
    {
        let _span = anubis_obs::span!("alloc_counts.span");
        anubis_obs::counter!("alloc_counts.counter", 3);
        anubis_obs::hist!("alloc_counts.hist", 0.5, &[0.1, 1.0]);
    }
    let trace = anubis_obs::drain();
    anubis_obs::disable();
    let row = (
        "gpu \"gemm\"\n",
        [298.5, -0.0, 1e300, f64::NAN],
        Some(3usize),
    );

    let mut out = String::new();
    let mut warm = |f: &mut dyn FnMut(&mut String)| {
        f(&mut out);
        count_calls(WARM_CALLS, || {
            out.clear();
            f(&mut out);
        })
    };
    [
        (
            "Trace::append_jsonl",
            warm(&mut |out| trace.append_jsonl(out)),
        ),
        (
            "json::to_json_into",
            warm(&mut |out| {
                let _ = anubis_metrics::json::to_json_into(&row, out);
            }),
        ),
    ]
}

/// Every pinned entry, in expected-file order.
fn pinned_counts() -> Vec<(&'static str, u64)> {
    let mut counts = vec![
        ("CoxTimeModel::fit", coxtime_fit()),
        (
            "pairwise_similarity_matrix_threads (24 samples)",
            similarity_matrix_allocs(24),
        ),
    ];
    counts.extend(executor());
    counts.extend(shard_scenarios());
    counts.extend(cluster_sim());
    counts.extend(serializers());
    counts
}

/// The expected-file body for `counts`.
fn render(counts: &[(&str, u64)]) -> String {
    let mut out = String::from(
        "# Exact allocation counts of `pinned_counts` in tests/alloc_counts.rs:\n\
         # one `count entry` line per scenario (allocations plus reallocations).\n",
    );
    for (name, n) in counts {
        let _ = writeln!(out, "{n} {name}");
    }
    out
}

#[test]
fn pinned_counts_match_expected() {
    let actual = render(&pinned_counts());
    common::assert_matches_expected("alloc_counts", "allocation counts", EXPECTED, &actual);
}
