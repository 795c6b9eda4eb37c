//! Deterministic data-parallel executor.
//!
//! Every workspace simulation promises bit-for-bit reproducible output
//! (see the root `clippy.toml`), so parallelism must never change results
//! — only wall-clock time. This crate is the one place allowed to touch
//! `std::thread` (`clippy.toml` disallows it elsewhere) and it enforces a
//! simple contract that makes thread count unobservable:
//!
//! 1. **Fixed-size chunking.** Work is split into chunks whose size is a
//!    caller-chosen constant, *independent of the thread count*. A chunk
//!    is the unit of scheduling; the computation inside a chunk runs
//!    sequentially, exactly as the single-threaded code would.
//! 2. **Slot-indexed outputs.** Each chunk's result is tagged with its
//!    chunk index and placed into a pre-determined output slot, so the
//!    assembled output is ordered by chunk, never by completion time.
//! 3. **Chunk-ordered reduction.** Folds over chunk results happen on the
//!    caller's thread, in ascending chunk order. Floating-point
//!    accumulation therefore associates identically at any thread count.
//!
//! Under this contract `threads = 1`, `threads = 8`, and
//! `ANUBIS_THREADS=3` all produce bit-identical results; the property
//! tests in `tests/proptests.rs` pin that down. The same invariance
//! extends to `anubis-obs` traces: work dispatched through the executor
//! never records (worker threads have no recorder enabled, and the inline
//! single-worker path holds an `anubis_obs::suppress` guard), so a trace's
//! bytes are independent of the thread count too.
//!
//! # Examples
//!
//! ```
//! use anubis_parallel::{map_chunks, reduce_chunks};
//!
//! let xs: Vec<f64> = (0..1000).map(f64::from).collect();
//! // Chunked sum: same chunking (and therefore the same result) at any
//! // thread count.
//! let seq = reduce_chunks(&xs, 64, 1, |_, c| c.iter().sum::<f64>(), |a, b| a + b);
//! let par = reduce_chunks(&xs, 64, 8, |_, c| c.iter().sum::<f64>(), |a, b| a + b);
//! assert_eq!(seq, par);
//! let squares = map_chunks(&xs, 128, 4, |_, c| c.iter().map(|x| x * x).sum::<f64>());
//! assert_eq!(squares.len(), 8); // ceil(1000 / 128) chunk results, in chunk order
//! ```

use std::sync::PoisonError;
use std::thread;

/// Hard cap on worker threads; fleets of simulated nodes parallelize well
/// past this point but the build machines rarely have more cores.
const MAX_THREADS: usize = 16;

/// Environment variable overriding the worker-thread count (`0` or unset
/// selects the hardware default). Results never depend on this value.
pub const THREADS_ENV: &str = "ANUBIS_THREADS";

/// Former toggle of the incremental statistical paths, which now always
/// run. Read by nothing; `perfbench/src/main.rs` still sets it.
pub const INCREMENTAL_ENV: &str = "ANUBIS_INCREMENTAL";

/// Workloads at or below this many chunks bypass the thread pool: on a
/// 1–2 chunk workload the spawn/join overhead costs more than the
/// parallelism buys. Routing them through the inline path changes nothing
/// but wall-clock time — the executor is bit-deterministic at any worker
/// count, including 1.
pub const SERIAL_CHUNK_CUTOFF: usize = 2;

/// Worker-thread count from [`THREADS_ENV`], defaulting to the machine's
/// available parallelism, clamped to `1..=16`.
///
/// Only wall-clock time depends on this; every executor entry point is
/// bit-deterministic across thread counts.
// The executor owns the hardware thread-count probe.
#[allow(clippy::disallowed_methods)]
pub fn auto_threads() -> usize {
    let configured = anubis_config::parsed::<usize>(THREADS_ENV).unwrap_or(0);
    let threads = if configured == 0 {
        thread::available_parallelism().map_or(1, usize::from)
    } else {
        configured
    };
    threads.clamp(1, MAX_THREADS)
}

/// Resolves a caller-supplied thread count: `0` means [`auto_threads`],
/// anything else is clamped to `1..=16`.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        auto_threads()
    } else {
        threads.clamp(1, MAX_THREADS)
    }
}

/// Runs `tasks` on up to `threads` workers and returns their results in
/// task order. Workers share one queue and each claims the next task
/// whenever it goes idle, so one slow task never holds up tasks queued
/// behind it on the same worker. Which worker runs a task depends on
/// timing; the result does not, because every result is tagged with its
/// task index and assembled in index order.
// The executor is the one sanctioned `std::thread` user, and its task
// queue the one sanctioned `Mutex`: the lock orders claims, never results.
#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
fn execute<T, R, F>(tasks: Vec<T>, threads: usize, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let workers = resolve_threads(threads).min(tasks.len());
    if workers <= 1 {
        // The inline path must look exactly like worker execution to the
        // observability layer: `anubis-obs` recording is thread-local and
        // only ever enabled on the coordinating thread, so worker threads
        // never record — suppressing here keeps trace content independent
        // of the resolved worker count.
        let _quiet = anubis_obs::suppress();
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| run(i, t))
            .collect();
    }
    let queue = std::sync::Mutex::new(tasks.into_iter().enumerate());
    // The lock guards only the claim, never a task's run, so a panicking
    // task cannot poison it; recovering from poison anyway keeps the
    // other workers draining the queue.
    let claim = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    let run = &run;
    let claim = &claim;
    let mut tagged: Vec<(usize, R)> = Vec::new();
    let mut panic_payload = None;
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    while let Some((i, task)) = claim() {
                        done.push((i, run(i, task)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(pairs) => tagged.extend(pairs),
                Err(payload) => panic_payload = Some(payload),
            }
        }
    });
    if let Some(payload) = panic_payload {
        // Re-raise the worker's panic on the caller thread (the scope has
        // already joined every other worker).
        std::panic::resume_unwind(payload);
    }
    tagged.sort_unstable_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Splits `items` into chunks of `chunk_size` (the last may be shorter),
/// maps each chunk with `f(chunk_index, chunk)` on up to `threads`
/// workers, and returns the per-chunk results **in chunk order**.
///
/// The chunking is a pure function of `items.len()` and `chunk_size`, so
/// the output is bit-identical at any thread count.
pub fn map_chunks<T, R, F>(items: &[T], chunk_size: usize, threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let tasks: Vec<&[T]> = items.chunks(chunk_size.max(1)).collect();
    let threads = serial_below_cutoff(tasks.len(), threads);
    execute(tasks, threads, f)
}

/// Forces the inline path for tiny chunked workloads (see
/// [`SERIAL_CHUNK_CUTOFF`]).
fn serial_below_cutoff(chunk_count: usize, threads: usize) -> usize {
    if chunk_count <= SERIAL_CHUNK_CUTOFF {
        1
    } else {
        threads
    }
}

/// [`map_chunks`] over mutable chunks: each worker owns a disjoint
/// `&mut [T]` window, so per-item state (e.g. a simulated node's RNG)
/// advances exactly as in a sequential loop.
pub fn map_chunks_mut<T, R, F>(items: &mut [T], chunk_size: usize, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let tasks: Vec<&mut [T]> = items.chunks_mut(chunk_size.max(1)).collect();
    let threads = serial_below_cutoff(tasks.len(), threads);
    execute(tasks, threads, f)
}

/// Maps `f` over every item, returning results in item order.
///
/// Scheduling granularity is one item; use [`map_chunks`] when per-item
/// work is small enough that scheduling would dominate.
pub fn map_items<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let tasks: Vec<&T> = items.iter().collect();
    execute(tasks, threads, |_, item| f(item))
}

/// Maps `f` over the index range `0..n`, returning results in index
/// order. The indexed twin of [`map_items`] for work that constructs its
/// own inputs (e.g. one simulated node per fleet slot).
pub fn map_indexed<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let tasks: Vec<usize> = (0..n).collect();
    execute(tasks, threads, |_, i| f(i))
}

/// Chunk-parallel reduction: maps each fixed-size chunk with `map`, then
/// folds the per-chunk accumulators **in ascending chunk order** on the
/// calling thread. Returns `None` for empty input.
///
/// Because the chunk boundaries and the fold order are both independent
/// of the thread count, floating-point reductions associate identically
/// at any thread count.
pub fn reduce_chunks<T, A, M, F>(
    items: &[T],
    chunk_size: usize,
    threads: usize,
    map: M,
    fold: F,
) -> Option<A>
where
    T: Sync,
    A: Send,
    M: Fn(usize, &[T]) -> A + Sync,
    F: Fn(A, A) -> A,
{
    let partials = map_chunks(items, chunk_size, threads, map);
    partials.into_iter().reduce(fold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_chunks_preserves_order() {
        let items: Vec<u64> = (0..103).collect();
        for threads in [1, 2, 5, 16] {
            let sums = map_chunks(&items, 10, threads, |idx, chunk| {
                (idx, chunk.iter().sum::<u64>())
            });
            assert_eq!(sums.len(), 11);
            for (slot, (idx, _)) in sums.iter().enumerate() {
                assert_eq!(slot, *idx);
            }
            assert_eq!(sums.iter().map(|(_, s)| s).sum::<u64>(), 103 * 102 / 2);
        }
    }

    #[test]
    fn map_chunks_mut_covers_every_item_once() {
        for threads in [1, 3, 8] {
            let mut items = vec![0u32; 57];
            map_chunks_mut(&mut items, 5, threads, |_, chunk| {
                for item in chunk.iter_mut() {
                    *item += 1;
                }
            });
            assert!(items.iter().all(|&v| v == 1));
        }
    }

    #[test]
    fn map_items_and_indexed_agree() {
        let items: Vec<usize> = (0..37).collect();
        let a = map_items(&items, 4, |&i| i * i);
        let b = map_indexed(items.len(), 4, |i| i * i);
        assert_eq!(a, b);
    }

    #[test]
    fn reduce_chunks_is_thread_count_invariant() {
        // A deliberately ill-conditioned float sum: any re-association
        // across chunk boundaries would change the bits.
        let items: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { 1e16 } else { 3.33333 })
            .collect();
        let reference = reduce_chunks(&items, 7, 1, |_, c| c.iter().sum::<f64>(), |a, b| a + b);
        for threads in [2, 3, 8, 16] {
            let parallel = reduce_chunks(
                &items,
                7,
                threads,
                |_, c| c.iter().sum::<f64>(),
                |a, b| a + b,
            );
            assert_eq!(reference, parallel);
        }
        assert_eq!(
            reduce_chunks::<f64, f64, _, _>(&[], 4, 2, |_, c| c.iter().sum(), |a, b| a + b),
            None
        );
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(map_chunks(&empty, 4, 8, |_, c| c.len()).is_empty());
        assert_eq!(map_chunks(&[1u8], 0, 8, |_, c| c.len()), vec![1]);
        assert!(map_indexed(0, 8, |i| i).is_empty());
    }

    #[test]
    fn resolve_threads_clamps() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(10_000), MAX_THREADS);
        assert!(auto_threads() >= 1 && auto_threads() <= MAX_THREADS);
    }

    #[test]
    fn tiny_workloads_match_at_any_thread_count() {
        // At or below the serial cutoff the pool is bypassed; results are
        // identical either way (the contract), so only pin the behavior.
        let items: Vec<f64> = (0..7).map(f64::from).collect();
        let reference = map_chunks(&items, 4, 1, |_, c| c.iter().sum::<f64>());
        for threads in [2, 8, 16] {
            assert_eq!(
                reference,
                map_chunks(&items, 4, threads, |_, c| c.iter().sum::<f64>())
            );
        }
        assert_eq!(serial_below_cutoff(SERIAL_CHUNK_CUTOFF, 8), 1);
        assert_eq!(serial_below_cutoff(SERIAL_CHUNK_CUTOFF + 1, 8), 8);
    }

    /// Deterministic busy work: `rounds` steps of an LCG.
    fn spin(rounds: u64) -> u64 {
        (0..rounds).fold(1u64, |x, r| {
            std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005) ^ r)
        })
    }

    #[test]
    // Counting runs per task needs shared counters across workers.
    #[allow(clippy::disallowed_types)]
    fn skewed_costs_keep_slot_order_and_run_each_task_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        const TASKS: usize = 24;
        for heavy in [0, TASKS / 2, TASKS - 1] {
            let rounds = |i: usize| if i == heavy { 100_000 } else { 1_000 };
            for threads in [1, 2, 3, 8] {
                let runs: Vec<AtomicUsize> = (0..TASKS).map(|_| AtomicUsize::new(0)).collect();
                let out = map_indexed(TASKS, threads, |i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    (i, spin(rounds(i)))
                });
                for (slot, &(i, value)) in out.iter().enumerate() {
                    assert_eq!(slot, i, "heavy {heavy}, threads {threads}");
                    assert_eq!(value, spin(rounds(i)));
                }
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "heavy {heavy}, threads {threads}: every task runs exactly once"
                );
            }
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            map_indexed(16, 4, |i| {
                assert!(i != 9, "boom");
                i
            })
        });
        assert!(caught.is_err());
    }
}
