//! Deterministic data-parallel executor and a persistent two-lane
//! helper.
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
//! never records (spawned workers have no recorder enabled, and the
//! calling thread runs its share under an `anubis_obs::suppress` guard),
//! so a trace's bytes are independent of the thread count too.
//!
//! The executor spawns its workers per call, which costs tens of
//! microseconds; the calling thread is one of them, so `threads` workers
//! take `threads − 1` spawns. A loop of many short steps that each split
//! in two uses [`with_helper`] instead: one helper thread lives for the
//! whole loop, and [`Helper::join`] offers it one half of a step while
//! the caller runs the other (and takes the half back if the helper has
//! not started it).
//! The same contract holds with two slots and no reduction: each half
//! writes only what it borrows mutably (the borrow checker keeps the
//! halves disjoint), its result comes back in its own slot, and a half
//! never depends on which thread ran it. At one thread both halves run
//! inline. Cox-Time training splits each minibatch this way
//! (`anubis-selector`).
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

// Panic-freedom: clippy rejects every panic path in this crate's library
// code: unwrap/expect/panic!/unreachable!, indexing and slicing, integer
// `/` and `%`, and the assert family (disallowed in `clippy.toml`), plus
// float `==`. A justified site carries `#[expect(lint, reason = "…")]`,
// which fails once the site is gone; tests may panic freely.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::integer_division_remainder_used,
        clippy::float_cmp,
        clippy::disallowed_macros
    )
)]

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
/// task order. The calling thread is one of the workers: it spawns the
/// other `workers − 1` and claims tasks beside them. Workers share one
/// queue and each claims the next task whenever it goes idle, so one
/// slow task never holds up tasks queued behind it on the same worker.
/// Which worker runs a task depends on timing; the result does not,
/// because every result is tagged with its task index and assembled in
/// index order.
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
    // Every task runs without recording, on any worker: `anubis-obs`
    // recording is thread-local and only ever enabled on the coordinating
    // thread, so spawned workers never record, and the caller's own claims
    // (or the whole inline run) hold a suppress guard. Trace content is
    // therefore independent of the resolved worker count.
    if workers <= 1 {
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
    let drain = || {
        let mut done = Vec::new();
        while let Some((i, task)) = claim() {
            done.push((i, run(i, task)));
        }
        done
    };
    let drain = &drain;
    let mut tagged: Vec<(usize, R)> = Vec::new();
    let mut panic_payload = None;
    thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        // A panic in one of the caller's tasks waits, like a worker's,
        // until every worker has stopped.
        let mine = {
            let _quiet = anubis_obs::suppress();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(drain))
        };
        for outcome in
            std::iter::once(mine).chain(handles.into_iter().map(thread::ScopedJoinHandle::join))
        {
            match outcome {
                Ok(pairs) => tagged.extend(pairs),
                Err(payload) => panic_payload = Some(payload),
            }
        }
    });
    if let Some(payload) = panic_payload {
        // Re-raise a task's panic on the caller (every worker has joined).
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

/// Polls before a waiting side starts yielding its time slice: a step's
/// two halves usually finish within microseconds of each other.
const SPIN_POLLS: u32 = 1 << 12;

/// Yields after the spin before an idle helper parks.
const YIELD_POLLS: u32 = 1 << 6;

/// A job handed to the helper thread (see [`Helper::join`]).
type Job = Box<dyn FnOnce() + Send>;

/// The one hand-off between the caller and the helper thread.
enum Handoff {
    /// No job outstanding.
    Idle,
    /// A job the helper has not started; the caller may take it back.
    Offered(Job),
    /// The helper is running the job.
    Running,
    /// The helper ran the job (`Err` holds its panic).
    Finished(thread::Result<()>),
    /// The scope is ending: the helper returns.
    Closed,
}

// The helper's hand-off is this crate's second sanctioned lock: it orders
// who runs a job, never what a job computes.
#[allow(clippy::disallowed_types)]
type Slot = std::sync::Mutex<Handoff>;

/// Locks the hand-off (a panicking job never holds the lock, so there is
/// no poison to respect).
fn lock(slot: &Slot) -> std::sync::MutexGuard<'_, Handoff> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `slot`'s jobs until the scope closes: takes each offered job,
/// runs it, and reports it finished. Idle, it spins, then yields, then
/// parks until the caller offers the next job.
// The helper's idle wait: yielding and parking are part of the wait, not
// a scheduling decision the results could see.
#[allow(clippy::disallowed_methods)]
fn serve(slot: &Slot) {
    let mut idle = 0u32;
    loop {
        let offered = {
            let mut state = lock(slot);
            match std::mem::replace(&mut *state, Handoff::Idle) {
                Handoff::Offered(job) => {
                    *state = Handoff::Running;
                    Some(job)
                }
                Handoff::Closed => return,
                other => {
                    *state = other;
                    None
                }
            }
        };
        if let Some(job) = offered {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            *lock(slot) = Handoff::Finished(outcome);
            idle = 0;
        } else {
            idle = idle.saturating_add(1);
            if idle < SPIN_POLLS {
                std::hint::spin_loop();
            } else if idle < SPIN_POLLS + YIELD_POLLS {
                thread::yield_now();
            } else {
                thread::park();
            }
        }
    }
}

/// The caller's end of a [`with_helper`] scope: splits steps in two
/// halves, one for the caller and one for the helper thread (or, at one
/// thread, both for the caller).
pub struct Helper<'scope> {
    lane: Option<Lane<'scope>>,
}

/// The hand-off slot of a running helper thread and the thread itself.
struct Lane<'scope> {
    slot: &'scope Slot,
    thread: thread::Thread,
}

impl Drop for Lane<'_> {
    fn drop(&mut self) {
        *lock(self.slot) = Handoff::Closed;
        self.thread.unpark();
    }
}

/// Runs `body` with a [`Helper`]: one helper thread that lives for the
/// whole call when `threads` resolves (see [`resolve_threads`]) to 2 or
/// more, none at 1. A loop of many short two-way steps then pays one
/// spawn, not one per step.
///
/// Results never depend on which: [`Helper::join`] returns each half's
/// result in its own slot, and the halves may share nothing mutable.
///
/// # Examples
///
/// ```
/// let mut xs: Vec<u64> = (1..=10).collect();
/// let sums = anubis_parallel::with_helper(2, |helper| {
///     let (low, high) = xs.split_at_mut(4);
///     helper.join(|| low.iter().sum::<u64>(), || high.iter().sum::<u64>())
/// });
/// assert_eq!(sums, (10, 45));
/// ```
// The helper is this crate's second sanctioned `std::thread` user.
#[allow(clippy::disallowed_methods)]
pub fn with_helper<R>(threads: usize, body: impl FnOnce(&mut Helper<'_>) -> R) -> R {
    if resolve_threads(threads) <= 1 {
        return body(&mut Helper { lane: None });
    }
    let slot = Slot::new(Handoff::Idle);
    thread::scope(|scope| {
        let thread = scope.spawn(|| serve(&slot)).thread().clone();
        // Dropping the lane, on return or unwind, closes the slot; the
        // helper then returns and the scope joins it.
        body(&mut Helper {
            lane: Some(Lane {
                slot: &slot,
                thread,
            }),
        })
    })
}

impl Helper<'_> {
    /// Threads a step runs on: 2 with a helper thread, 1 without.
    pub fn lanes(&self) -> usize {
        if self.lane.is_some() {
            2
        } else {
            1
        }
    }

    /// Runs `mine` on the calling thread and `theirs` on the helper
    /// thread at the same time, and returns both results once both have
    /// finished. If the helper has not started `theirs` by the time
    /// `mine` is done (say, another process holds its core), the caller
    /// takes `theirs` back and runs it itself, so a busy host costs the
    /// split, not a wait. Without a helper thread both run inline.
    /// `theirs` on the caller runs under [`anubis_obs::suppress`], as the
    /// helper records nothing, so a trace looks the same at any thread
    /// count.
    ///
    /// A panic in either half is re-raised on the caller once neither
    /// half is running (the caller's own first).
    // Waiting on a started half yields: part of the wait, not a
    // scheduling decision the results could see.
    #[allow(clippy::disallowed_methods)]
    pub fn join<A, B, RA, RB>(&mut self, mine: A, theirs: B) -> (RA, RB)
    where
        A: FnOnce() -> RA,
        B: FnOnce() -> RB + Send,
        RB: Send,
    {
        let Some(lane) = &self.lane else {
            let first = mine();
            let _quiet = anubis_obs::suppress();
            return (first, theirs());
        };
        let mut result: Option<RB> = None;
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(|| result = Some(theirs()));
        // SAFETY: only the lifetime changes. `job` borrows `result` and
        // whatever `theirs` captured, all of which outlive this call, so
        // it must be run or dropped before `join` returns or unwinds. It
        // is: below, the caller either takes the job back from the
        // hand-off (and runs or drops it here), or sees the helper take
        // it and then waits for `Finished`, which the helper reports only
        // after the job has run and been dropped (a panic included, which
        // it catches). A panic in `mine` is caught until then.
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
        *lock(lane.slot) = Handoff::Offered(job);
        lane.thread.unpark();
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(mine));
        let mut polls = 0u32;
        let second = loop {
            let mut state = lock(lane.slot);
            match std::mem::replace(&mut *state, Handoff::Idle) {
                Handoff::Offered(job) => {
                    drop(state);
                    if first.is_ok() {
                        let _quiet = anubis_obs::suppress();
                        job();
                    }
                    break Ok(());
                }
                Handoff::Finished(outcome) => break outcome,
                running => *state = running,
            }
            drop(state);
            polls = polls.saturating_add(1);
            if polls < SPIN_POLLS {
                std::hint::spin_loop();
            } else {
                thread::yield_now();
            }
        };
        let first = first.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        if let Err(payload) = second {
            std::panic::resume_unwind(payload);
        }
        match result {
            Some(second) => (first, second),
            // Unreachable: a job that ran set `result`, and every other
            // path has re-raised a panic above.
            None => std::panic::resume_unwind(Box::new("join lost its second half")),
        }
    }
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
        // A heavy first task is the one the calling thread claims first.
        for heavy in [0, TASKS / 2, TASKS - 1] {
            let rounds = |i: usize| if i == heavy { 100_000 } else { 1_000 };
            let expect: Vec<(usize, u64)> = (0..TASKS).map(|i| (i, spin(rounds(i)))).collect();
            for threads in [1, 2, 3, 4, 8] {
                let runs: Vec<AtomicUsize> = (0..TASKS).map(|_| AtomicUsize::new(0)).collect();
                let out = map_indexed(TASKS, threads, |i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    (i, spin(rounds(i)))
                });
                assert_eq!(out, expect, "heavy {heavy}, threads {threads}");
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "heavy {heavy}, threads {threads}: every task runs exactly once"
                );
                let mut items: Vec<usize> = (0..TASKS).collect();
                let chunked = map_chunks_mut(&mut items, 1, threads, |c, chunk| {
                    (c, chunk.iter().map(|&i| spin(rounds(i))).sum::<u64>())
                });
                assert_eq!(
                    chunked, expect,
                    "map_chunks_mut, heavy {heavy}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn helper_steps_match_at_any_thread_count() {
        // Many short steps on borrowed, disjoint halves of one buffer:
        // the persistent helper sees each step's fresh borrows.
        let run = |threads: usize| {
            let mut values: Vec<u64> = (0..101).collect();
            let mut sums = Vec::new();
            let lanes = with_helper(threads, |helper| {
                for step in 0..500u64 {
                    let (low, high) = values.split_at_mut(40);
                    let bump = |half: &mut [u64]| {
                        for v in half.iter_mut() {
                            *v = v.wrapping_mul(31).wrapping_add(step);
                        }
                        half.iter().fold(0u64, |a, &v| a.wrapping_add(v))
                    };
                    let (a, b) = helper.join(|| bump(low), || bump(high));
                    sums.push((a, b));
                }
                helper.lanes()
            });
            (values, sums, lanes)
        };
        let (values, sums, lanes) = run(1);
        assert_eq!(lanes, 1);
        for threads in [2, 5] {
            let (v, s, lanes) = run(threads);
            assert_eq!(lanes, 2, "threads {threads}");
            assert_eq!((&v, &s), (&values, &sums), "threads {threads}");
        }
    }

    #[test]
    fn helper_panic_is_raised_on_the_caller() {
        for threads in [1, 2] {
            let mut after = 0;
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_helper(threads, |helper| {
                    helper.join(|| (), || ());
                    helper.join(|| after += 1, || assert!(threads == 0, "boom"));
                    after += 10;
                });
            }));
            let payload = caught.expect_err("the helper's panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
            // The caller's half finished; nothing after the join ran.
            assert_eq!(after, 1, "threads {threads}");
        }
    }

    #[test]
    // Watching the helper half start and finish needs flags shared
    // across threads.
    #[allow(clippy::disallowed_types)]
    fn caller_panic_waits_for_a_started_helper_half() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (started, finished) = (AtomicBool::new(false), AtomicBool::new(false));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_helper(2, |helper| {
                helper.join(
                    || {
                        while !started.load(Ordering::SeqCst) {
                            std::hint::spin_loop();
                        }
                        panic!("caller");
                    },
                    || {
                        started.store(true, Ordering::SeqCst);
                        spin(2_000_000);
                        finished.store(true, Ordering::SeqCst);
                    },
                )
            })
        }));
        assert!(caught.is_err());
        assert!(
            finished.load(Ordering::SeqCst),
            "join unwound while its helper half ran"
        );
    }

    #[test]
    // Pinning one task to each lane and watching the other lane finish
    // needs counters and flags shared across threads.
    #[allow(clippy::disallowed_types, clippy::disallowed_methods)]
    fn a_task_panic_is_raised_once_every_lane_has_stopped() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let caller = thread::current().id();
        // Two tasks on two lanes: each task waits until both have started,
        // so each lane claims exactly one. The task on `panicking_lane`
        // panics at once; the other keeps running a while, then finishes.
        for caller_panics in [true, false] {
            let (started, finished) = (AtomicUsize::new(0), AtomicBool::new(false));
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                map_indexed(2, 2, |_| {
                    started.fetch_add(1, Ordering::SeqCst);
                    let mut waits = 0u64;
                    while started.load(Ordering::SeqCst) < 2 {
                        waits += 1;
                        assert!(waits < 1 << 26, "the second lane never claimed a task");
                        thread::yield_now();
                    }
                    if (thread::current().id() == caller) == caller_panics {
                        panic!("lane");
                    }
                    spin(2_000_000);
                    finished.store(true, Ordering::SeqCst);
                })
            }));
            let payload = caught.expect_err("the task's panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"lane"));
            assert!(
                finished.load(Ordering::SeqCst),
                "caller_panics {caller_panics}: raised while the other lane ran"
            );
        }
        // At one thread every task is the caller's.
        let caught = std::panic::catch_unwind(|| {
            map_indexed(3, 1, |i| {
                assert!(i != 1, "inline");
                i
            })
        });
        assert!(caught.is_err());
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
