//! Deterministic observability for the anubis workspace.
//!
//! Every simulation in this workspace promises bit-for-bit reproducible
//! output, so the observability tier must never read a clock on a result
//! path. This crate records **virtual simulation time** — a value the
//! instrumented code sets explicitly via [`set_time`] — together with a
//! monotonic per-thread sequence number, into a preallocated per-thread
//! ring buffer. Recording is a pair of thread-local writes; when tracing
//! is disabled (the default) every entry point is a cheap early return.
//!
//! # Determinism contract
//!
//! * Records carry `(seq, vt)` only; wall-clock time never appears in a
//!   trace. Wall-clock timing for operator-facing progress output lives
//!   behind the `wallclock` cargo feature in [`wall`] and is the single
//!   sanctioned `Instant` facade (the root `clippy.toml` disallows
//!   `Instant`/`SystemTime` everywhere else).
//! * State is thread-local and recording must be enabled per thread, so
//!   worker threads spawned by `anubis-parallel` never record. The
//!   executor's inline (single-worker) path additionally holds a
//!   [`suppress`] guard, making traces *byte-identical at any
//!   `ANUBIS_THREADS` value by construction*: work routed through the
//!   executor is invisible to the trace no matter where it ran.
//! * [`Trace::to_jsonl`](trace::Trace::to_jsonl) renders counters and
//!   histograms in `BTreeMap` order and records in ring order, so equal
//!   traces serialize to equal bytes.
//!
//! # Example
//!
//! ```
//! anubis_obs::enable_with_capacity(64);
//! anubis_obs::set_time(12.5);
//! {
//!     let _span = anubis_obs::span!("demo.step");
//!     anubis_obs::counter!("demo.items", 3);
//! }
//! let trace = anubis_obs::drain();
//! assert_eq!(trace.records.len(), 2); // enter + exit
//! assert_eq!(trace.counters[0].total, 3);
//! anubis_obs::disable();
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

pub mod hist;
pub mod trace;
#[cfg(feature = "wallclock")]
pub mod wall;

pub use hist::Histogram;
pub use trace::{CounterTotal, HistogramSnapshot, Record, RecordKind, Trace};

// The thread-local recorder is the one sanctioned `RefCell`: it is
// per-thread and only ever enabled on the coordinating thread.
#[allow(clippy::disallowed_types)]
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Default ring-buffer capacity (records) used by [`enable`].
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Per-thread recording state. All fields are reset by
/// [`enable_with_capacity`]; the ring buffer is preallocated there so the
/// record path never allocates.
struct Recorder {
    enabled: bool,
    suppress_depth: u32,
    seq: u64,
    vt: f64,
    capacity: usize,
    buf: Vec<Record>,
    /// Next overwrite position once the ring is full.
    head: usize,
    dropped: u64,
    counters: BTreeMap<(&'static str, &'static str), i64>,
    hists: BTreeMap<(&'static str, &'static str), Histogram>,
}

impl Recorder {
    fn new() -> Self {
        Self {
            enabled: false,
            suppress_depth: 0,
            seq: 0,
            vt: 0.0,
            capacity: 0,
            buf: Vec::new(),
            head: 0,
            dropped: 0,
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    fn recording(&self) -> bool {
        self.enabled && self.suppress_depth == 0
    }

    fn push(&mut self, kind: RecordKind, target: &'static str, name: &'static str) {
        let record = Record {
            seq: self.seq,
            vt: self.vt,
            kind,
            target,
            name,
        };
        self.seq += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(record);
        } else if let Some(slot) = self.buf.get_mut(self.head) {
            // Ring full: overwrite the oldest record and account for it.
            *slot = record;
            self.head += 1;
            if self.head >= self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    fn drain(&mut self) -> Trace {
        // Chronological order: the ring's oldest record sits at `head`
        // once the buffer has wrapped.
        let mut records = Vec::with_capacity(self.buf.len());
        records.extend(self.buf.iter().skip(self.head).copied());
        records.extend(self.buf.iter().take(self.head).copied());
        let counters = self
            .counters
            .iter()
            .map(|(&(target, name), &total)| CounterTotal {
                target,
                name,
                total,
            })
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|(&(target, name), h)| HistogramSnapshot {
                target,
                name,
                edges: h.edges(),
                counts: h.counts().to_vec(),
                total: h.total(),
            })
            .collect();
        let trace = Trace {
            records,
            dropped: self.dropped,
            counters,
            hists,
        };
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
        self.seq = 0;
        self.counters.clear();
        self.hists.clear();
        trace
    }
}

thread_local! {
    #[allow(clippy::disallowed_types)]
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::new());
}

/// Runs `f` against this thread's recorder. Returns `None` (and does
/// nothing) if the thread-local is unavailable (thread teardown) or
/// already borrowed (reentrant call from a `Drop`); recording is a
/// best-effort side channel and must never panic.
fn with<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    RECORDER
        .try_with(|cell| cell.try_borrow_mut().ok().map(|mut r| f(&mut r)))
        .ok()
        .flatten()
}

/// Enables recording on the current thread with [`DEFAULT_CAPACITY`].
pub fn enable() {
    enable_with_capacity(DEFAULT_CAPACITY);
}

/// Enables recording on the current thread, resetting all prior state and
/// preallocating a ring buffer of `capacity` records (clamped to ≥ 1).
/// Virtual time restarts at `0.0` and sequence numbers at `0`.
pub fn enable_with_capacity(capacity: usize) {
    let capacity = capacity.max(1);
    let _ = with(|r| {
        *r = Recorder::new();
        r.enabled = true;
        r.capacity = capacity;
        r.buf = Vec::with_capacity(capacity);
    });
}

/// Disables recording on the current thread and releases its buffers.
pub fn disable() {
    let _ = with(|r| *r = Recorder::new());
}

/// Sets the current virtual time stamped onto subsequent records.
/// Instrumented event loops call this with their simulation clock.
pub fn set_time(vt: f64) {
    let _ = with(|r| r.vt = vt);
}

/// The current virtual time (0.0 when recording was never enabled).
pub fn time() -> f64 {
    with(|r| r.vt).unwrap_or(0.0)
}

/// RAII guard suppressing recording on this thread while alive.
///
/// Used by `anubis-parallel` on its inline execution path so that work
/// which *may* run on a worker thread (where recording is never enabled)
/// is equally invisible when it happens to run on the caller's thread —
/// the trace cannot depend on the resolved thread count.
pub struct SuppressGuard(());

impl Drop for SuppressGuard {
    fn drop(&mut self) {
        let _ = with(|r| r.suppress_depth = r.suppress_depth.saturating_sub(1));
    }
}

/// Suppresses recording on this thread until the returned guard drops.
/// Nests; spans opened *before* suppression still record their exit.
#[must_use = "suppression ends when the guard drops"]
pub fn suppress() -> SuppressGuard {
    let _ = with(|r| r.suppress_depth = r.suppress_depth.saturating_add(1));
    SuppressGuard(())
}

/// RAII span guard: records `Exit` on drop iff the matching `Enter` was
/// recorded, keeping traces balanced across suppression boundaries.
#[must_use = "a span ends when its guard drops; bind it with `let _span = ...`"]
pub struct SpanGuard {
    armed: bool,
    target: &'static str,
    name: &'static str,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            // Forced: the exit pairs an already-recorded enter even if
            // suppression began while the span was open.
            let _ = with(|r| {
                if r.enabled {
                    r.push(RecordKind::Exit, self.target, self.name);
                }
            });
        }
    }
}

/// Opens a span; prefer the [`span!`] macro, which fills `target` with the
/// caller's module path.
pub fn span_scope(target: &'static str, name: &'static str) -> SpanGuard {
    let armed = with(|r| {
        if r.recording() {
            r.push(RecordKind::Enter, target, name);
            true
        } else {
            false
        }
    })
    .unwrap_or(false);
    SpanGuard {
        armed,
        target,
        name,
    }
}

/// Records an instantaneous event; prefer the [`event!`] macro.
pub fn point(target: &'static str, name: &'static str) {
    let _ = with(|r| {
        if r.recording() {
            r.push(RecordKind::Point, target, name);
        }
    });
}

/// Adds `delta` to a named counter; prefer the [`counter!`] macro.
/// Counters are aggregates: they appear once in the drained trace, not in
/// the record ring.
pub fn add(target: &'static str, name: &'static str, delta: i64) {
    let _ = with(|r| {
        if r.recording() {
            let total = r.counters.entry((target, name)).or_insert(0);
            *total = total.saturating_add(delta);
        }
    });
}

/// Records `value` into a fixed-bucket histogram with the given bucket
/// `edges` (see [`Histogram`]); prefer the [`hist!`] macro. The first
/// `observe` for a name fixes its edges; later calls reuse them.
pub fn observe(target: &'static str, name: &'static str, value: f64, edges: &'static [f64]) {
    let _ = with(|r| {
        if r.recording() {
            r.hists
                .entry((target, name))
                .or_insert_with(|| Histogram::new(edges))
                .record(value);
        }
    });
}

/// Drains this thread's trace: returns all buffered records (in
/// chronological ring order), counter totals and histogram snapshots, then
/// clears them. Recording stays enabled; virtual time is preserved.
pub fn drain() -> Trace {
    with(Recorder::drain).unwrap_or_default()
}

/// Opens a span named `$name` with the caller's `module_path!()` as the
/// target. Returns a [`SpanGuard`]; bind it (`let _span = ...`) so the
/// span covers the intended scope.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span_scope(::core::module_path!(), $name)
    };
}

/// Records an instantaneous event named `$name` with the caller's
/// `module_path!()` as the target.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::point(::core::module_path!(), $name)
    };
}

/// Adds `$delta` (an `i64`) to the counter named `$name` under the
/// caller's `module_path!()`.
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {
        $crate::add(::core::module_path!(), $name, $delta)
    };
}

/// Records `$value` (an `f64`) into the fixed-bucket histogram named
/// `$name` with bucket `$edges` (a `&'static [f64]`), under the caller's
/// `module_path!()`.
#[macro_export]
macro_rules! hist {
    ($name:expr, $value:expr, $edges:expr) => {
        $crate::observe(::core::module_path!(), $name, $value, $edges)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_a_no_op() {
        disable();
        set_time(5.0);
        let _span = span!("noop");
        counter!("noop.count", 1);
        let trace = drain();
        assert!(trace.records.is_empty());
        assert!(trace.counters.is_empty());
    }

    #[test]
    fn spans_counters_and_events_round_trip() {
        enable_with_capacity(16);
        set_time(1.0);
        {
            let _span = span!("outer");
            set_time(1.5);
            event!("tick");
            counter!("ticks", 2);
            counter!("ticks", 3);
        }
        let trace = drain();
        disable();
        let kinds: Vec<RecordKind> = trace.records.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![RecordKind::Enter, RecordKind::Point, RecordKind::Exit]
        );
        assert_eq!(trace.records[0].vt, 1.0);
        assert_eq!(trace.records[2].vt, 1.5);
        assert_eq!(trace.records[0].target, module_path!());
        assert_eq!(trace.counters.len(), 1);
        assert_eq!(trace.counters[0].name, "ticks");
        assert_eq!(trace.counters[0].total, 5);
    }

    #[test]
    fn ring_buffer_wraps_and_counts_drops() {
        enable_with_capacity(4);
        for i in 0..10 {
            set_time(f64::from(i));
            event!("tick");
        }
        let trace = drain();
        disable();
        assert_eq!(trace.records.len(), 4);
        assert_eq!(trace.dropped, 6);
        // The survivors are the newest four, in chronological order.
        let seqs: Vec<u64> = trace.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(trace.records[0].vt, 6.0);
        assert_eq!(trace.records[3].vt, 9.0);
    }

    #[test]
    fn suppression_nests_and_balances_open_spans() {
        enable_with_capacity(16);
        let span_outer = span!("outer");
        {
            let _quiet = suppress();
            let _deeper = suppress();
            let _span_inner = span!("inner"); // not recorded
            event!("hidden");
            counter!("hidden.count", 1);
        }
        event!("visible");
        drop(span_outer); // records its exit after suppression ended
        let trace = drain();
        disable();
        let names: Vec<&str> = trace.records.iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["outer", "visible", "outer"]);
        assert!(trace.counters.is_empty());
    }

    #[test]
    fn exit_is_forced_for_spans_opened_before_suppression() {
        enable_with_capacity(16);
        let span = span!("crossing");
        let _quiet = suppress();
        drop(span); // suppressed scope, but the enter was recorded
        let trace = drain();
        disable();
        let kinds: Vec<RecordKind> = trace.records.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, vec![RecordKind::Enter, RecordKind::Exit]);
    }

    #[test]
    fn drain_resets_but_keeps_recording_enabled() {
        enable_with_capacity(8);
        event!("first");
        let first = drain();
        assert_eq!(first.records.len(), 1);
        event!("second");
        let second = drain();
        disable();
        assert_eq!(second.records.len(), 1);
        assert_eq!(second.records[0].seq, 0, "drain restarts sequence numbers");
        assert_eq!(second.records[0].name, "second");
    }

    #[test]
    fn histograms_aggregate_per_name() {
        enable_with_capacity(8);
        const EDGES: &[f64] = &[1.0, 10.0];
        hist!("latency", 0.5, EDGES);
        hist!("latency", 5.0, EDGES);
        hist!("latency", 50.0, EDGES);
        let trace = drain();
        disable();
        assert_eq!(trace.hists.len(), 1);
        assert_eq!(trace.hists[0].counts, vec![1, 1, 1]);
        assert_eq!(trace.hists[0].total, 3);
    }
}
