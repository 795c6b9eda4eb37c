//! Trace records and the stable JSONL export.
//!
//! [`Trace::to_jsonl`] is the machine-readable interface consumed by
//! `cargo xtask profile` and anything downstream; its line formats are a
//! schema (versioned by [`Trace::SCHEMA_VERSION`]) and covered by golden
//! tests below. Serialization is hand-rolled — no external dependency,
//! no `HashMap` iteration, `f64` rendered via `Display` (shortest
//! round-trip form) — so equal traces always produce equal bytes.
//!
//! Line formats, one JSON object per line:
//!
//! ```text
//! {"schema":1,"records":N,"dropped":D,"counters":C,"hists":H}   header
//! {"seq":0,"vt":1.5,"ev":"enter","target":"...","name":"..."}   record
//! {"counter":"...","target":"...","total":N}                    counter
//! {"hist":"...","target":"...","edges":[..],"counts":[..],"total":N}
//! ```

use std::fmt::Write as _;

/// What a ring-buffer record represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A span opened.
    Enter,
    /// A span closed.
    Exit,
    /// An instantaneous event.
    Point,
}

impl RecordKind {
    /// The `ev` field value in the JSONL export.
    pub fn as_str(self) -> &'static str {
        match self {
            RecordKind::Enter => "enter",
            RecordKind::Exit => "exit",
            RecordKind::Point => "point",
        }
    }
}

/// One ring-buffer record: a span boundary or an instantaneous event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Monotonic per-thread sequence number (restarts at 0 on drain).
    pub seq: u64,
    /// Virtual simulation time when the record was made.
    pub vt: f64,
    /// Record flavor.
    pub kind: RecordKind,
    /// Emitting module path (`module_path!()` at the instrumentation site).
    pub target: &'static str,
    /// Span or event name.
    pub name: &'static str,
}

/// Final value of one named counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterTotal {
    /// Emitting module path.
    pub target: &'static str,
    /// Counter name.
    pub name: &'static str,
    /// Saturating sum of all deltas.
    pub total: i64,
}

/// Snapshot of one named histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Emitting module path.
    pub target: &'static str,
    /// Histogram name.
    pub name: &'static str,
    /// Bucket edges (see [`crate::hist`]).
    pub edges: &'static [f64],
    /// Per-bucket counts; one longer than `edges`.
    pub counts: Vec<u64>,
    /// Total observations.
    pub total: u64,
}

/// A drained per-thread trace: records in chronological order plus
/// aggregate counters and histograms (each sorted by `(target, name)`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Ring-buffer records, oldest first.
    pub records: Vec<Record>,
    /// Records overwritten because the ring was full.
    pub dropped: u64,
    /// Counter totals, sorted by `(target, name)`.
    pub counters: Vec<CounterTotal>,
    /// Histogram snapshots, sorted by `(target, name)`.
    pub hists: Vec<HistogramSnapshot>,
}

impl Trace {
    /// Version stamped into the header line; bump when a line format
    /// changes incompatibly.
    pub const SCHEMA_VERSION: u32 = 1;

    /// Renders the trace as JSONL (header, records, counters, histograms;
    /// one JSON object per line, trailing newline included).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + self.records.len() * 80);
        self.append_jsonl(&mut out);
        out
    }

    /// Appends the JSONL rendering to a caller-owned (typically pooled)
    /// buffer — the allocation-free path (0 allocations into a warm
    /// buffer, pinned in the root `tests/alloc_counts.rs`): every field
    /// renders through `fmt::Write` directly into `out`.
    pub fn append_jsonl(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "{{\"schema\":{},\"records\":{},\"dropped\":{},\"counters\":{},\"hists\":{}}}",
            Self::SCHEMA_VERSION,
            self.records.len(),
            self.dropped,
            self.counters.len(),
            self.hists.len(),
        );
        for r in &self.records {
            let _ = write!(out, "{{\"seq\":{},\"vt\":", r.seq);
            push_f64(out, r.vt);
            let _ = write!(out, ",\"ev\":\"{}\",\"target\":\"", r.kind.as_str());
            push_escaped(out, r.target);
            out.push_str("\",\"name\":\"");
            push_escaped(out, r.name);
            out.push_str("\"}\n");
        }
        for c in &self.counters {
            out.push_str("{\"counter\":\"");
            push_escaped(out, c.name);
            out.push_str("\",\"target\":\"");
            push_escaped(out, c.target);
            let _ = writeln!(out, "\",\"total\":{}}}", c.total);
        }
        for h in &self.hists {
            out.push_str("{\"hist\":\"");
            push_escaped(out, h.name);
            out.push_str("\",\"target\":\"");
            push_escaped(out, h.target);
            out.push_str("\",\"edges\":[");
            for (i, &edge) in h.edges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_f64(out, edge);
            }
            out.push_str("],\"counts\":[");
            for (i, count) in h.counts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{count}");
            }
            let _ = writeln!(out, "],\"total\":{}}}", h.total);
        }
    }
}

/// Writes `v` as a JSON number. `Display` for `f64` is the shortest
/// round-trip decimal form, which is deterministic; non-finite values
/// (not representable in JSON) degrade to `0`.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

/// Minimal JSON string escaping. Targets and names are Rust identifiers
/// and path literals in practice, so this is almost always a pass-through.
fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            records: vec![
                Record {
                    seq: 0,
                    vt: 0.0,
                    kind: RecordKind::Enter,
                    target: "anubis_cluster::sim",
                    name: "cluster.simulate",
                },
                Record {
                    seq: 1,
                    vt: 1.5,
                    kind: RecordKind::Point,
                    target: "anubis_cluster::sim",
                    name: "sim.job_interrupted",
                },
                Record {
                    seq: 2,
                    vt: 24.0,
                    kind: RecordKind::Exit,
                    target: "anubis_cluster::sim",
                    name: "cluster.simulate",
                },
            ],
            dropped: 0,
            counters: vec![CounterTotal {
                target: "anubis_cluster::sim",
                name: "sim.incidents",
                total: 3,
            }],
            hists: vec![HistogramSnapshot {
                target: "anubis_validator::validator",
                name: "validator.duration_minutes",
                edges: &[1.0, 5.0],
                counts: vec![0, 2, 1],
                total: 3,
            }],
        }
    }

    /// Golden test: the exact bytes of every line format. A change here is
    /// a schema change — bump [`Trace::SCHEMA_VERSION`] and update the
    /// profile reader in xtask.
    #[test]
    fn jsonl_schema_is_stable() {
        let expected = concat!(
            "{\"schema\":1,\"records\":3,\"dropped\":0,\"counters\":1,\"hists\":1}\n",
            "{\"seq\":0,\"vt\":0,\"ev\":\"enter\",\"target\":\"anubis_cluster::sim\",\"name\":\"cluster.simulate\"}\n",
            "{\"seq\":1,\"vt\":1.5,\"ev\":\"point\",\"target\":\"anubis_cluster::sim\",\"name\":\"sim.job_interrupted\"}\n",
            "{\"seq\":2,\"vt\":24,\"ev\":\"exit\",\"target\":\"anubis_cluster::sim\",\"name\":\"cluster.simulate\"}\n",
            "{\"counter\":\"sim.incidents\",\"target\":\"anubis_cluster::sim\",\"total\":3}\n",
            "{\"hist\":\"validator.duration_minutes\",\"target\":\"anubis_validator::validator\",\"edges\":[1,5],\"counts\":[0,2,1],\"total\":3}\n",
        );
        assert_eq!(sample_trace().to_jsonl(), expected);
    }

    #[test]
    fn equal_traces_serialize_to_equal_bytes() {
        assert_eq!(sample_trace().to_jsonl(), sample_trace().to_jsonl());
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        let mut s = String::new();
        push_escaped(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn non_finite_times_degrade_to_zero() {
        let mut s = String::new();
        push_f64(&mut s, f64::NAN);
        assert_eq!(s, "0");
    }
}
