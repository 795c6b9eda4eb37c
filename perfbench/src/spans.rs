//! Wall-clock spans, sample statistics and process memory.
//!
//! Every reading goes through `anubis_obs::wall::Stopwatch`, the
//! workspace's one sanctioned clock. Spans stay in memory while a traced
//! run executes and are written out once, at the end.

use anubis_obs::wall::Stopwatch;
use std::fmt::Write as _;

/// One timed call into a layer: `[start_s, end_s]` on the run's clock,
/// and the index of the span that made the call.
#[derive(Debug, Clone)]
pub(crate) struct Span {
    pub(crate) name: String,
    pub(crate) start_s: f64,
    pub(crate) end_s: f64,
    pub(crate) parent: Option<usize>,
}

impl Span {
    pub(crate) fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An in-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub(crate) struct Spans {
    clock: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub(crate) fn new() -> Self {
        Self {
            clock: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The recorder's clock, for timings taken on worker threads and
    /// added afterwards with [`Spans::record`].
    pub(crate) fn clock(&self) -> Stopwatch {
        self.clock
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub(crate) fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_s: self.clock.elapsed_secs(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.clock.elapsed_secs();
        out
    }

    /// Adds a span measured elsewhere as a child of the innermost open span.
    pub(crate) fn record(&mut self, name: &str, start_s: f64, end_s: f64) {
        self.spans.push(Span {
            name: name.to_string(),
            start_s,
            end_s,
            parent: self.open.last().copied(),
        });
    }

    /// Durations in seconds of every span named `name`.
    pub(crate) fn secs_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// The first span named `name` and its index.
    pub(crate) fn find(&self, name: &str) -> Option<(usize, &Span)> {
        self.spans.iter().enumerate().find(|(_, s)| s.name == name)
    }

    /// The duration of span `root` that none of its direct children
    /// covers.
    pub(crate) fn self_secs(&self, root: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(Span::secs)
            .sum();
        self.spans[root].secs() - children
    }

    /// One JSON object per span, in start order.
    pub(crate) fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}",
                s.name, s.start_s, s.end_s
            );
        }
        out
    }
}

/// The median (mean of the middle pair for even counts); NaN when empty.
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `[0, 1]`; NaN when empty.
pub(crate) fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied().unwrap_or(f64::NAN)
}

/// The mean; 0 when empty (a layer the workload never entered).
pub(crate) fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The process high-water resident set (`VmHWM`) in MiB.
pub(crate) fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 100.0);
        assert_eq!(percentile(&xs, 0.99), 198.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn spans_nest_and_account() {
        let mut spans = Spans::new();
        spans.time("root", |s| {
            s.time("a", |_| ());
            s.time("b", |s| s.time("c", |_| ()));
        });
        let (root, span) = spans.find("root").expect("root span");
        assert_eq!(spans.find("c").map(|(_, s)| s.parent), Some(Some(2)));
        let children: f64 = ["a", "b"].iter().map(|n| spans.secs_of(n)[0]).sum();
        assert_eq!(spans.self_secs(root), span.secs() - children);
        assert!(spans.self_secs(root) >= 0.0);
        assert_eq!(spans.to_jsonl().lines().count(), 4);
    }
}
