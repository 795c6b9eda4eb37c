//! Mergeable empirical-CDF sketches.
//!
//! [`Ecdf`] is a batch structure: it sorts the whole sample up front and
//! answers queries against the sorted support. At fleet scale the Validator
//! re-derives criteria as results stream in, and per-shard distributions
//! must combine into fleet-wide criteria without re-sorting the world.
//! [`EcdfSketch`] fills that gap: an append-only ECDF accumulator with
//!
//! - amortized `O(log n)` append (a logarithmic merge structure: sorted
//!   runs whose lengths follow a binary-counter discipline, so an append
//!   cascades through at most `log n` run merges, in place),
//! - `O(n + m)` merge of two sketches by a linear merge walk over their
//!   collapsed runs — no re-sort,
//! - quantiles over several sketches at once
//!   ([`EcdfSketch::quantile_of`]) selected from their sorted runs, with
//!   no merged copy, and
//! - queries (`eval`, `quantile`, `min`, `max`) that are *observationally
//!   equivalent* to building [`Ecdf`] over the same multiset of values:
//!   they return bit-identical results, because every query reduces to
//!   multiset counts and order statistics, which do not depend on how the
//!   values are partitioned into runs.
//!
//! Run merges compare with [`f64::total_cmp`] — the same comparator
//! [`crate::Sample`] sorts with — so [`EcdfSketch::to_ecdf`] reproduces the
//! batch support byte-for-byte even in the presence of `-0.0`.

use crate::ecdf::Ecdf;

/// An append-only, mergeable empirical-CDF accumulator.
///
/// # Examples
///
/// ```
/// use anubis_metrics::{Ecdf, EcdfSketch, Sample};
///
/// let mut shard_a = EcdfSketch::new();
/// shard_a.append(2.0);
/// shard_a.append(1.0);
/// let mut shard_b = EcdfSketch::new();
/// shard_b.append(4.0);
/// shard_b.append(2.0);
/// shard_a.merge(&shard_b);
///
/// let batch = Ecdf::new(&Sample::new(vec![1.0, 2.0, 2.0, 4.0]).unwrap());
/// assert_eq!(shard_a.eval(2.0), batch.eval(2.0));
/// assert_eq!(shard_a.quantile(0.5), batch.quantile(0.5));
/// assert_eq!(shard_a.to_ecdf(), batch);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EcdfSketch {
    /// Sorted runs. `runs[k]` is either empty or holds exactly `2^k`
    /// values, mirroring the bits of `len` — the classical logarithmic
    /// (binary-counter) merge structure.
    runs: Vec<Vec<f64>>,
    /// Total number of appended values.
    len: usize,
}

impl EcdfSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of appended values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no value has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one measurement. Amortized `O(log n)`: the new singleton
    /// run is carried upward, merging with each occupied level, exactly
    /// like incrementing a binary counter. The carry merges in place into
    /// the first free level's buffer, and emptied levels keep their
    /// capacity, so once every level has been filled once an append
    /// allocates nothing.
    #[expect(
        clippy::disallowed_macros,
        reason = "debug-only check that values are finite"
    )]
    pub fn append(&mut self, value: f64) {
        debug_assert!(value.is_finite(), "sketch values must be finite");
        let level = self
            .runs
            .iter()
            .position(Vec::is_empty)
            .unwrap_or(self.runs.len());
        if level == self.runs.len() {
            self.runs.push(Vec::new());
        }
        let (occupied, free) = self.runs.split_at_mut(level);
        if let Some(target) = free.first_mut() {
            target.reserve_exact(1 << level);
            target.push(value);
            for run in occupied {
                merge_in_place(target, run);
                run.clear();
            }
        }
        self.len += 1;
    }

    /// Appends every value of an iterator.
    pub fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        for v in values {
            self.append(v);
        }
    }

    /// Merges another sketch into this one **without re-sorting**: both
    /// sketches collapse their runs smallest-first (geometric run lengths
    /// make that `O(n)` / `O(m)` total) and a single linear merge walk
    /// combines the two collapsed runs — `O(n + m)` overall.
    pub fn merge(&mut self, other: &EcdfSketch) {
        if other.is_empty() {
            return;
        }
        let mut merged = self.collapsed();
        merge_in_place(&mut merged, &other.collapsed());
        self.len += other.len;
        self.runs.clear();
        self.runs.push(merged);
    }

    /// Merges any number of shard sketches into one fleet sketch, in the
    /// given order. Each part is collapsed once and the collapsed runs
    /// combine by balanced pairwise merging (`O(total · log parts)`), so
    /// merging a 64-shard fleet never re-sorts the world. The result is
    /// multiset-equal to appending every part's values into one sketch —
    /// and therefore (like [`EcdfSketch::merge`]) evaluates and
    /// quantile-queries identically regardless of how the fleet was
    /// partitioned.
    ///
    /// # Examples
    ///
    /// ```
    /// use anubis_metrics::EcdfSketch;
    ///
    /// let mut a = EcdfSketch::new();
    /// a.extend([3.0, 1.0]);
    /// let mut b = EcdfSketch::new();
    /// b.extend([2.0]);
    /// let fleet = EcdfSketch::merged([&a, &b]);
    /// assert_eq!(fleet.len(), 3);
    /// assert_eq!(fleet.quantile(0.5), 2.0);
    /// ```
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a EcdfSketch>) -> EcdfSketch {
        let mut runs: Vec<Vec<f64>> = parts
            .into_iter()
            .filter(|p| !p.is_empty())
            .map(EcdfSketch::collapsed)
            .collect();
        if runs.is_empty() {
            return EcdfSketch::new();
        }
        // Balanced tournament: merge adjacent pairs until one run is left.
        while runs.len() > 1 {
            let mut next: Vec<Vec<f64>> = Vec::with_capacity(runs.len().div_ceil(2));
            let mut iter = runs.into_iter();
            while let Some(mut left) = iter.next() {
                if let Some(right) = iter.next() {
                    merge_in_place(&mut left, &right);
                }
                next.push(left);
            }
            runs = next;
        }
        let merged = runs.swap_remove(0);
        let len = merged.len();
        EcdfSketch {
            runs: vec![merged],
            len,
        }
    }

    /// Evaluates `F(x)`, the fraction of values `<= x`. Bit-identical to
    /// [`Ecdf::eval`] on the same multiset: the count of values `<= x` is
    /// the sum of per-run counts regardless of partitioning.
    pub fn eval(&self, x: f64) -> f64 {
        let mut count = 0usize;
        for run in &self.runs {
            count += run.partition_point(|&v| v <= x);
        }
        count as f64 / self.len as f64
    }

    /// The quantile function, bit-identical to [`Ecdf::quantile`] on the
    /// same multiset: both return the `k`-th smallest value for the same
    /// `k`, and order statistics are a multiset property. An empty sketch
    /// has no quantiles and returns NaN for every `p`, as [`Self::eval`]
    /// does for every `x`.
    pub fn quantile(&self, p: f64) -> f64 {
        Self::quantile_of([self], p)
    }

    /// The `p`-quantile of the union of `parts`, bit-identical to
    /// `EcdfSketch::merged(parts).quantile(p)` but without the merged
    /// copy: the order statistic is selected directly from the parts'
    /// sorted runs, allocating nothing. Returns NaN when every part is
    /// empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use anubis_metrics::EcdfSketch;
    ///
    /// let mut a = EcdfSketch::new();
    /// a.extend([3.0, 1.0]);
    /// let mut b = EcdfSketch::new();
    /// b.extend([2.0]);
    /// let q = EcdfSketch::quantile_of([&a, &b], 0.5);
    /// assert_eq!(q, EcdfSketch::merged([&a, &b]).quantile(0.5));
    /// ```
    pub fn quantile_of<'a, I>(parts: I, p: f64) -> f64
    where
        I: IntoIterator<Item = &'a EcdfSketch>,
        I::IntoIter: Clone,
    {
        let parts = parts.into_iter();
        let len: usize = parts.clone().map(EcdfSketch::len).sum();
        if len == 0 {
            return f64::NAN;
        }
        let k = ((p.clamp(0.0, 1.0) * len as f64).ceil() as usize).clamp(1, len);
        select_kth(parts.flat_map(|part| part.runs.iter()), k)
    }

    /// Smallest appended value.
    pub fn min(&self) -> f64 {
        let mut best = f64::INFINITY;
        for run in &self.runs {
            if let Some(&first) = run.first() {
                if first.total_cmp(&best).is_lt() {
                    best = first;
                }
            }
        }
        best
    }

    /// Largest appended value.
    pub fn max(&self) -> f64 {
        let mut best = f64::NEG_INFINITY;
        for run in &self.runs {
            if let Some(&last) = run.last() {
                if last.total_cmp(&best).is_gt() {
                    best = last;
                }
            }
        }
        best
    }

    /// Collapses all runs into one ascending vector. Run lengths are
    /// geometric, so merging smallest-first costs `O(n)` total.
    fn collapsed(&self) -> Vec<f64> {
        let mut acc = Vec::with_capacity(self.len);
        for run in &self.runs {
            merge_in_place(&mut acc, run);
        }
        acc
    }

    /// Converts into a batch [`Ecdf`]. The collapsed runs are exactly the
    /// [`f64::total_cmp`]-sorted support [`Ecdf::new`] would build.
    pub fn to_ecdf(&self) -> Ecdf {
        Ecdf::from_sorted(self.collapsed())
    }
}

/// Merges `src` into `dst` in place, both sorted by [`f64::total_cmp`],
/// by a backward merge walk into `dst`'s tail that stops once `src` is
/// used up. Ties keep `dst`'s values first; values that compare equal
/// under the total order have equal bits anyway.
#[expect(
    clippy::indexing_slicing,
    reason = "`out` walks `dst`'s resized length down; `i1 < i <= out` and `j1 < j`"
)]
fn merge_in_place(dst: &mut Vec<f64>, src: &[f64]) {
    let mut i = dst.len();
    let mut j = src.len();
    dst.resize(i + j, 0.0);
    for out in (0..dst.len()).rev() {
        let Some(j1) = j.checked_sub(1) else {
            break; // the rest of `dst` is already in place
        };
        match i.checked_sub(1) {
            Some(i1) if dst[i1].total_cmp(&src[j1]).is_gt() => {
                dst[out] = dst[i1];
                i = i1;
            }
            _ => {
                dst[out] = src[j1];
                j = j1;
            }
        }
    }
}

/// Maps `x` to a `u64` whose unsigned order is [`f64::total_cmp`]'s
/// order; [`from_order_key`] inverts it bit for bit.
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Inverse of [`order_key`].
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// The `k`-th smallest value (1-based, `1 <= k <=` total length) across
/// `runs`, each sorted by [`f64::total_cmp`]. Binary-searches the 64-bit
/// [`order_key`] space for the smallest key with at least `k` values at
/// or below it; each probe sums one `partition_point` per run. That key
/// belongs to a stored value, so the result carries the value's exact
/// bits. `O(64 · runs · log len)`, no allocation.
#[expect(clippy::integer_division_remainder_used, reason = "a constant divisor")]
fn select_kth<'a>(runs: impl Iterator<Item = &'a Vec<f64>> + Clone, k: usize) -> f64 {
    let rank = |key: u64| -> usize {
        runs.clone()
            .map(|run| run.partition_point(|&v| order_key(v) <= key))
            .sum()
    };
    let (mut lo, mut hi) = (0u64, u64::MAX);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if rank(mid) >= k {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    from_order_key(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::Sample;

    fn sample(values: &[f64]) -> Sample {
        Sample::new(values.to_vec()).unwrap()
    }

    #[test]
    fn append_matches_batch_ecdf() {
        let values = [5.0, 1.0, 3.0, 3.0, 2.0, 8.0, 0.5];
        let mut sketch = EcdfSketch::new();
        sketch.extend(values.iter().copied());
        let batch = Ecdf::new(&sample(&values));
        assert_eq!(sketch.to_ecdf(), batch);
        for x in [0.0, 0.5, 1.5, 3.0, 8.0, 9.0] {
            assert_eq!(sketch.eval(x), batch.eval(x));
        }
        for p in [0.0, 0.1, 0.5, 0.99, 1.0] {
            assert_eq!(sketch.quantile(p), batch.quantile(p));
        }
        assert_eq!(sketch.min(), batch.min());
        assert_eq!(sketch.max(), batch.max());
    }

    #[test]
    fn merge_matches_concatenated_batch() {
        let a = [4.0, 1.0, 7.0];
        let b = [2.0, 2.0, 9.0, 0.25];
        let mut sa = EcdfSketch::new();
        sa.extend(a.iter().copied());
        let mut sb = EcdfSketch::new();
        sb.extend(b.iter().copied());
        sa.merge(&sb);
        let mut all: Vec<f64> = a.to_vec();
        all.extend_from_slice(&b);
        let batch = Ecdf::new(&sample(&all));
        assert_eq!(sa.len(), 7);
        assert_eq!(sa.to_ecdf(), batch);
    }

    #[test]
    fn merge_into_empty_and_with_empty() {
        let mut empty = EcdfSketch::new();
        for p in [0.0, 0.5, 1.0] {
            assert!(empty.quantile(p).is_nan(), "p={p}");
        }
        assert!(empty.eval(0.0).is_nan());
        let mut other = EcdfSketch::new();
        other.append(1.0);
        empty.merge(&other);
        assert_eq!(empty.len(), 1);
        assert_eq!(empty.min(), 1.0);
        let before = empty.clone();
        empty.merge(&EcdfSketch::new());
        assert_eq!(empty, before);
    }

    #[test]
    fn merged_is_partition_invariant() {
        let values: Vec<f64> = (0..97).map(|i| ((i * 37) % 89) as f64 * 0.5).collect();
        let whole = {
            let mut s = EcdfSketch::new();
            s.extend(values.iter().copied());
            s
        };
        for parts in [1usize, 3, 8, 16] {
            let shards: Vec<EcdfSketch> = values
                .chunks(values.len().div_ceil(parts))
                .map(|chunk| {
                    let mut s = EcdfSketch::new();
                    s.extend(chunk.iter().copied());
                    s
                })
                .collect();
            let fleet = EcdfSketch::merged(shards.iter());
            assert_eq!(fleet.len(), whole.len());
            assert_eq!(fleet.to_ecdf(), whole.to_ecdf());
            for p in [0.01, 0.05, 0.5, 0.95, 1.0] {
                assert_eq!(fleet.quantile(p), whole.quantile(p), "{parts} parts, p={p}");
            }
        }
        let none = EcdfSketch::merged([]);
        assert!(none.is_empty());
        assert!(none.quantile(0.5).is_nan());
    }

    #[test]
    fn run_lengths_follow_binary_counter() {
        let mut sketch = EcdfSketch::new();
        sketch.extend((0..11).map(|i| i as f64));
        // 11 = 0b1011: runs of size 1, 2 and 8 occupied.
        let lens: Vec<usize> = sketch.runs.iter().map(Vec::len).collect();
        assert_eq!(lens, vec![1, 2, 0, 8]);
    }
}
