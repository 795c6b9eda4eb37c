//! Collective-communication bandwidth estimation over the fat tree.

use crate::congestion::{max_min_rates, Flow};
use crate::topology::{FatTree, NetError};

/// Protocol efficiency on top of raw link shares (headers, pacing).
const PROTOCOL_EFFICIENCY: f64 = 0.97;

/// Bus bandwidths (GB/s) of 2-node all-reduce pairs running
/// **simultaneously** — the Figure 3 experiment.
///
/// Each pair exchanges traffic in both directions; the pair's all-reduce is
/// gated by its slower direction. Returns one bus bandwidth per input pair.
#[expect(
    clippy::indexing_slicing,
    reason = "two flows per pair: `2 × pairs` rates"
)]
pub fn concurrent_pair_bandwidths(
    tree: &FatTree,
    pairs: &[(usize, usize)],
) -> Result<Vec<f64>, NetError> {
    let mut flows = Vec::with_capacity(pairs.len() * 2);
    for &(a, b) in pairs {
        flows.push(Flow::new(tree.path(a, b)?));
        flows.push(Flow::new(tree.path(b, a)?));
    }
    let rates = max_min_rates(&flows, |e| tree.capacity_gbps(e));
    Ok(pairs
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let forward = rates[2 * i];
            let backward = rates[2 * i + 1];
            forward.min(backward) / 8.0 * PROTOCOL_EFFICIENCY
        })
        .collect())
}

/// Bus bandwidth (GB/s) of a single ring all-reduce over `ring` nodes,
/// with no other traffic.
///
/// A ring creates flows between consecutive members (in ring order, both
/// the reduce-scatter and all-gather phases use the same neighbour links);
/// the collective runs at the pace of the slowest link share.
pub fn ring_allreduce_busbw(tree: &FatTree, ring: &[usize]) -> Result<f64, NetError> {
    if ring.len() < 2 {
        return Ok(f64::INFINITY);
    }
    let mut flows = Vec::with_capacity(ring.len());
    for (&a, &b) in ring.iter().zip(ring.iter().cycle().skip(1)) {
        flows.push(Flow::new(tree.path(a, b)?));
    }
    let rates = max_min_rates(&flows, |e| tree.capacity_gbps(e));
    let min_rate = slowest(&rates);
    Ok(min_rate / 8.0 * PROTOCOL_EFFICIENCY)
}

/// Seconds for a ring all-reduce of `bytes` per rank over `ring` nodes.
pub fn ring_allreduce_time_s(tree: &FatTree, ring: &[usize], bytes: f64) -> Result<f64, NetError> {
    let n = ring.len();
    if n < 2 {
        return Ok(0.0);
    }
    let busbw = ring_allreduce_busbw(tree, ring)?;
    if busbw <= 0.0 {
        return Ok(f64::INFINITY);
    }
    let factor = 2.0 * (n as f64 - 1.0) / n as f64;
    Ok(factor * bytes / (busbw * 1e9))
}

/// Completion time (seconds) of an all-to-all exchanging `bytes_per_pair`
/// between every ordered pair of `nodes` simultaneously.
pub fn all_to_all_completion_s(
    tree: &FatTree,
    nodes: &[usize],
    bytes_per_pair: f64,
) -> Result<f64, NetError> {
    if nodes.len() < 2 {
        return Ok(0.0);
    }
    let mut flows = Vec::new();
    for &a in nodes {
        for &b in nodes {
            if a != b {
                flows.push(Flow::new(tree.path(a, b)?));
            }
        }
    }
    let rates = max_min_rates(&flows, |e| tree.capacity_gbps(e));
    let min_rate = slowest(&rates);
    if min_rate <= 0.0 {
        return Ok(f64::INFINITY);
    }
    Ok(bytes_per_pair / (min_rate / 8.0 * PROTOCOL_EFFICIENCY * 1e9))
}

/// The slowest of `rates`, `∞` for none. A NaN rate makes it NaN, where a
/// `f64::min` fold would skip it.
pub(crate) fn slowest(rates: &[f64]) -> f64 {
    rates.iter().fold(
        f64::INFINITY,
        |min, &x| if x < min || x.is_nan() { x } else { min },
    )
}

/// The fastest of `rates`, `-∞` for none. A NaN rate makes it NaN, where a
/// `f64::max` fold would skip it.
pub(crate) fn fastest(rates: &[f64]) -> f64 {
    rates.iter().fold(f64::NEG_INFINITY, |max, &x| {
        if x > max || x.is_nan() {
            x
        } else {
            max
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FatTreeConfig;

    fn tree() -> FatTree {
        FatTree::build(FatTreeConfig::figure3_testbed()).unwrap()
    }

    /// Perfect matching of all 24 nodes into 12 cross-ToR pairs.
    fn cross_tor_pairs() -> Vec<(usize, usize)> {
        (0..12).map(|i| (i, i + 12)).collect()
    }

    #[test]
    fn healthy_pairs_reach_nic_line_rate() {
        let tree = tree();
        let bws = concurrent_pair_bandwidths(&tree, &cross_tor_pairs()).unwrap();
        for bw in &bws {
            // 8 NICs × 200 Gb/s = 1600 Gb/s = 200 GB/s; expect near that.
            assert!(*bw > 180.0, "healthy pair bandwidth {bw}");
        }
    }

    #[test]
    fn same_tor_pairs_skip_uplinks() {
        let mut tree = tree();
        tree.break_tor_uplinks(0, 40).unwrap();
        // Nodes 0..4 share ToR 0 — their pair traffic never leaves the ToR.
        let bws = concurrent_pair_bandwidths(&tree, &[(0, 1), (2, 3)]).unwrap();
        for bw in bws {
            assert!(bw > 180.0, "intra-ToR pair unaffected: {bw}");
        }
    }

    #[test]
    fn broken_redundancy_congests_cross_tor_pairs() {
        let mut tree = tree();
        // Break past the masking budget on ToR 0 (budget = 4).
        tree.break_tor_uplinks(0, 12).unwrap();
        let bws = concurrent_pair_bandwidths(&tree, &cross_tor_pairs()).unwrap();
        // Pairs whose endpoint sits under ToR 0 (nodes 0..4) are degraded.
        for (i, bw) in bws.iter().enumerate() {
            if i < 4 {
                assert!(*bw < 180.0, "pair {i} should be congested: {bw}");
            } else {
                assert!(*bw > 180.0, "pair {i} should be clean: {bw}");
            }
        }
    }

    #[test]
    fn masked_breakage_does_not_congest() {
        let mut tree = tree();
        tree.break_tor_uplinks(0, 4).unwrap(); // exactly the budget
        let bws = concurrent_pair_bandwidths(&tree, &cross_tor_pairs()).unwrap();
        for bw in bws {
            assert!(bw > 180.0, "masked breakage: {bw}");
        }
    }

    #[test]
    fn ring_allreduce_healthy_busbw() {
        let tree = tree();
        let ring: Vec<usize> = (0..8).collect();
        let busbw = ring_allreduce_busbw(&tree, &ring).unwrap();
        assert!(busbw > 150.0, "busbw {busbw}");
        let t = ring_allreduce_time_s(&tree, &ring, 1e9).unwrap();
        // 2*(7/8) * 1 GB / busbw ≈ 9 ms at ~194 GB/s.
        assert!(t > 0.005 && t < 0.02, "time {t}");
    }

    #[test]
    fn ring_degrades_with_broken_uplinks() {
        let mut tree = tree();
        let ring: Vec<usize> = (0..24).collect();
        let healthy = ring_allreduce_busbw(&tree, &ring).unwrap();
        tree.break_tor_uplinks(2, 36).unwrap();
        let degraded = ring_allreduce_busbw(&tree, &ring).unwrap();
        assert!(degraded < healthy, "{healthy} -> {degraded}");
    }

    #[test]
    fn trivial_collectives() {
        let tree = tree();
        assert!(ring_allreduce_busbw(&tree, &[0]).unwrap().is_infinite());
        assert_eq!(ring_allreduce_time_s(&tree, &[0], 1e9).unwrap(), 0.0);
        assert_eq!(all_to_all_completion_s(&tree, &[3], 1e9).unwrap(), 0.0);
    }

    #[test]
    fn all_to_all_stresses_uplinks_more_than_pairs() {
        let tree = tree();
        let nodes: Vec<usize> = (0..24).collect();
        let t_all = all_to_all_completion_s(&tree, &nodes, 1e8).unwrap();
        assert!(t_all.is_finite() && t_all > 0.0);
        // With fully broken uplinks the all-to-all cannot complete.
        let mut broken = FatTree::build(FatTreeConfig::figure3_testbed()).unwrap();
        for tor in 0..6 {
            broken.break_tor_uplinks(tor, 40).unwrap();
        }
        assert!(all_to_all_completion_s(&broken, &nodes, 1e8)
            .unwrap()
            .is_infinite());
    }
}
