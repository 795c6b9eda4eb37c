//! Appendix A networking-validation schedulers.
//!
//! Pairwise RDMA scans must cover node pairs without colliding on NICs.
//! The paper gives two schedules:
//!
//! - **Full scan, O(n) rounds**: all `n(n−1)/2` pairs scheduled into `n−1`
//!   rounds of `n/2` disjoint pairs using the circle method from
//!   round-robin tournaments (Kirkman 1847).
//! - **Quick scan, O(1) rounds**: topology-aware; one round per tree tier
//!   (2-hop, 4-hop, 6-hop, …) pairing every node exactly once per round,
//!   independent of cluster size.

use crate::topology::{FatTree, NetError};

/// Schedules all pairs of `n` nodes into rounds of disjoint pairs via the
/// circle method.
///
/// For even `n` this yields exactly `n − 1` rounds of `n / 2` pairs; odd
/// `n` gets `n` rounds with one node idle per round. `n < 2` yields no
/// rounds.
///
/// # Examples
///
/// ```
/// use anubis_netsim::full_scan_rounds;
///
/// let rounds = full_scan_rounds(8);
/// assert_eq!(rounds.len(), 7);
/// assert!(rounds.iter().all(|r| r.len() == 4));
/// ```
pub fn full_scan_rounds(n: usize) -> Vec<Vec<(usize, usize)>> {
    if n < 2 {
        return Vec::new();
    }
    // Pad odd n with a phantom node that makes its partner idle.
    let m = if n.is_multiple_of(2) { n } else { n + 1 };
    let phantom = m - 1;
    // Circle method: node m−1 is fixed; the rest rotate.
    let mut circle: Vec<usize> = (0..m - 1).collect();
    let mut rounds = Vec::with_capacity(m - 1);
    for _ in 0..m - 1 {
        let mut round = Vec::with_capacity(m / 2);
        // Fixed node pairs with the head of the circle.
        let head = circle[0];
        if phantom < n || head < n {
            let (a, b) = (head.min(phantom), head.max(phantom));
            if b < n {
                round.push((a, b));
            }
        }
        for k in 1..m / 2 {
            let a = circle[k];
            let b = circle[m - 1 - k];
            let (a, b) = (a.min(b), a.max(b));
            if b < n {
                round.push((a, b));
            }
        }
        rounds.push(round);
        circle.rotate_right(1);
    }
    rounds
}

/// Topology-aware quick scan: one round per hop tier.
///
/// For every tier (2-hop: same ToR; 4-hop: same pod, different ToR; 6-hop:
/// across core) the scheduler pairs each node exactly once, preferring
/// partners at exactly that distance. Rounds whose tier does not exist in
/// the topology (e.g. 6-hop in a single-pod cluster) are omitted, so a
/// k-tier tree always needs at most k rounds regardless of node count.
pub fn quick_scan_rounds(tree: &FatTree) -> Result<Vec<Vec<(usize, usize)>>, NetError> {
    let n = tree.nodes();
    let mut rounds = Vec::new();
    for hops in [2usize, 4, 6] {
        let mut used = vec![false; n];
        let mut round = Vec::new();
        for a in 0..n {
            if used[a] {
                continue;
            }
            // Greedy partner search at exactly `hops` distance.
            let partner =
                (a + 1..n).find(|&b| !used[b] && tree.hop_distance(a, b).unwrap_or(0) == hops);
            if let Some(b) = partner {
                used[a] = true;
                used[b] = true;
                round.push((a, b));
            }
        }
        if !round.is_empty() {
            rounds.push(round);
        }
    }
    Ok(rounds)
}

/// Verifies that a schedule's rounds are NIC-disjoint (no node appears
/// twice in a round). Returns the offending round index if any.
pub fn find_conflicting_round(rounds: &[Vec<(usize, usize)>]) -> Option<usize> {
    for (i, round) in rounds.iter().enumerate() {
        let mut seen = std::collections::BTreeSet::new();
        for &(a, b) in round {
            if !seen.insert(a) || !seen.insert(b) {
                return Some(i);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FatTreeConfig;
    use std::collections::BTreeSet;

    #[test]
    fn full_scan_covers_all_pairs_exactly_once() {
        for n in [2usize, 4, 6, 8, 16, 24] {
            let rounds = full_scan_rounds(n);
            assert_eq!(rounds.len(), n - 1, "n = {n}");
            let mut seen = BTreeSet::new();
            for round in &rounds {
                assert_eq!(round.len(), n / 2, "perfect matching for n = {n}");
                for &(a, b) in round {
                    assert!(a < b && b < n);
                    assert!(seen.insert((a, b)), "pair ({a},{b}) duplicated");
                }
            }
            assert_eq!(seen.len(), n * (n - 1) / 2, "full coverage for n = {n}");
        }
    }

    #[test]
    fn full_scan_rounds_are_nic_disjoint() {
        for n in [4usize, 8, 24, 64] {
            assert_eq!(
                find_conflicting_round(&full_scan_rounds(n)),
                None,
                "n = {n}"
            );
        }
    }

    #[test]
    fn full_scan_handles_odd_and_tiny_counts() {
        assert!(full_scan_rounds(0).is_empty());
        assert!(full_scan_rounds(1).is_empty());
        let rounds = full_scan_rounds(5);
        // Odd n: every pair still appears exactly once.
        let mut seen = BTreeSet::new();
        for round in &rounds {
            for &(a, b) in round {
                assert!(seen.insert((a, b)));
            }
        }
        assert_eq!(seen.len(), 10);
        assert_eq!(find_conflicting_round(&rounds), None);
    }

    #[test]
    fn quick_scan_is_constant_rounds() {
        let small = FatTree::build(FatTreeConfig::figure3_testbed()).unwrap();
        let mut big_cfg = FatTreeConfig::figure3_testbed();
        big_cfg.nodes = 96;
        let big = FatTree::build(big_cfg).unwrap();
        let r_small = quick_scan_rounds(&small).unwrap();
        let r_big = quick_scan_rounds(&big).unwrap();
        assert_eq!(r_small.len(), 3, "2/4/6-hop tiers");
        assert_eq!(r_big.len(), 3, "same number of rounds at 4x the scale");
    }

    #[test]
    fn quick_scan_pairs_match_requested_distance() {
        let tree = FatTree::build(FatTreeConfig::figure3_testbed()).unwrap();
        let rounds = quick_scan_rounds(&tree).unwrap();
        let expected = [2usize, 4, 6];
        for (round, &hops) in rounds.iter().zip(&expected) {
            for &(a, b) in round {
                assert_eq!(tree.hop_distance(a, b).unwrap(), hops);
            }
        }
    }

    #[test]
    fn quick_scan_includes_every_node_where_possible() {
        let tree = FatTree::build(FatTreeConfig::figure3_testbed()).unwrap();
        let rounds = quick_scan_rounds(&tree).unwrap();
        // 24 nodes, 4 per ToR: the 2-hop round pairs all 24 nodes.
        assert_eq!(rounds[0].len(), 12);
        assert_eq!(find_conflicting_round(&rounds), None);
    }

    #[test]
    fn conflict_detector_catches_reuse() {
        let bad = vec![vec![(0, 1), (1, 2)]];
        assert_eq!(find_conflicting_round(&bad), Some(0));
    }
}
