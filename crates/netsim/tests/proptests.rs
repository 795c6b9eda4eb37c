//! Property-based tests for topology, congestion and scan invariants.

use anubis_netsim::congestion::{max_min_rates, Flow};
use anubis_netsim::{full_scan_rounds, quick_scan_rounds, FatTree, FatTreeConfig};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn tree_of(nodes: usize) -> FatTree {
    let mut config = FatTreeConfig::figure3_testbed();
    config.nodes = nodes;
    FatTree::build(config).expect("multiple of 24 fits the tree")
}

proptest! {
    /// Every node pair has a valid path: starts with an up edge out of the
    /// source's access bundle, ends with a down edge, and has the length
    /// its hop distance implies.
    #[test]
    fn paths_are_well_formed(scale in 1usize..6, a in 0usize..24, b in 0usize..24) {
        let tree = tree_of(24 * scale);
        prop_assume!(a != b);
        let path = tree.path(a, b).unwrap();
        prop_assert!(path.first().unwrap().up);
        prop_assert!(!path.last().unwrap().up);
        let expected_len = match tree.hop_distance(a, b).unwrap() {
            2 => 2,
            4 => 4,
            6 => 6,
            other => panic!("unexpected hop distance {other}"),
        };
        prop_assert_eq!(path.len(), expected_len);
        // Every edge has positive healthy capacity.
        for &edge in &path {
            prop_assert!(tree.capacity_gbps(edge) > 0.0);
        }
    }

    /// Max–min allocations never oversubscribe any edge and always
    /// saturate at least one bottleneck per flow.
    #[test]
    fn max_min_is_feasible_and_pareto(
        flow_count in 1usize..24,
        seed in 0u64..1000,
    ) {
        let tree = tree_of(24);
        // Deterministic pseudo-random distinct pairs from the seed.
        let mut flows = Vec::new();
        let mut paths = Vec::new();
        for k in 0..flow_count {
            let a = ((seed as usize + k * 7) % 24) as usize;
            let mut b = ((seed as usize / 3 + k * 13) % 24) as usize;
            if a == b {
                b = (b + 1) % 24;
            }
            let path = tree.path(a, b).unwrap();
            paths.push(path.clone());
            flows.push(Flow::new(path));
        }
        let rates = max_min_rates(&flows, |e| tree.capacity_gbps(e));
        // Feasibility: per-edge load <= capacity.
        let mut load: BTreeMap<_, f64> = BTreeMap::new();
        for (flow, &rate) in paths.iter().zip(&rates) {
            prop_assert!(rate > 0.0);
            for &edge in flow {
                *load.entry(edge).or_insert(0.0) += rate;
            }
        }
        for (edge, used) in load {
            prop_assert!(
                used <= tree.capacity_gbps(edge) * (1.0 + 1e-9),
                "edge {edge:?} oversubscribed: {used}"
            );
        }
    }

    /// The circle-method schedule is a partition of all pairs into
    /// NIC-disjoint rounds for any n.
    #[test]
    fn full_scan_partitions_all_pairs(n in 2usize..80) {
        let rounds = full_scan_rounds(n);
        let mut seen = BTreeSet::new();
        for round in &rounds {
            let mut used = BTreeSet::new();
            for &(a, b) in round {
                prop_assert!(a < b && b < n);
                prop_assert!(seen.insert((a, b)), "duplicate pair");
                prop_assert!(used.insert(a) && used.insert(b), "NIC conflict");
            }
        }
        prop_assert_eq!(seen.len(), n * (n - 1) / 2);
    }

    /// Quick scan never pairs a node twice in a round and matches the
    /// requested hop distance.
    #[test]
    fn quick_scan_is_consistent(scale in 1usize..8) {
        let tree = tree_of(24 * scale);
        let rounds = quick_scan_rounds(&tree).unwrap();
        prop_assert!(rounds.len() <= 3);
        for round in &rounds {
            let mut used = BTreeSet::new();
            let hops = tree.hop_distance(round[0].0, round[0].1).unwrap();
            for &(a, b) in round {
                prop_assert!(used.insert(a) && used.insert(b));
                prop_assert_eq!(tree.hop_distance(a, b).unwrap(), hops);
            }
        }
    }

    /// Breaking uplinks only ever lowers capacity; repairing restores it.
    #[test]
    fn capacity_is_monotone_under_damage(breaks in 0u32..45, tor in 0usize..6) {
        let mut tree = tree_of(24);
        let healthy = tree.tor_uplinks(tor).unwrap().effective_gbps();
        tree.break_tor_uplinks(tor, breaks).unwrap();
        let damaged = tree.tor_uplinks(tor).unwrap().effective_gbps();
        prop_assert!(damaged <= healthy);
        tree.repair_tor_uplinks(tor, true).unwrap();
        prop_assert_eq!(tree.tor_uplinks(tor).unwrap().effective_gbps(), healthy);
    }
}
