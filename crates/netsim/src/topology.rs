//! Fat-tree topology with redundant uplink bundles.

use std::fmt;

/// Errors from topology construction and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Configuration values do not form a valid tree.
    InvalidConfig(String),
    /// A node index was out of range.
    UnknownNode(usize),
    /// A ToR index was out of range.
    UnknownTor(usize),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidConfig(msg) => write!(f, "invalid topology config: {msg}"),
            Self::UnknownNode(n) => write!(f, "unknown node index {n}"),
            Self::UnknownTor(t) => write!(f, "unknown ToR index {t}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Configuration of a 3-tier fat tree (node → ToR → Agg(pod) → Core).
#[derive(Debug, Clone, PartialEq)]
pub struct FatTreeConfig {
    /// Number of server nodes.
    pub nodes: usize,
    /// Servers per ToR switch.
    pub nodes_per_tor: usize,
    /// ToRs per pod (sharing an aggregation layer).
    pub tors_per_pod: usize,
    /// NICs per node.
    pub nics_per_node: usize,
    /// Per-NIC line rate in Gb/s.
    pub nic_gbps: f64,
    /// Physical uplinks per ToR (to the pod aggregation layer).
    pub uplinks_per_tor: u32,
    /// How many of those uplinks are over-provisioned redundancy.
    pub redundant_uplinks_per_tor: u32,
    /// Per-uplink rate in Gb/s.
    pub uplink_gbps: f64,
    /// Aggregate pod→core capacity in Gb/s (healthy).
    pub core_gbps_per_pod: f64,
}

impl FatTreeConfig {
    /// The paper's Figure 3 testbed: 24 nodes × 8 HDR NICs, ToRs with 25%
    /// redundant uplinks.
    pub fn figure3_testbed() -> Self {
        Self {
            nodes: 24,
            nodes_per_tor: 4,
            tors_per_pod: 3,
            nics_per_node: 8,
            nic_gbps: 200.0,
            uplinks_per_tor: 40,
            redundant_uplinks_per_tor: 8,
            uplink_gbps: 200.0,
            core_gbps_per_pod: 24_000.0,
        }
    }

    /// A small synthetic cluster helper for tests and examples.
    pub fn small(nodes: usize) -> Self {
        Self {
            nodes,
            nodes_per_tor: 4,
            tors_per_pod: 2,
            nics_per_node: 8,
            nic_gbps: 200.0,
            uplinks_per_tor: 40,
            redundant_uplinks_per_tor: 8,
            uplink_gbps: 200.0,
            core_gbps_per_pod: 24_000.0,
        }
    }
}

/// Identifier of a directed capacity edge in the tree.
///
/// Bundles are full duplex: each direction has independent capacity, so
/// edges carry an explicit `up` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeKey {
    /// Index into the fat tree's bundle table.
    pub bundle: usize,
    /// Direction: `true` toward the core, `false` toward the leaves.
    pub up: bool,
}

/// Kind of a capacity bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BundleKind {
    /// Node access bundle (all NICs of one node).
    Access {
        /// Index of the node the bundle attaches.
        node: usize,
    },
    /// ToR uplink bundle (all parallel uplinks of one ToR).
    TorUplink {
        /// Index of the top-of-rack switch.
        tor: usize,
    },
    /// Pod-to-core bundle.
    PodCore {
        /// Index of the pod.
        pod: usize,
    },
}

/// A group of parallel physical links treated as one capacity with
/// redundancy masking.
///
/// The effective capacity models the paper's observation: breaking up to
/// half of the redundant links is absorbed (ECMP still spreads cleanly),
/// but past that, hash imbalance plus lost capacity degrade throughput
/// *superlinearly* — `working × rate × (working / total)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bundle {
    /// What this bundle connects.
    pub kind: BundleKind,
    /// Total physical links.
    pub total_links: u32,
    /// Links currently down.
    pub broken_links: u32,
    /// How many of `total_links` are over-provisioned redundancy.
    pub redundant_links: u32,
    /// Per-link rate in Gb/s: finite and non-negative, since
    /// [`FatTree::build`] checks it and nothing outside this module can
    /// write it.
    link_gbps: f64,
}

impl Bundle {
    fn new(kind: BundleKind, total: u32, redundant: u32, link_gbps: f64) -> Self {
        Self {
            kind,
            total_links: total,
            broken_links: 0,
            redundant_links: redundant,
            link_gbps,
        }
    }

    /// Links currently working.
    pub fn working_links(&self) -> u32 {
        self.total_links - self.broken_links
    }

    /// Broken links fully masked by redundancy: half the redundant links.
    #[expect(clippy::integer_division_remainder_used, reason = "a constant divisor")]
    pub fn masking_budget(&self) -> u32 {
        self.redundant_links / 2
    }

    /// Whether at least half of the redundant links are still up — the
    /// paper's health criterion for a ToR.
    pub fn redundancy_ok(&self) -> bool {
        self.broken_links <= self.masking_budget()
    }

    /// Effective capacity in Gb/s under the masking/congestion model.
    pub fn effective_gbps(&self) -> f64 {
        if self.redundancy_ok() {
            // Breakage within the masking budget costs nothing (ECMP
            // spreads over the spare capacity).
            f64::from(self.total_links) * self.link_gbps
        } else {
            let working = f64::from(self.working_links());
            working * self.link_gbps * (working / f64::from(self.total_links))
        }
    }
}

/// A 3-tier fat tree with mutable link state.
///
/// # Examples
///
/// ```
/// use anubis_netsim::{FatTree, FatTreeConfig};
///
/// let tree = FatTree::build(FatTreeConfig::figure3_testbed()).unwrap();
/// assert_eq!(tree.nodes(), 24);
/// assert_eq!(tree.tors(), 6);
/// assert_eq!(tree.hop_distance(0, 1).unwrap(), 2); // same ToR
/// assert_eq!(tree.hop_distance(0, 4).unwrap(), 4); // same pod
/// assert_eq!(tree.hop_distance(0, 23).unwrap(), 6); // across core
/// ```
#[derive(Debug, Clone)]
pub struct FatTree {
    config: FatTreeConfig,
    bundles: Vec<Bundle>,
    tor_count: usize,
    pod_count: usize,
    access_base: usize,
    uplink_base: usize,
    core_base: usize,
}

impl FatTree {
    /// Builds the tree, validating divisibility constraints.
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "the divisors are checked nonzero first"
    )]
    pub fn build(config: FatTreeConfig) -> Result<Self, NetError> {
        if config.nodes == 0 || config.nodes_per_tor == 0 || config.tors_per_pod == 0 {
            return Err(NetError::InvalidConfig("counts must be positive".into()));
        }
        if !config.nodes.is_multiple_of(config.nodes_per_tor) {
            return Err(NetError::InvalidConfig(format!(
                "{} nodes not divisible by {} nodes/ToR",
                config.nodes, config.nodes_per_tor
            )));
        }
        let tor_count = config.nodes / config.nodes_per_tor;
        if !tor_count.is_multiple_of(config.tors_per_pod) {
            return Err(NetError::InvalidConfig(format!(
                "{tor_count} ToRs not divisible by {} ToRs/pod",
                config.tors_per_pod
            )));
        }
        if config.redundant_uplinks_per_tor >= config.uplinks_per_tor {
            return Err(NetError::InvalidConfig(
                "redundant uplinks must be fewer than total uplinks".into(),
            ));
        }
        for (name, gbps) in [
            ("nic_gbps", config.nic_gbps),
            ("uplink_gbps", config.uplink_gbps),
            ("core_gbps_per_pod", config.core_gbps_per_pod),
        ] {
            if !(gbps.is_finite() && gbps >= 0.0) {
                return Err(NetError::InvalidConfig(format!(
                    "{name} must be finite and non-negative, got {gbps}"
                )));
            }
        }
        let pod_count = tor_count / config.tors_per_pod;

        let mut bundles = Vec::new();
        let access_base = bundles.len();
        for node in 0..config.nodes {
            bundles.push(Bundle::new(
                BundleKind::Access { node },
                config.nics_per_node as u32,
                0,
                config.nic_gbps,
            ));
        }
        let uplink_base = bundles.len();
        for tor in 0..tor_count {
            bundles.push(Bundle::new(
                BundleKind::TorUplink { tor },
                config.uplinks_per_tor,
                config.redundant_uplinks_per_tor,
                config.uplink_gbps,
            ));
        }
        let core_base = bundles.len();
        for pod in 0..pod_count {
            // Model the pod→core trunk as 1 Gb/s links for capacity math.
            bundles.push(Bundle::new(
                BundleKind::PodCore { pod },
                config.core_gbps_per_pod as u32,
                0,
                1.0,
            ));
        }

        Ok(Self {
            config,
            bundles,
            tor_count,
            pod_count,
            access_base,
            uplink_base,
            core_base,
        })
    }

    /// Number of server nodes.
    pub fn nodes(&self) -> usize {
        self.config.nodes
    }

    /// Number of ToR switches.
    pub fn tors(&self) -> usize {
        self.tor_count
    }

    /// Number of pods.
    pub fn pods(&self) -> usize {
        self.pod_count
    }

    /// Configuration used to build this tree.
    pub fn config(&self) -> &FatTreeConfig {
        &self.config
    }

    /// The ToR a node hangs off.
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "`build` rejects a zero divisor"
    )]
    pub fn tor_of(&self, node: usize) -> Result<usize, NetError> {
        if node >= self.config.nodes {
            return Err(NetError::UnknownNode(node));
        }
        Ok(node / self.config.nodes_per_tor)
    }

    /// The pod a ToR belongs to.
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "`build` rejects a zero divisor"
    )]
    pub fn pod_of_tor(&self, tor: usize) -> Result<usize, NetError> {
        if tor >= self.tor_count {
            return Err(NetError::UnknownTor(tor));
        }
        Ok(tor / self.config.tors_per_pod)
    }

    /// Switch-hop distance between two nodes: 2 (same ToR), 4 (same pod) or
    /// 6 (across core).
    pub fn hop_distance(&self, a: usize, b: usize) -> Result<usize, NetError> {
        let (ta, tb) = (self.tor_of(a)?, self.tor_of(b)?);
        if ta == tb {
            return Ok(2);
        }
        if self.pod_of_tor(ta)? == self.pod_of_tor(tb)? {
            return Ok(4);
        }
        Ok(6)
    }

    /// Directed capacity edges a flow from `a` to `b` traverses.
    pub fn path(&self, a: usize, b: usize) -> Result<Vec<EdgeKey>, NetError> {
        let (ta, tb) = (self.tor_of(a)?, self.tor_of(b)?);
        let mut path = vec![EdgeKey {
            bundle: self.access_base + a,
            up: true,
        }];
        if ta != tb {
            path.push(EdgeKey {
                bundle: self.uplink_base + ta,
                up: true,
            });
            let (pa, pb) = (self.pod_of_tor(ta)?, self.pod_of_tor(tb)?);
            if pa != pb {
                path.push(EdgeKey {
                    bundle: self.core_base + pa,
                    up: true,
                });
                path.push(EdgeKey {
                    bundle: self.core_base + pb,
                    up: false,
                });
            }
            path.push(EdgeKey {
                bundle: self.uplink_base + tb,
                up: false,
            });
        }
        path.push(EdgeKey {
            bundle: self.access_base + b,
            up: false,
        });
        Ok(path)
    }

    /// Capacity in Gb/s of a directed edge.
    #[expect(
        clippy::indexing_slicing,
        reason = "edges come from this tree's `path`"
    )]
    pub fn capacity_gbps(&self, edge: EdgeKey) -> f64 {
        self.bundles[edge.bundle].effective_gbps()
    }

    /// Immutable view of a ToR's uplink bundle.
    pub fn tor_uplinks(&self, tor: usize) -> Result<&Bundle, NetError> {
        if tor >= self.tor_count {
            return Err(NetError::UnknownTor(tor));
        }
        self.bundles
            .get(self.uplink_base + tor)
            .ok_or(NetError::UnknownTor(tor))
    }

    /// Mutable view of a ToR's uplink bundle.
    fn tor_uplinks_mut(&mut self, tor: usize) -> Result<&mut Bundle, NetError> {
        if tor >= self.tor_count {
            return Err(NetError::UnknownTor(tor));
        }
        self.bundles
            .get_mut(self.uplink_base + tor)
            .ok_or(NetError::UnknownTor(tor))
    }

    /// Breaks `count` uplinks on a ToR (saturating).
    pub fn break_tor_uplinks(&mut self, tor: usize, count: u32) -> Result<(), NetError> {
        let bundle = self.tor_uplinks_mut(tor)?;
        bundle.broken_links = (bundle.broken_links + count).min(bundle.total_links);
        Ok(())
    }

    /// Repairs a ToR's uplinks back to `broken <= masking budget`
    /// (the partial fix operators apply to unblock a workload) or fully
    /// when `full` is set.
    pub fn repair_tor_uplinks(&mut self, tor: usize, full: bool) -> Result<(), NetError> {
        let bundle = self.tor_uplinks_mut(tor)?;
        if full {
            bundle.broken_links = 0;
        } else {
            bundle.broken_links = bundle.broken_links.min(bundle.masking_budget());
        }
        Ok(())
    }

    /// Whether every ToR satisfies the ≥50%-redundant-links-up criterion.
    pub fn all_tors_redundancy_ok(&self) -> bool {
        self.bundles
            .iter()
            .skip(self.uplink_base)
            .take(self.tor_count)
            .all(Bundle::redundancy_ok)
    }

    /// All bundles (for diagnostics).
    pub fn bundles(&self) -> &[Bundle] {
        &self.bundles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> FatTree {
        FatTree::build(FatTreeConfig::figure3_testbed()).unwrap()
    }

    #[test]
    fn builds_figure3_testbed() {
        let t = tree();
        assert_eq!(t.nodes(), 24);
        assert_eq!(t.tors(), 6);
        assert_eq!(t.pods(), 2);
    }

    #[test]
    fn rejects_bad_configs() {
        let mut c = FatTreeConfig::figure3_testbed();
        c.nodes = 23;
        assert!(matches!(FatTree::build(c), Err(NetError::InvalidConfig(_))));
        let mut c = FatTreeConfig::figure3_testbed();
        c.redundant_uplinks_per_tor = c.uplinks_per_tor;
        assert!(FatTree::build(c).is_err());
        let mut c = FatTreeConfig::figure3_testbed();
        c.nodes_per_tor = 0;
        assert!(FatTree::build(c).is_err());
        let link_speeds: [fn(&mut FatTreeConfig) -> &mut f64; 3] = [
            |c| &mut c.nic_gbps,
            |c| &mut c.uplink_gbps,
            |c| &mut c.core_gbps_per_pod,
        ];
        for gbps in link_speeds {
            for bad in [f64::NAN, f64::INFINITY, -1.0] {
                let mut c = FatTreeConfig::figure3_testbed();
                *gbps(&mut c) = bad;
                assert!(
                    matches!(FatTree::build(c), Err(NetError::InvalidConfig(_))),
                    "{bad} must be rejected"
                );
            }
        }
    }

    #[test]
    fn hop_distances() {
        let t = tree();
        assert_eq!(t.hop_distance(0, 3).unwrap(), 2);
        assert_eq!(t.hop_distance(0, 4).unwrap(), 4);
        assert_eq!(t.hop_distance(0, 8).unwrap(), 4);
        assert_eq!(t.hop_distance(0, 12).unwrap(), 6);
        assert!(t.hop_distance(0, 99).is_err());
    }

    #[test]
    fn paths_have_expected_shape() {
        let t = tree();
        assert_eq!(t.path(0, 1).unwrap().len(), 2); // access up + access down
        assert_eq!(t.path(0, 4).unwrap().len(), 4); // + two uplink bundles
        assert_eq!(t.path(0, 20).unwrap().len(), 6); // + two core bundles
                                                     // Directions: first edge is up, last is down.
        let p = t.path(0, 20).unwrap();
        assert!(p.first().unwrap().up);
        assert!(!p.last().unwrap().up);
    }

    #[test]
    fn redundancy_masking_then_superlinear_loss() {
        let mut t = tree();
        let healthy = t.tor_uplinks(0).unwrap().effective_gbps();
        assert_eq!(healthy, 8000.0);
        t.break_tor_uplinks(0, 4).unwrap(); // within budget (8/2 = 4)
        assert_eq!(t.tor_uplinks(0).unwrap().effective_gbps(), 8000.0);
        assert!(t.all_tors_redundancy_ok());
        t.break_tor_uplinks(0, 1).unwrap(); // past budget
        let degraded = t.tor_uplinks(0).unwrap().effective_gbps();
        assert!(degraded < 6400.0, "superlinear loss: {degraded}");
        assert!(!t.all_tors_redundancy_ok());
    }

    #[test]
    fn partial_repair_restores_masking_only() {
        let mut t = tree();
        t.break_tor_uplinks(0, 7).unwrap();
        assert!(!t.tor_uplinks(0).unwrap().redundancy_ok());
        t.repair_tor_uplinks(0, false).unwrap();
        let b = t.tor_uplinks(0).unwrap();
        assert!(b.redundancy_ok());
        assert_eq!(
            b.broken_links, 4,
            "hidden damage remains after partial repair"
        );
        t.repair_tor_uplinks(0, true).unwrap();
        assert_eq!(t.tor_uplinks(0).unwrap().broken_links, 0);
    }

    #[test]
    fn break_saturates_at_total() {
        let mut t = tree();
        t.break_tor_uplinks(0, 1000).unwrap();
        assert_eq!(t.tor_uplinks(0).unwrap().working_links(), 0);
        assert_eq!(t.tor_uplinks(0).unwrap().effective_gbps(), 0.0);
    }
}
