//! Ring-order permutation analysis.
//!
//! Section 2.3 of the paper: all-reduce rings over the *same* node set have
//! `n!` possible orders, and different orders use different link sets — so
//! a defective link only impacts certain node scales and orders, which is
//! why exhaustive validation over orders is infeasible and why the scan
//! schedulers of Appendix A validate links instead. This module quantifies
//! that observation on the simulator: given a fabric with degraded links,
//! it measures how ring bandwidth varies across sampled permutations.

use crate::collective::{fastest, ring_allreduce_busbw, slowest};
use crate::topology::{FatTree, NetError};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Bandwidth statistics across sampled ring permutations.
#[derive(Debug, Clone, PartialEq)]
pub struct PermutationSpread {
    /// Bus bandwidth of each sampled permutation (GB/s).
    pub bandwidths: Vec<f64>,
    /// Fraction of sampled permutations that avoid the degradation
    /// entirely (within 2% of the best permutation).
    pub unaffected_fraction: f64,
}

impl PermutationSpread {
    /// Fastest sampled permutation (NaN if any bandwidth is NaN).
    pub fn best(&self) -> f64 {
        fastest(&self.bandwidths)
    }

    /// Slowest sampled permutation (NaN if any bandwidth is NaN).
    pub fn worst(&self) -> f64 {
        slowest(&self.bandwidths)
    }

    /// Relative spread `(best − worst) / best`.
    pub fn relative_spread(&self) -> f64 {
        let best = self.best();
        if best <= 0.0 {
            return 0.0;
        }
        (best - self.worst()) / best
    }
}

/// Samples `count` random ring orders over `nodes` and measures each
/// order's all-reduce bus bandwidth.
///
/// On a healthy fabric every order performs identically; with degraded
/// links, orders that route both ring directions through the hurt ToR
/// regress while others don't — the paper's "defective links only impact
/// certain node scale and order".
pub fn ring_permutation_spread(
    tree: &FatTree,
    nodes: &[usize],
    count: usize,
    seed: u64,
) -> Result<PermutationSpread, NetError> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut order: Vec<usize> = nodes.to_vec();
    let mut bandwidths = Vec::with_capacity(count.max(1));
    // Always include the identity order so results are comparable.
    bandwidths.push(ring_allreduce_busbw(tree, &order)?);
    for _ in 1..count.max(1) {
        order.shuffle(&mut rng);
        bandwidths.push(ring_allreduce_busbw(tree, &order)?);
    }
    Ok(PermutationSpread {
        unaffected_fraction: unaffected_fraction(&bandwidths),
        bandwidths,
    })
}

/// Fraction of `bandwidths` within 2% of the fastest; NaN if any is NaN
/// (a NaN best would fail every comparison and read as 0.0).
fn unaffected_fraction(bandwidths: &[f64]) -> f64 {
    let best = fastest(bandwidths);
    if best.is_nan() {
        return f64::NAN;
    }
    bandwidths.iter().filter(|&&b| b >= best * 0.98).count() as f64 / bandwidths.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FatTreeConfig;

    fn tree() -> FatTree {
        FatTree::build(FatTreeConfig::figure3_testbed()).unwrap()
    }

    #[test]
    fn a_nan_bandwidth_propagates_to_best_and_worst() {
        // `f64::max`/`f64::min` folds would skip the NaN and report 3/1.
        let bandwidths = vec![1.0, f64::NAN, 3.0];
        let spread = PermutationSpread {
            unaffected_fraction: unaffected_fraction(&bandwidths),
            bandwidths,
        };
        assert!(spread.best().is_nan(), "best {}", spread.best());
        assert!(spread.worst().is_nan(), "worst {}", spread.worst());
        assert!(spread.relative_spread().is_nan());
        assert!(
            spread.unaffected_fraction.is_nan(),
            "unaffected {}",
            spread.unaffected_fraction
        );
    }

    #[test]
    fn healthy_fabric_is_order_insensitive() {
        let tree = tree();
        let nodes: Vec<usize> = (0..12).collect();
        let spread = ring_permutation_spread(&tree, &nodes, 24, 7).unwrap();
        assert!(
            spread.relative_spread() < 0.01,
            "healthy spread {:.4}",
            spread.relative_spread()
        );
        assert_eq!(spread.unaffected_fraction, 1.0);
    }

    #[test]
    fn degraded_links_hit_only_some_orders() {
        let mut tree = tree();
        // One ToR heavily degraded: rings whose consecutive pairs cross it
        // regress; rings that only touch it via lightly-loaded hops less so.
        tree.break_tor_uplinks(1, 36).unwrap();
        // Use a node set where ToR 1's nodes (4..8) participate.
        let nodes: Vec<usize> = (0..16).collect();
        let spread = ring_permutation_spread(&tree, &nodes, 48, 11).unwrap();
        assert!(
            spread.relative_spread() > 0.02,
            "orders must differ: {:.4}",
            spread.relative_spread()
        );
        assert!(spread.worst() < spread.best());
    }

    #[test]
    fn single_permutation_is_supported() {
        let tree = tree();
        let nodes: Vec<usize> = (0..8).collect();
        let spread = ring_permutation_spread(&tree, &nodes, 1, 3).unwrap();
        assert_eq!(spread.bandwidths.len(), 1);
        assert_eq!(spread.unaffected_fraction, 1.0);
    }
}
