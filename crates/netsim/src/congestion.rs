//! Max–min fair bandwidth allocation (progressive filling).

use crate::topology::EdgeKey;
use std::collections::BTreeMap;

/// A greedy flow: wants as much bandwidth as its path allows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flow {
    /// Directed edges the flow traverses.
    pub path: Vec<EdgeKey>,
}

impl Flow {
    /// Creates a flow over the given path.
    pub fn new(path: Vec<EdgeKey>) -> Self {
        Self { path }
    }
}

/// Computes max–min fair rates for concurrent flows.
///
/// Classic progressive filling: repeatedly find the most constrained edge
/// (smallest `remaining capacity / unfrozen flows crossing it`), freeze the
/// flows crossing it at that fair share, subtract, and continue. Flows with
/// empty paths (loopback) get `f64::INFINITY`.
///
/// `capacity(edge)` supplies the capacity of each directed edge in the same
/// unit the returned rates use.
#[expect(
    clippy::indexing_slicing,
    reason = "flow indices are below `flows.len()`, the length of `frozen` and `rates`"
)]
pub fn max_min_rates(flows: &[Flow], capacity: impl Fn(EdgeKey) -> f64) -> Vec<f64> {
    let n = flows.len();
    let mut rates = vec![f64::INFINITY; n];
    if n == 0 {
        return rates;
    }

    // Edge -> (remaining capacity, unfrozen flow indices). Ordered map:
    // the bottleneck search below keeps the first edge on a tied share,
    // so iteration order is load-bearing — `BTreeMap` pins the tie-break
    // to `EdgeKey` order regardless of hasher seeding.
    let mut edges: BTreeMap<EdgeKey, (f64, Vec<usize>)> = BTreeMap::new();
    for (i, flow) in flows.iter().enumerate() {
        for &edge in &flow.path {
            edges
                .entry(edge)
                .or_insert_with(|| (capacity(edge), Vec::new()))
                .1
                .push(i);
        }
    }
    let mut frozen = vec![false; n];
    // Every iteration freezes at least one flow, so n iterations suffice.
    for _ in 0..n {
        // Find the bottleneck edge among edges with unfrozen flows.
        let mut bottleneck: Option<(EdgeKey, f64)> = None;
        for (&edge, (remaining, members)) in &edges {
            let active = members.iter().filter(|&&i| !frozen[i]).count();
            if active == 0 {
                continue;
            }
            let share = (*remaining / active as f64).max(0.0);
            match bottleneck {
                Some((_, best)) if share >= best => {}
                _ => bottleneck = Some((edge, share)),
            }
        }
        let Some((edge, share)) = bottleneck else {
            break;
        };
        // Freeze every unfrozen flow on the bottleneck at the fair share,
        // then subtract their rate from every edge they cross.
        let Some((_, on_bottleneck)) = edges.get(&edge) else {
            break;
        };
        let members: Vec<usize> = on_bottleneck
            .iter()
            .copied()
            .filter(|&i| !frozen[i])
            .collect();
        for &i in &members {
            frozen[i] = true;
            rates[i] = share;
            for &e in &flows[i].path {
                if let Some((remaining, _)) = edges.get_mut(&e) {
                    *remaining = (*remaining - share).max(0.0);
                }
            }
        }
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(bundle: usize) -> EdgeKey {
        EdgeKey { bundle, up: true }
    }

    #[test]
    fn single_flow_gets_min_capacity_on_path() {
        let caps = |e: EdgeKey| if e.bundle == 0 { 10.0 } else { 4.0 };
        let flows = vec![Flow::new(vec![edge(0), edge(1)])];
        let rates = max_min_rates(&flows, caps);
        assert_eq!(rates, vec![4.0]);
    }

    #[test]
    fn equal_flows_share_fairly() {
        let flows = vec![
            Flow::new(vec![edge(0)]),
            Flow::new(vec![edge(0)]),
            Flow::new(vec![edge(0)]),
        ];
        let rates = max_min_rates(&flows, |_| 9.0);
        for r in rates {
            assert!((r - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn classic_parking_lot() {
        // Flow A crosses both links; flows B and C cross one each.
        // Max–min: A = 5 (bottleneck on the shared 10-capacity links),
        // B = C = 5.
        let flows = vec![
            Flow::new(vec![edge(0), edge(1)]),
            Flow::new(vec![edge(0)]),
            Flow::new(vec![edge(1)]),
        ];
        let rates = max_min_rates(&flows, |_| 10.0);
        assert!((rates[0] - 5.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 5.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[2] - 5.0).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    fn unbalanced_bottleneck_redistributes() {
        // Two flows share edge 0 (cap 10); one of them also crosses edge 1
        // (cap 2). Max–min: constrained flow gets 2, the other picks up 8.
        let caps = |e: EdgeKey| if e.bundle == 1 { 2.0 } else { 10.0 };
        let flows = vec![Flow::new(vec![edge(0), edge(1)]), Flow::new(vec![edge(0)])];
        let rates = max_min_rates(&flows, caps);
        assert!((rates[0] - 2.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 8.0).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let up = EdgeKey {
            bundle: 0,
            up: true,
        };
        let down = EdgeKey {
            bundle: 0,
            up: false,
        };
        let flows = vec![Flow::new(vec![up]), Flow::new(vec![down])];
        let rates = max_min_rates(&flows, |_| 7.0);
        assert_eq!(rates, vec![7.0, 7.0]);
    }

    #[test]
    fn empty_path_is_unconstrained() {
        let flows = vec![Flow::new(vec![])];
        let rates = max_min_rates(&flows, |_| 1.0);
        assert!(rates[0].is_infinite());
    }

    #[test]
    fn no_flows() {
        assert!(max_min_rates(&[], |_| 1.0).is_empty());
    }

    #[test]
    fn rates_never_exceed_any_edge_capacity_sum() {
        // Total allocation through an edge never exceeds its capacity.
        let flows: Vec<Flow> = (0..5).map(|_| Flow::new(vec![edge(0), edge(1)])).collect();
        let rates = max_min_rates(&flows, |e| if e.bundle == 0 { 6.0 } else { 100.0 });
        let total: f64 = rates.iter().sum();
        assert!(total <= 6.0 + 1e-9, "total {total}");
    }
}
