//! Capacitated (b-)matching: minimum-cost maximum assignment where each left
//! node may be matched up to `b_left[l]` times (right nodes stay unit).
//!
//! Algorithm 2 of the reproduced paper matches each cloudlet to at most one
//! new instance per round; the b-matching generalization lets a cloudlet
//! absorb as many instances per round as its residual capacity allows, which
//! collapses the round loop — the `ablation_matching` bench quantifies what
//! that changes.

use crate::mcmf::McmfGraph;
use crate::Matching;

/// Minimum-cost maximum b-matching.
///
/// * `b_left[l]` — how many times left node `l` may be matched (0 allowed).
/// * `n_right` — number of right nodes, each matched at most once.
/// * `edges` — `(left, right, cost)` triples; an edge may be *used* only
///   once, but a left node may take several distinct right partners.
///
/// Returns pairs sorted by left index; a left node appears once per matched
/// partner.
pub fn min_cost_max_b_matching(
    b_left: &[usize],
    n_right: usize,
    edges: &[(usize, usize, f64)],
) -> Matching {
    let n_left = b_left.len();
    let s = n_left + n_right;
    let t = s + 1;
    let mut g = McmfGraph::new(n_left + n_right + 2);
    let mut edge_ids = Vec::with_capacity(edges.len());
    for &(l, r, c) in edges {
        assert!(l < n_left, "left endpoint {l} out of range");
        assert!(r < n_right, "right endpoint {r} out of range");
        assert!(c.is_finite(), "non-finite edge cost");
        edge_ids.push(g.add_edge(l, n_left + r, 1, c));
    }
    for (l, &b) in b_left.iter().enumerate() {
        if b > 0 {
            g.add_edge(s, l, b as i64, 0.0);
        }
    }
    for r in 0..n_right {
        g.add_edge(n_left + r, t, 1, 0.0);
    }
    let result = g.min_cost_max_flow(s, t, None);
    let mut out = Matching { pairs: Vec::new(), cost: 0.0 };
    for (i, &(l, r, c)) in edges.iter().enumerate() {
        if g.flow_on(edge_ids[i]) == 1 {
            out.pairs.push((l, r));
            out.cost += c;
        }
    }
    out.pairs.sort_unstable();
    debug_assert_eq!(out.pairs.len(), result.flow as usize);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_to_unit_matching_when_b_is_one() {
        let edges = [(0, 0, 1.0), (0, 1, 4.0), (1, 0, 2.0), (1, 1, 1.5)];
        let unit = crate::min_cost_max_matching(2, 2, &edges);
        let b = min_cost_max_b_matching(&[1, 1], 2, &edges);
        assert_eq!(unit.cardinality(), b.cardinality());
        assert!((unit.cost - b.cost).abs() < 1e-9);
    }

    #[test]
    fn one_left_node_takes_everything() {
        let edges = [(0, 0, 1.0), (0, 1, 2.0), (0, 2, 3.0)];
        let m = min_cost_max_b_matching(&[3], 3, &edges);
        assert_eq!(m.cardinality(), 3);
        assert!((m.cost - 6.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_limits_selection_to_cheapest() {
        let edges = [(0, 0, 5.0), (0, 1, 1.0), (0, 2, 3.0)];
        let m = min_cost_max_b_matching(&[2], 3, &edges);
        assert_eq!(m.cardinality(), 2);
        assert!((m.cost - 4.0).abs() < 1e-9); // picks costs 1 and 3
    }

    #[test]
    fn zero_capacity_node_unused() {
        let edges = [(0, 0, 1.0), (1, 0, 9.0)];
        let m = min_cost_max_b_matching(&[0, 1], 1, &edges);
        assert_eq!(m.pairs, vec![(1, 0)]);
    }

    #[test]
    fn right_nodes_still_unit() {
        // Two lefts with spare capacity compete for one right.
        let edges = [(0, 0, 2.0), (1, 0, 1.0)];
        let m = min_cost_max_b_matching(&[5, 5], 1, &edges);
        assert_eq!(m.cardinality(), 1);
        assert!((m.cost - 1.0).abs() < 1e-9);
    }
}
