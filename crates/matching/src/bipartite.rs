//! Minimum-cost **maximum** bipartite matching on sparse edge lists.
//!
//! "Maximum" is lexicographically first: among all matchings of maximum
//! cardinality, one of minimum total cost is returned. This is exactly the
//! object Algorithm 2 of the paper extracts from each auxiliary graph `G_l`.

use crate::mcmf::{EdgeId, McmfGraph};

/// A matching between `left` nodes (cloudlets in the paper) and `right` nodes
/// (candidate secondary VNF instances).
#[derive(Debug, Clone, PartialEq)]
pub struct Matching {
    /// Matched pairs `(left, right)`, sorted by left index.
    pub pairs: Vec<(usize, usize)>,
    /// Total cost of the matched edges.
    pub cost: f64,
}

impl Matching {
    pub fn cardinality(&self) -> usize {
        self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The right partner of `left`, if matched.
    pub fn partner_of_left(&self, left: usize) -> Option<usize> {
        self.pairs.iter().find(|&&(l, _)| l == left).map(|&(_, r)| r)
    }

    /// The left partner of `right`, if matched.
    pub fn partner_of_right(&self, right: usize) -> Option<usize> {
        self.pairs.iter().find(|&&(_, r)| r == right).map(|&(l, _)| l)
    }
}

/// Compute a minimum-cost maximum matching.
///
/// * `n_left`, `n_right` — sizes of the two node sets.
/// * `edges` — `(left, right, cost)` triples; parallel edges are allowed (the
///   cheaper one wins), costs must be finite. Each left and each right node is
///   matched at most once.
///
/// Runs successive-shortest-path min-cost max-flow on the unit-capacity
/// network, `O(matching · E log V)`.
///
/// # Panics
/// On out-of-range endpoints or non-finite costs.
pub fn min_cost_max_matching(
    n_left: usize,
    n_right: usize,
    edges: &[(usize, usize, f64)],
) -> Matching {
    let mut scratch = MatchingScratch::new();
    let mut out = Matching { pairs: Vec::new(), cost: 0.0 };
    min_cost_max_matching_into(&mut scratch, n_left, n_right, edges, &mut out);
    out
}

/// Reusable workspace for [`min_cost_max_matching_into`]: the flow network
/// and edge-handle buffer survive across solves, so repeated matchings (the
/// reference side of the matching bench) allocate nothing after the buffers
/// reach their high-water mark.
#[derive(Debug, Clone)]
pub struct MatchingScratch {
    pub(crate) graph: McmfGraph,
    pub(crate) edge_ids: Vec<EdgeId>,
}

impl MatchingScratch {
    pub fn new() -> Self {
        MatchingScratch { graph: McmfGraph::new(0), edge_ids: Vec::new() }
    }
}

impl Default for MatchingScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// [`min_cost_max_matching`] writing into a caller-owned [`Matching`] and
/// reusing `scratch`'s buffers. The result (pairs, order, cost) is exactly
/// what [`min_cost_max_matching`] returns — the network is rebuilt in the
/// same arc order every call, so the flow computation is bit-identical.
pub fn min_cost_max_matching_into(
    scratch: &mut MatchingScratch,
    n_left: usize,
    n_right: usize,
    edges: &[(usize, usize, f64)],
    out: &mut Matching,
) {
    let s = n_left + n_right;
    let t = s + 1;
    let g = &mut scratch.graph;
    g.reset(n_left + n_right + 2);
    scratch.edge_ids.clear();
    for &(l, r, c) in edges {
        assert!(l < n_left, "left endpoint {l} out of range (n_left = {n_left})");
        assert!(r < n_right, "right endpoint {r} out of range (n_right = {n_right})");
        assert!(c.is_finite(), "non-finite edge cost");
        scratch.edge_ids.push(g.add_edge(l, n_left + r, 1, c));
    }
    for l in 0..n_left {
        g.add_edge(s, l, 1, 0.0);
    }
    for r in 0..n_right {
        g.add_edge(n_left + r, t, 1, 0.0);
    }
    let result = g.min_cost_max_flow(s, t, None);

    out.pairs.clear();
    out.cost = 0.0;
    // Collect saturated matching arcs; with parallel edges only count a left
    // node once (flow conservation guarantees a single saturated arc per left
    // node anyway).
    for (i, &(l, r, c)) in edges.iter().enumerate() {
        if g.flow_on(scratch.edge_ids[i]) == 1 {
            out.pairs.push((l, r));
            out.cost += c;
        }
    }
    out.pairs.sort_unstable();
    debug_assert_eq!(out.pairs.len(), result.flow as usize);
    debug_assert!((out.cost - result.cost).abs() < 1e-6 * (1.0 + out.cost.abs()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let m = min_cost_max_matching(3, 3, &[]);
        assert!(m.is_empty());
        assert_eq!(m.cost, 0.0);
    }

    #[test]
    fn perfect_matching_cheapest() {
        // 2x2 complete; assignment problem.
        let edges = [(0, 0, 1.0), (0, 1, 4.0), (1, 0, 2.0), (1, 1, 1.5)];
        let m = min_cost_max_matching(2, 2, &edges);
        assert_eq!(m.cardinality(), 2);
        assert!((m.cost - 2.5).abs() < 1e-9); // (0,0) + (1,1)
        assert_eq!(m.partner_of_left(0), Some(0));
        assert_eq!(m.partner_of_right(1), Some(1));
    }

    #[test]
    fn maximum_beats_cheap() {
        // Taking the cheap edge (0,0) alone blocks the only partner of left 1;
        // maximum matching must take (0,1) + (1,0) even though it costs more.
        let edges = [(0, 0, 0.1), (0, 1, 5.0), (1, 0, 5.0)];
        let m = min_cost_max_matching(2, 2, &edges);
        assert_eq!(m.cardinality(), 2);
        assert!((m.cost - 10.0).abs() < 1e-9);
    }

    #[test]
    fn unbalanced_sides() {
        let edges = [(0, 0, 3.0), (0, 1, 1.0), (0, 2, 2.0)];
        let m = min_cost_max_matching(1, 3, &edges);
        assert_eq!(m.cardinality(), 1);
        assert_eq!(m.pairs, vec![(0, 1)]);
    }

    #[test]
    fn parallel_edges_cheaper_wins() {
        let edges = [(0, 0, 9.0), (0, 0, 2.0)];
        let m = min_cost_max_matching(1, 1, &edges);
        assert_eq!(m.cardinality(), 1);
        assert!((m.cost - 2.0).abs() < 1e-9);
    }

    #[test]
    fn isolated_nodes_stay_unmatched() {
        let edges = [(0, 0, 1.0)];
        let m = min_cost_max_matching(5, 5, &edges);
        assert_eq!(m.cardinality(), 1);
        for l in 1..5 {
            assert_eq!(m.partner_of_left(l), None);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_endpoint() {
        min_cost_max_matching(1, 1, &[(2, 0, 1.0)]);
    }

    #[test]
    fn reused_scratch_matches_fresh_solves() {
        // Shrinking and growing instances through one scratch must give the
        // same matchings as fresh solves — stale arcs or edge ids would show.
        type Case = (usize, usize, Vec<(usize, usize, f64)>);
        let cases: Vec<Case> = vec![
            (2, 2, vec![(0, 0, 1.0), (0, 1, 4.0), (1, 0, 2.0), (1, 1, 1.5)]),
            (1, 1, vec![(0, 0, 9.0), (0, 0, 2.0)]),
            (3, 3, vec![]),
            (2, 2, vec![(0, 0, 0.1), (0, 1, 5.0), (1, 0, 5.0)]),
            (1, 3, vec![(0, 0, 3.0), (0, 1, 1.0), (0, 2, 2.0)]),
        ];
        let mut scratch = MatchingScratch::new();
        let mut out = Matching { pairs: Vec::new(), cost: 0.0 };
        for (n_left, n_right, edges) in &cases {
            min_cost_max_matching_into(&mut scratch, *n_left, *n_right, edges, &mut out);
            let fresh = min_cost_max_matching(*n_left, *n_right, edges);
            assert_eq!(out, fresh);
        }
    }
}
