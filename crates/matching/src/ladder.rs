//! Function-level min-cost maximum matching for ladder-structured rounds.
//!
//! A round of Algorithm 2 matches bins (cloudlets) to *items*, one item per
//! `(function, slot k)`. Every item of function `p` costs its ladder entry
//! `c_p(k)` — strictly increasing in `k` — and reaches the same usable-bin
//! set `B_p`. Because an edge's cost depends only on its item, a min-cost
//! maximum matching is a min-cost basis of the transversal matroid whose
//! independent sets are the matchable item sets, and the matroid greedy finds
//! it exactly: take items in ascending cost order and keep an item iff the
//! kept set stays matchable.
//!
//! Items of one function are interchangeable (same neighbourhood), so the
//! matchability test runs on the small graph of functions (with
//! multiplicities: how many items each has kept) × bins (with capacities) —
//! one augmenting-path search per item instead of a shortest-path pass over
//! the item-level edge list. Once an item of `p` is refused, every later item
//! of `p` would be refused too (its set is a superset of a dependent one), so
//! `p` leaves the round. Bin capacities cover both the paper's unit rounds
//! (capacity 1) and the `batch_rounds` ablation (a bin replicated `b` times
//! is still a transversal matroid).
//!
//! Ties: items are merged in ascending `(cost, function index)` order; each
//! search scans a function's bins in [`LadderRound::bins`] order and returns
//! the first free bin at the shallowest breadth-first depth. Everything runs
//! on reusable buffers, so a warm [`LadderMatcher`] allocates nothing.

/// One round's input: a cost ladder and a usable-bin list per function, both
/// in CSR form, plus a capacity for every bin id.
#[derive(Debug, Clone, Copy)]
pub struct LadderRound<'a> {
    /// Function `p`'s item costs are `costs[cost_start[p]..cost_start[p + 1]]`,
    /// strictly increasing. Item indices are positions in `costs`.
    pub costs: &'a [f64],
    pub cost_start: &'a [usize],
    /// Function `p`'s usable bins are `bins[bin_start[p]..bin_start[p + 1]]`
    /// (distinct bin ids). Positions in `bins` are the round's arcs.
    pub bins: &'a [usize],
    pub bin_start: &'a [usize],
    /// Capacity of every bin id (`1` for unit rounds).
    pub bin_cap: &'a [usize],
}

impl LadderRound<'_> {
    pub fn functions(&self) -> usize {
        self.cost_start.len() - 1
    }

    pub fn ladder(&self, p: usize) -> &[f64] {
        &self.costs[self.cost_start[p]..self.cost_start[p + 1]]
    }

    pub fn usable(&self, p: usize) -> &[usize] {
        &self.bins[self.bin_start[p]..self.bin_start[p + 1]]
    }

    /// The item-level edge list `(bin, item, cost)` this round stands for —
    /// every item joined to every usable bin of its function — as the
    /// reference solvers ([`crate::min_cost_max_matching`],
    /// [`crate::min_cost_max_b_matching`]) take it. Item `j` belongs to the
    /// function whose `cost_start` range holds `j`.
    pub fn item_edges(&self, out: &mut Vec<(usize, usize, f64)>) {
        out.clear();
        for p in 0..self.functions() {
            for (j, &c) in
                self.costs.iter().enumerate().take(self.cost_start[p + 1]).skip(self.cost_start[p])
            {
                out.extend(self.usable(p).iter().map(|&b| (b, j, c)));
            }
        }
    }
}

/// Solver state and result of the last [`LadderMatcher::solve`].
#[derive(Debug, Clone, Default)]
pub struct LadderMatcher {
    /// Per function: items kept (always a prefix of its ladder).
    matched: Vec<usize>,
    /// Per arc: units of the arc's function placed on the arc's bin.
    flow: Vec<usize>,
    cost: f64,
    searches: u64,
    arcs_scanned: u64,
    /// Per bin id: units placed.
    load: Vec<usize>,
    arc_fn: Vec<usize>,
    /// Arcs incident to each bin id (CSR), for moving a unit off a full bin.
    bin_arc_start: Vec<usize>,
    bin_arcs: Vec<usize>,
    /// Per function: next ladder position, and the first arc whose bin may
    /// still be free (loads only grow within a round).
    head: Vec<usize>,
    cursor: Vec<usize>,
    live: Vec<bool>,
    fn_seen: Vec<u32>,
    bin_seen: Vec<u32>,
    stamp: u32,
    queue: Vec<usize>,
    /// Per function reached by a search: (parent's arc into the shared bin,
    /// this function's arc on it).
    pred: Vec<(usize, usize)>,
}

impl LadderMatcher {
    pub fn new() -> Self {
        Self::default()
    }

    /// Solve one round: a min-cost maximum matching of its items to bins.
    pub fn solve(&mut self, round: &LadderRound<'_>) {
        let nf = round.functions();
        let n_bins = round.bin_cap.len();
        self.matched.clear();
        self.matched.resize(nf, 0);
        self.flow.clear();
        self.flow.resize(round.bins.len(), 0);
        self.cost = 0.0;
        self.searches = 0;
        self.arcs_scanned = 0;
        self.load.clear();
        self.load.resize(n_bins, 0);
        self.bin_seen.clear();
        self.bin_seen.resize(n_bins, 0);
        self.fn_seen.clear();
        self.fn_seen.resize(nf, 0);
        self.stamp = 0;
        self.pred.clear();
        self.pred.resize(nf, (0, 0));
        self.arc_fn.clear();
        self.head.clear();
        self.cursor.clear();
        self.live.clear();
        for p in 0..nf {
            let arcs = round.bin_start[p]..round.bin_start[p + 1];
            self.arc_fn.extend(arcs.map(|_| p));
            self.head.push(round.cost_start[p]);
            self.cursor.push(round.bin_start[p]);
            self.live.push(round.cost_start[p] < round.cost_start[p + 1]);
        }
        // Counting sort of the arcs by bin.
        self.bin_arc_start.clear();
        self.bin_arc_start.resize(n_bins + 1, 0);
        for &b in round.bins {
            self.bin_arc_start[b + 1] += 1;
        }
        for b in 0..n_bins {
            self.bin_arc_start[b + 1] += self.bin_arc_start[b];
        }
        self.bin_arcs.clear();
        self.bin_arcs.resize(round.bins.len(), 0);
        for (a, &b) in round.bins.iter().enumerate() {
            // `load` doubles as the per-bin fill cursor; reset below.
            self.bin_arcs[self.bin_arc_start[b] + self.load[b]] = a;
            self.load[b] += 1;
        }
        for &b in round.bins {
            self.load[b] = 0;
        }

        loop {
            let mut next: Option<(f64, usize)> = None;
            for p in (0..nf).filter(|&p| self.live[p]) {
                let c = round.costs[self.head[p]];
                if next.is_none_or(|(best, _)| c < best) {
                    next = Some((c, p));
                }
            }
            let Some((c, p)) = next else { break };
            if self.place(round, p) {
                self.matched[p] += 1;
                self.cost += c;
                self.head[p] += 1;
                self.live[p] = self.head[p] < round.cost_start[p + 1];
            } else {
                self.live[p] = false;
            }
        }
    }

    /// First free bin of `q` at or after its cursor; advances the cursor past
    /// full bins.
    fn free_arc(&mut self, round: &LadderRound<'_>, q: usize) -> Option<usize> {
        let end = round.bin_start[q + 1];
        while self.cursor[q] < end {
            let a = self.cursor[q];
            self.arcs_scanned += 1;
            let b = round.bins[a];
            if self.load[b] < round.bin_cap[b] {
                return Some(a);
            }
            self.cursor[q] += 1;
        }
        None
    }

    /// Find room for one more unit of function `root`: breadth-first over
    /// functions, where `q` reaches `r` through a full bin of `q` on which `r`
    /// holds a unit (so `r` may move off it). Functions are checked for a
    /// free bin in the order they are reached, so the search ends at the
    /// first one found. Augments and returns `true` on success.
    fn place(&mut self, round: &LadderRound<'_>, root: usize) -> bool {
        self.searches += 1;
        if let Some(a) = self.free_arc(round, root) {
            self.augment(round, root, root, a);
            return true;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        self.queue.clear();
        self.queue.push(root);
        self.fn_seen[root] = stamp;
        let mut qi = 0;
        while qi < self.queue.len() {
            let q = self.queue[qi];
            qi += 1;
            for a in round.bin_start[q]..round.bin_start[q + 1] {
                self.arcs_scanned += 1;
                let b = round.bins[a];
                if self.bin_seen[b] == stamp {
                    continue;
                }
                self.bin_seen[b] = stamp;
                for i in self.bin_arc_start[b]..self.bin_arc_start[b + 1] {
                    let a2 = self.bin_arcs[i];
                    let r = self.arc_fn[a2];
                    if self.flow[a2] == 0 || self.fn_seen[r] == stamp {
                        continue;
                    }
                    self.fn_seen[r] = stamp;
                    self.pred[r] = (a, a2);
                    if let Some(free) = self.free_arc(round, r) {
                        self.augment(round, root, r, free);
                        return true;
                    }
                    self.queue.push(r);
                }
            }
        }
        false
    }

    /// Place one unit of `q` on arc `a`'s free bin, then shift one unit back
    /// along the search path from `q` to `root`.
    fn augment(&mut self, round: &LadderRound<'_>, root: usize, q: usize, a: usize) {
        self.flow[a] += 1;
        self.load[round.bins[a]] += 1;
        let mut r = q;
        while r != root {
            let (into, out) = self.pred[r];
            self.flow[out] -= 1;
            self.flow[into] += 1;
            r = self.arc_fn[into];
        }
    }

    /// Items kept per function (a prefix of each ladder).
    pub fn matched(&self) -> &[usize] {
        &self.matched
    }

    /// Total number of items matched.
    pub fn cardinality(&self) -> usize {
        self.matched.iter().sum()
    }

    /// Total cost of the matched items.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// The bins assigned to function `p`, in its usable-bin order, one entry
    /// per matched item.
    pub fn assigned<'r>(
        &'r self,
        round: &'r LadderRound<'_>,
        p: usize,
    ) -> impl Iterator<Item = usize> + 'r {
        (round.bin_start[p]..round.bin_start[p + 1])
            .flat_map(move |a| std::iter::repeat_n(round.bins[a], self.flow[a]))
    }

    /// Augmenting-path searches run by the last solve (one per item tried).
    pub fn searches(&self) -> u64 {
        self.searches
    }

    /// Function-to-bin arcs scanned by the last solve's searches.
    pub fn arcs_scanned(&self) -> u64 {
        self.arcs_scanned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round<'a>(
        costs: &'a [f64],
        cost_start: &'a [usize],
        bins: &'a [usize],
        bin_start: &'a [usize],
        bin_cap: &'a [usize],
    ) -> LadderRound<'a> {
        LadderRound { costs, cost_start, bins, bin_start, bin_cap }
    }

    #[test]
    fn cheapest_items_win_a_shared_bin() {
        // Two functions share bin 0; function 1's first item is cheaper.
        let r = round(&[2.0, 3.0, 1.0], &[0, 2, 3], &[0, 0], &[0, 1, 2], &[1]);
        let mut m = LadderMatcher::new();
        m.solve(&r);
        assert_eq!(m.matched(), &[0, 1]);
        assert_eq!(m.cost(), 1.0);
        assert_eq!(m.assigned(&r, 1).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn augmenting_path_moves_a_unit_to_make_room() {
        // f0 (cost 1) may use bins {0, 1}; f1 (cost 2) only bin 0. The first
        // search puts f0 on bin 0; f1's search must move it to bin 1.
        let r = round(&[1.0, 2.0], &[0, 1, 2], &[0, 1, 0], &[0, 2, 3], &[1, 1]);
        let mut m = LadderMatcher::new();
        m.solve(&r);
        assert_eq!(m.matched(), &[1, 1]);
        assert_eq!(m.assigned(&r, 0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(m.assigned(&r, 1).collect::<Vec<_>>(), vec![0]);
        assert_eq!(m.cost(), 3.0);
    }

    #[test]
    fn refused_function_leaves_the_round() {
        // One unit bin: f0 takes it, every later item of f0 and f1 is refused.
        let r = round(&[1.0, 1.5, 2.0], &[0, 2, 3], &[0, 0], &[0, 1, 2], &[1]);
        let mut m = LadderMatcher::new();
        m.solve(&r);
        assert_eq!(m.matched(), &[1, 0]);
        assert_eq!(m.searches(), 3);
    }

    #[test]
    fn bin_capacity_takes_several_items() {
        let r = round(&[1.0, 2.0, 3.0], &[0, 3], &[4], &[0, 1], &[0, 0, 0, 0, 2]);
        let mut m = LadderMatcher::new();
        m.solve(&r);
        assert_eq!(m.matched(), &[2]);
        assert_eq!(m.assigned(&r, 0).collect::<Vec<_>>(), vec![4, 4]);
        assert_eq!(m.cost(), 3.0);
    }

    #[test]
    fn item_edges_expand_function_major() {
        let r = round(&[1.0, 2.0, 5.0], &[0, 2, 3], &[0, 1, 1], &[0, 2, 3], &[1, 1]);
        let mut edges = Vec::new();
        r.item_edges(&mut edges);
        assert_eq!(edges, vec![(0, 0, 1.0), (1, 0, 1.0), (0, 1, 2.0), (1, 1, 2.0), (1, 2, 5.0)]);
    }
}
