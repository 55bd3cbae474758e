//! Property tests of the function-level greedy ([`matching::LadderMatcher`])
//! against the item-level min-cost-flow oracle: on random ladders over
//! overlapping bin sets — with tied costs, unit and capacitated bins — the
//! greedy must match the oracle's cardinality and cost, and, whenever all
//! costs are distinct (the min-cost basis is then unique), the same number
//! of items of every function.

use matching::{min_cost_max_b_matching, min_cost_max_matching, LadderMatcher, LadderRound};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Instance {
    costs: Vec<f64>,
    cost_start: Vec<usize>,
    bins: Vec<usize>,
    bin_start: Vec<usize>,
    bin_cap: Vec<usize>,
}

impl Instance {
    fn round(&self) -> LadderRound<'_> {
        LadderRound {
            costs: &self.costs,
            cost_start: &self.cost_start,
            bins: &self.bins,
            bin_start: &self.bin_start,
            bin_cap: &self.bin_cap,
        }
    }

    fn distinct_costs(&self) -> bool {
        let mut sorted = self.costs.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.windows(2).all(|w| w[0] != w[1])
    }

    fn function_of(&self, item: usize) -> usize {
        self.cost_start.partition_point(|&s| s <= item) - 1
    }
}

/// Random rounds. `grid` draws integer costs so ties across functions are
/// common; otherwise costs are continuous. `unit` pins every capacity to 1.
fn arb_instance(unit: bool) -> impl Strategy<Value = Instance> {
    (1usize..=6, any::<bool>()).prop_flat_map(move |(n_bins, grid)| {
        let func = (
            proptest::collection::vec(0..n_bins, 0..=n_bins),
            proptest::collection::vec(0.01f64..3.0, 0..=5),
            0.0f64..5.0,
        );
        let caps = proptest::collection::vec(if unit { 1usize..=1 } else { 0usize..=3 }, n_bins);
        (proptest::collection::vec(func, 1..=5), caps).prop_map(move |(funcs, bin_cap)| {
            let mut inst = Instance {
                costs: Vec::new(),
                cost_start: vec![0],
                bins: Vec::new(),
                bin_start: vec![0],
                bin_cap,
            };
            for (mut bins, gaps, base) in funcs {
                bins.sort_unstable();
                bins.dedup();
                inst.bins.extend(bins);
                inst.bin_start.push(inst.bins.len());
                let mut c = if grid { base.floor() } else { base };
                for g in gaps {
                    c += if grid { g.ceil() } else { g };
                    inst.costs.push(c);
                }
                inst.cost_start.push(inst.costs.len());
            }
            inst
        })
    })
}

fn check(inst: &Instance) {
    let round = inst.round();
    let mut m = LadderMatcher::new();
    m.solve(&round);

    // The greedy's own assignment is feasible and consistent.
    let mut load = vec![0usize; inst.bin_cap.len()];
    for p in 0..round.functions() {
        let assigned: Vec<usize> = m.assigned(&round, p).collect();
        prop_assert_eq!(assigned.len(), m.matched()[p]);
        prop_assert!(m.matched()[p] <= round.ladder(p).len());
        for b in assigned {
            prop_assert!(round.usable(p).contains(&b));
            load[b] += 1;
        }
    }
    for (b, &l) in load.iter().enumerate() {
        prop_assert!(l <= inst.bin_cap[b], "bin {} over capacity", b);
    }
    let prefix_cost: f64 =
        (0..round.functions()).map(|p| round.ladder(p)[..m.matched()[p]].iter().sum::<f64>()).sum();
    prop_assert!((m.cost() - prefix_cost).abs() <= 1e-9 * prefix_cost.abs().max(1.0));

    // Against the item-level oracle.
    let mut edges = Vec::new();
    round.item_edges(&mut edges);
    let oracle = if inst.bin_cap.iter().all(|&c| c == 1) {
        min_cost_max_matching(inst.bin_cap.len(), inst.costs.len(), &edges)
    } else {
        min_cost_max_b_matching(&inst.bin_cap, inst.costs.len(), &edges)
    };
    prop_assert_eq!(m.cardinality(), oracle.cardinality(), "cardinality on {:?}", inst);
    prop_assert!(
        (m.cost() - oracle.cost).abs() <= 1e-9 * oracle.cost.abs().max(1.0),
        "cost {} vs oracle {} on {:?}",
        m.cost(),
        oracle.cost,
        inst
    );
    if inst.distinct_costs() {
        let mut counts = vec![0usize; round.functions()];
        for &(_, item) in &oracle.pairs {
            counts[inst.function_of(item)] += 1;
        }
        prop_assert_eq!(counts.as_slice(), m.matched(), "per-function counts on {:?}", inst);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn greedy_matches_oracle_on_unit_bins(inst in arb_instance(true)) {
        check(&inst);
    }

    #[test]
    fn greedy_matches_oracle_on_capacitated_bins(inst in arb_instance(false)) {
        check(&inst);
    }

    /// One matcher reused across rounds of different shapes gives the same
    /// answer as a fresh one (no state leaks between solves).
    #[test]
    fn reused_matcher_is_stateless(a in arb_instance(false), b in arb_instance(true)) {
        let mut reused = LadderMatcher::new();
        reused.solve(&a.round());
        reused.solve(&b.round());
        let mut fresh = LadderMatcher::new();
        fresh.solve(&b.round());
        let round = b.round();
        for p in 0..round.functions() {
            prop_assert!(reused.assigned(&round, p).eq(fresh.assigned(&round, p)));
        }
        prop_assert_eq!(reused.matched(), fresh.matched());
        prop_assert_eq!(reused.cost().to_bits(), fresh.cost().to_bits());
    }
}
