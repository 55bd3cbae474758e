//! Algorithm 2: the matching-based heuristic.
//!
//! Builds a series of bipartite graphs `G_1, G_2, …` between cloudlets with
//! remaining residual capacity and still-unplaced candidate secondary items,
//! extracts a minimum-cost maximum matching from each (edge weights are the
//! paper's Eq. 3 costs), commits the matched placements, and repeats. Each
//! round a cloudlet receives at most one new instance, so capacities are never
//! violated (Theorem 6.2's feasibility argument).
//!
//! The loop guard is configurable via [`StopRule`]; see DESIGN.md on why the
//! literal budget guard `c(S) < C` of the pseudocode stops after one round
//! for realistic `ρ_j` and why stopping at the reached expectation is the
//! faithful reading.

use std::time::Instant;

use matching::{LadderMatcher, LadderRound};
use obs::Recorder;

use crate::instance::AugmentationInstance;
use crate::reliability;
use crate::scratch::SolveScratch;
use crate::solution::{Metrics, Outcome, SolverInfo};

/// When the matching loop stops (besides running out of edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopRule {
    /// Stop once the achieved reliability reaches `ρ_j` — the problem's
    /// actual goal and the default.
    #[default]
    Expectation,
    /// The pseudocode's literal guard: stop once the accumulated item cost
    /// `c(S)` reaches the budget `C = -log ρ_j`.
    PaperBudget,
    /// Keep matching until no placeable item remains (upper-bounds what the
    /// heuristic could ever achieve).
    Exhaust,
}

/// Configuration of Algorithm 2.
#[derive(Debug, Clone, Default)]
pub struct HeuristicConfig {
    pub stop: StopRule,
    /// Item-enumeration cap (see [`crate::ilp::IlpConfig::gain_floor`]);
    /// `0.0` disables capping (and is the default). Positive floors only
    /// drop items whose reliability contribution is below the floor.
    pub gain_floor: f64,
    /// Ablation: use a capacitated b-matching per round (each cloudlet may
    /// absorb several instances per round instead of one), collapsing the
    /// round loop. Matched placements are still committed cheapest-first with
    /// a capacity check, so feasibility is preserved. `false` is the paper's
    /// Algorithm 2.
    pub batch_rounds: bool,
}

impl HeuristicConfig {
    pub fn with_stop(stop: StopRule) -> Self {
        HeuristicConfig { stop, gain_floor: 1e-12, batch_rounds: false }
    }
}

/// Run Algorithm 2. Never violates capacities or locality.
pub fn solve(inst: &AugmentationInstance, cfg: &HeuristicConfig) -> Outcome {
    solve_traced(inst, cfg, &mut Recorder::noop())
}

/// [`solve`] with telemetry: emits one `heuristic.round` event per matching
/// round carrying the bipartite graph dimensions (bins × items, edge count),
/// the matching size, the placements committed and the reliability gain.
pub fn solve_traced(
    inst: &AugmentationInstance,
    cfg: &HeuristicConfig,
    rec: &mut Recorder,
) -> Outcome {
    solve_scratch(inst, cfg, rec, &mut SolveScratch::new())
}

/// [`solve_traced`] on caller-owned scratch buffers. With a warm
/// [`SolveScratch`] the whole solve — matching network included — runs
/// without heap allocation (see `crates/bench/benches/solve_alloc.rs`),
/// except for the returned [`Outcome`] itself.
pub fn solve_scratch(
    inst: &AugmentationInstance,
    cfg: &HeuristicConfig,
    rec: &mut Recorder,
    scratch: &mut SolveScratch,
) -> Outcome {
    let started = Instant::now();
    let rounds = solve_in(inst, cfg, rec, scratch);
    let aug = scratch.sol.materialize();
    debug_assert!(aug.is_capacity_feasible(inst));
    debug_assert!(aug.respects_locality(inst));
    let metrics = Metrics::compute(&aug, inst);
    Outcome {
        augmentation: aug,
        metrics,
        runtime: started.elapsed(),
        solver: SolverInfo::Heuristic { matching_rounds: rounds },
        telemetry: rec.summary(),
    }
}

/// Allocation-free core of Algorithm 2: builds the solution in `scratch.sol`
/// (materialize it for an owned [`crate::solution::Augmentation`]) and
/// returns the number of matching rounds. The result depends only on the
/// instance and config, never on the prior state of `scratch`; with a warm
/// scratch only enabled-recorder event closures allocate.
pub fn solve_in(
    inst: &AugmentationInstance,
    cfg: &HeuristicConfig,
    rec: &mut Recorder,
    scratch: &mut SolveScratch,
) -> usize {
    solve_rounds(inst, cfg, rec, scratch, |_, _| {})
}

/// [`solve_in`] that hands every round's matching input and its solved
/// matching to `on_round` — how the oracle tests and the matching bench
/// replay each round against the item-level min-cost flow.
pub fn solve_rounds(
    inst: &AugmentationInstance,
    cfg: &HeuristicConfig,
    rec: &mut Recorder,
    scratch: &mut SolveScratch,
    mut on_round: impl FnMut(&LadderRound<'_>, &LadderMatcher),
) -> usize {
    let SolveScratch { sol, heur, .. } = scratch;
    let crate::scratch::HeuristicScratch {
        cap,
        next_k,
        residual,
        pairs,
        placed_per_func,
        fn_id,
        fn_bins,
        fn_bins_start,
        ladder,
        ladder_start,
        bin_cap,
        batch_min_demand,
        matcher,
    } = heur;
    sol.begin(inst.chain_len());
    if inst.expectation_met_by_primaries() {
        rec.emit_with(|| {
            obs::Event::new("heuristic.early_exit")
                .with("base_reliability", inst.base_reliability())
        });
        return 0;
    }

    let gain_floor = if cfg.gain_floor > 0.0 { cfg.gain_floor } else { 0.0 };
    // Per function: slots still to place are next_k[i]..=cap[i].
    cap.clear();
    cap.extend(inst.functions.iter().map(|f| f.capped_slots(gain_floor)));
    next_k.clear();
    next_k.resize(inst.chain_len(), 1);
    residual.clear();
    residual.extend(inst.bins.iter().map(|b| b.residual));
    bin_cap.clear();
    bin_cap.resize(inst.bins.len(), 1);
    if cfg.batch_rounds {
        // Per-bin multiplicity bound from the smallest eligible demand. It is
        // optimistic for larger functions, so commits keep their capacity
        // check.
        batch_min_demand.clear();
        batch_min_demand.extend((0..inst.bins.len()).map(|b| {
            inst.functions
                .iter()
                .filter(|f| f.eligible_bins.contains(&b))
                .map(|f| f.demand)
                .fold(f64::INFINITY, f64::min)
        }));
    }
    let budget = inst.budget();
    let mut total_cost = 0.0f64;
    let mut rounds = 0usize;
    let mut lists_built = false;

    loop {
        // Stop-rule check before building the next graph.
        match cfg.stop {
            StopRule::Expectation => {
                if sol.reliability(inst) >= inst.expectation {
                    break;
                }
            }
            StopRule::PaperBudget => {
                if total_cost >= budget {
                    break;
                }
            }
            StopRule::Exhaust => {}
        }

        // Maintain the per-function usable-bin lists. First round: derive
        // them from `eligible_bins`, roomiest bin first (ties by index): the
        // matcher scans bins in this order, so the cheapest — most valuable
        // — items land on the bins with the most residual, which are also
        // the ones the final trim keeps. Later rounds: filter the retained
        // lists in place — residuals only shrink within a solve, so a bin (or
        // a whole function) once dropped can never become usable again, and
        // the delta filter yields exactly what a recompute would.
        if !lists_built {
            lists_built = true;
            fn_id.clear();
            fn_bins.clear();
            fn_bins_start.clear();
            fn_bins_start.push(0);
            for (i, f) in inst.functions.iter().enumerate() {
                let start = fn_bins.len();
                fn_bins
                    .extend(f.eligible_bins.iter().copied().filter(|&b| residual[b] >= f.demand));
                fn_bins[start..]
                    .sort_unstable_by(|&a, &b| residual[b].total_cmp(&residual[a]).then(a.cmp(&b)));
                if fn_bins.len() > start {
                    fn_id.push(i);
                    fn_bins_start.push(fn_bins.len());
                }
            }
        } else {
            let n_active = fn_id.len();
            let mut w_fun = 0usize;
            let mut w_bin = 0usize;
            let mut read_start = 0usize;
            for p in 0..n_active {
                let read_end = fn_bins_start[p + 1];
                let i = fn_id[p];
                let demand = inst.functions[i].demand;
                let seg_start = w_bin;
                for idx in read_start..read_end {
                    let b = fn_bins[idx];
                    if residual[b] >= demand {
                        fn_bins[w_bin] = b;
                        w_bin += 1;
                    }
                }
                read_start = read_end;
                if w_bin > seg_start {
                    fn_id[w_fun] = i;
                    w_fun += 1;
                    fn_bins_start[w_fun] = w_bin;
                }
            }
            fn_id.truncate(w_fun);
            fn_bins.truncate(w_bin);
            fn_bins_start.truncate(w_fun + 1);
        }

        // Enumerate this round's cost ladders, one per active function. A
        // function can gain at most `usable` placements per round (each bin
        // hosts at most one match), so only its next `usable` slots can
        // possibly be matched; enumerating more only inflates the graph. The
        // cost is strictly increasing in `k`; once the marginal underflows to
        // zero (cost = +inf) this slot and every later one add no
        // representable reliability, so they can't be usefully matched.
        ladder.clear();
        ladder_start.clear();
        ladder_start.push(0);
        let (mut edges, mut arcs) = (0usize, 0usize);
        for p in 0..fn_id.len() {
            let i = fn_id[p];
            let f = &inst.functions[i];
            let usable = fn_bins_start[p + 1] - fn_bins_start[p];
            let hi = cap[i].min(next_k[i] + usable - 1);
            let first = ladder.len();
            for k in next_k[i]..=hi {
                let cost = reliability::paper_cost(f.reliability, f.existing_backups + k);
                if !cost.is_finite() {
                    break;
                }
                ladder.push(cost);
            }
            ladder_start.push(ladder.len());
            if ladder.len() > first {
                edges += (ladder.len() - first) * usable;
                arcs += usable;
            }
        }
        if ladder.is_empty() {
            break;
        }
        rounds += 1;
        let rel_before = if rec.enabled() { sol.reliability(inst) } else { 0.0 };

        if cfg.batch_rounds {
            for (c, (&r, &d)) in
                bin_cap.iter_mut().zip(residual.iter().zip(batch_min_demand.iter()))
            {
                *c = if d.is_finite() { (r / d).floor() as usize } else { 0 };
            }
        }
        let round = LadderRound {
            costs: ladder,
            cost_start: ladder_start,
            bins: fn_bins,
            bin_start: fn_bins_start,
            bin_cap,
        };
        matcher.solve(&round);
        on_round(&round, matcher);
        let matched = matcher.cardinality();
        if matched == 0 {
            break;
        }
        // Commit cheapest-first — ordered by (k, function) — with a capacity
        // check: exact for unit rounds (each bin takes at most one item, and
        // only fitting bins are offered), necessary for batch rounds whose
        // multiplicity bound used the *smallest* demand. A function's j-th
        // assigned bin takes its j-th kept slot.
        pairs.clear();
        for p in 0..fn_id.len() {
            let k0 = next_k[fn_id[p]];
            pairs.extend(matcher.assigned(&round, p).enumerate().map(|(j, b)| (k0 + j, p, b)));
        }
        pairs.sort_unstable();
        placed_per_func.clear();
        placed_per_func.resize(inst.chain_len(), 0);
        let mut committed = 0usize;
        for &(k, p, b) in pairs.iter() {
            let i = fn_id[p];
            if residual[b] >= inst.functions[i].demand {
                residual[b] -= inst.functions[i].demand;
                sol.add(i, b);
                total_cost += reliability::paper_cost(
                    inst.functions[i].reliability,
                    inst.functions[i].existing_backups + k,
                );
                placed_per_func[i] += 1;
                committed += 1;
            }
        }
        rec.count("heuristic.rounds", 1);
        rec.count("heuristic.committed", committed as u64);
        // Matching-plane counters (consumed by stream_exp's matching table).
        rec.count("matching.rounds.engine", 1);
        rec.count("matching.edges.materialized", arcs as u64);
        rec.count("matching.passes", matcher.searches());
        rec.count("matching.relaxations", matcher.arcs_scanned());
        rec.emit_with(|| {
            let left_bins = {
                // Distinct bins carrying at least one edge: the union of the
                // usable-bin segments of every function with items this round.
                let mut seen = vec![false; inst.bins.len()];
                for p in (0..fn_id.len()).filter(|&p| ladder_start[p + 1] > ladder_start[p]) {
                    for &bin in &fn_bins[fn_bins_start[p]..fn_bins_start[p + 1]] {
                        seen[bin] = true;
                    }
                }
                seen.iter().filter(|&&s| s).count()
            };
            obs::Event::new("heuristic.round")
                .with("round", rounds)
                .with("left_bins", left_bins)
                .with("right_items", ladder.len())
                .with("edges", edges)
                .with("arcs", arcs)
                .with("matched", matched)
                .with("cost", matcher.cost())
                .with("committed", committed)
                .with("reliability", sol.reliability(inst))
                .with("reliability_gain", sol.reliability(inst) - rel_before)
        });
        if committed == 0 {
            break;
        }
        // Matched items per function are exactly its cheapest remaining slots
        // (the greedy keeps a ladder prefix).
        for (i, &p) in placed_per_func.iter().enumerate() {
            next_k[i] += p;
        }
    }

    if cfg.stop == StopRule::Expectation {
        // The final matching round may overshoot the expectation; trim the
        // surplus like the other algorithms do.
        let trimmed = sol.trim_to_expectation(inst);
        rec.count("heuristic.trimmed_secondaries", trimmed as u64);
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Bin, FunctionSlot};
    use mecnet::graph::NodeId;
    use mecnet::vnf::VnfTypeId;

    fn slot(demand: f64, r: f64, eligible: Vec<usize>, max: usize) -> FunctionSlot {
        FunctionSlot {
            vnf: VnfTypeId(0),
            demand,
            reliability: r,
            primary: NodeId(0),
            eligible_bins: eligible,
            max_secondaries: max,
            existing_backups: 0,
        }
    }

    #[test]
    fn early_exit_when_base_suffices() {
        let inst = AugmentationInstance {
            functions: vec![slot(100.0, 0.95, vec![0], 3)],
            bins: vec![Bin { node: NodeId(0), residual: 400.0 }],
            l: 1,
            expectation: 0.9,
        };
        let out = solve(&inst, &HeuristicConfig::default());
        assert_eq!(out.metrics.total_secondaries, 0);
        assert_eq!(out.solver, SolverInfo::Heuristic { matching_rounds: 0 });
    }

    #[test]
    fn exhausts_capacity_toward_high_expectation() {
        let inst = AugmentationInstance {
            functions: vec![slot(100.0, 0.8, vec![0], 3)],
            bins: vec![Bin { node: NodeId(0), residual: 350.0 }],
            l: 1,
            expectation: 0.9999999,
        };
        let out = solve(&inst, &HeuristicConfig::default());
        // 3 secondaries fit; expectation needs R(0.8, k) >= 0.9999999 -> k = 10,
        // so the heuristic should exhaust all 3.
        assert_eq!(out.augmentation.counts(), vec![3]);
        assert!(out.augmentation.is_capacity_feasible(&inst));
        // One bin: each round places one instance -> 3 rounds (+1 empty-check).
        assert_eq!(out.solver, SolverInfo::Heuristic { matching_rounds: 3 });
    }

    #[test]
    fn stops_at_expectation() {
        let inst = AugmentationInstance {
            functions: vec![slot(100.0, 0.8, vec![0], 5)],
            bins: vec![Bin { node: NodeId(0), residual: 600.0 }],
            l: 1,
            expectation: 0.95, // R(0.8, 1) = 0.96 >= 0.95 -> one secondary
        };
        let out = solve(&inst, &HeuristicConfig::default());
        assert_eq!(out.augmentation.counts(), vec![1]);
        assert!(out.metrics.met_expectation);
    }

    #[test]
    fn paper_budget_rule_stops_after_first_round() {
        // C = -ln(0.95) ≈ 0.051; the first item's cost -ln(0.16) ≈ 1.83
        // already exceeds it, so the literal rule stops after round 1.
        let inst = AugmentationInstance {
            functions: vec![slot(100.0, 0.8, vec![0], 5)],
            bins: vec![Bin { node: NodeId(0), residual: 600.0 }],
            l: 1,
            expectation: 0.95,
        };
        let out = solve(&inst, &HeuristicConfig::with_stop(StopRule::PaperBudget));
        assert_eq!(out.solver, SolverInfo::Heuristic { matching_rounds: 1 });
        assert_eq!(out.augmentation.counts(), vec![1]);
    }

    #[test]
    fn exhaust_rule_fills_everything() {
        let inst = AugmentationInstance {
            functions: vec![slot(100.0, 0.9, vec![0, 1], 7), slot(150.0, 0.85, vec![1], 2)],
            bins: vec![
                Bin { node: NodeId(0), residual: 250.0 },
                Bin { node: NodeId(1), residual: 400.0 },
            ],
            l: 1,
            expectation: 0.5, // trivially met, but Exhaust ignores it...
        };
        // NOTE: early EXIT still applies (paper line 2-4). Use an expectation
        // the base misses.
        let mut inst = inst;
        inst.expectation = 0.9999999999;
        let out = solve(&inst, &HeuristicConfig { stop: StopRule::Exhaust, ..Default::default() });
        // Bin0 fits 2 f0-instances (200 <= 250); bin1: best packing uses all
        // 400 MHz; the matching is greedy per round so verify only feasibility
        // and that nothing more could fit.
        assert!(out.augmentation.is_capacity_feasible(&inst));
        let loads = out.augmentation.bin_loads(&inst);
        // No instance of any function with a usable bin remains placeable.
        for (i, f) in inst.functions.iter().enumerate() {
            let placed: usize = out.augmentation.counts()[i];
            if placed < f.max_secondaries {
                for &b in &f.eligible_bins {
                    assert!(
                        inst.bins[b].residual - loads[b] < f.demand,
                        "function {i} could still fit in bin {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn prefers_low_reliability_functions_under_scarcity() {
        // One slot of capacity; matching must pick the cheaper item, which by
        // Eq. 3 is the *less reliable* function's first backup...
        // cost(r, 1) = -ln(r(1-r)); r=0.6 -> -ln(0.24)=1.43; r=0.9 ->
        // -ln(0.09)=2.41. So f(r=0.6) wins — which also maximizes gain here.
        let inst = AugmentationInstance {
            functions: vec![slot(200.0, 0.6, vec![0], 1), slot(200.0, 0.9, vec![0], 1)],
            bins: vec![Bin { node: NodeId(0), residual: 200.0 }],
            l: 1,
            expectation: 0.999999,
        };
        let out = solve(&inst, &HeuristicConfig::default());
        assert_eq!(out.augmentation.counts(), vec![1, 0]);
    }

    #[test]
    fn respects_multiple_bins_per_round() {
        // One function, three eligible bins: a single round can place three
        // instances (one per bin).
        let inst = AugmentationInstance {
            functions: vec![slot(100.0, 0.8, vec![0, 1, 2], 3)],
            bins: vec![
                Bin { node: NodeId(0), residual: 100.0 },
                Bin { node: NodeId(1), residual: 100.0 },
                Bin { node: NodeId(2), residual: 100.0 },
            ],
            l: 1,
            expectation: 0.9999999,
        };
        let out = solve(&inst, &HeuristicConfig::default());
        assert_eq!(out.augmentation.counts(), vec![3]);
        assert_eq!(out.solver, SolverInfo::Heuristic { matching_rounds: 1 });
    }

    #[test]
    fn batch_rounds_matches_unit_rounds_quality() {
        // Same instance, both variants: feasible, and batch needs no more
        // rounds than unit matching while reaching at least its reliability
        // minus a small slack (commitment order differs).
        let inst = AugmentationInstance {
            functions: vec![
                slot(100.0, 0.8, vec![0, 1], 6),
                slot(150.0, 0.85, vec![1], 3),
                slot(200.0, 0.9, vec![0], 2),
            ],
            bins: vec![
                Bin { node: NodeId(0), residual: 600.0 },
                Bin { node: NodeId(1), residual: 700.0 },
            ],
            l: 1,
            expectation: 0.99999999,
        };
        let unit = solve(&inst, &HeuristicConfig::default());
        let batch = solve(&inst, &HeuristicConfig { batch_rounds: true, ..Default::default() });
        assert!(batch.augmentation.is_capacity_feasible(&inst));
        assert!(batch.augmentation.respects_locality(&inst));
        let (
            SolverInfo::Heuristic { matching_rounds: ru },
            SolverInfo::Heuristic { matching_rounds: rb },
        ) = (&unit.solver, &batch.solver)
        else {
            panic!("wrong solver info")
        };
        assert!(rb <= ru, "batch rounds {rb} should not exceed unit rounds {ru}");
        assert!(batch.metrics.reliability >= 0.95 * unit.metrics.reliability);
    }

    #[test]
    fn traced_solve_records_rounds() {
        let inst = AugmentationInstance {
            functions: vec![slot(100.0, 0.8, vec![0], 3)],
            bins: vec![Bin { node: NodeId(0), residual: 350.0 }],
            l: 1,
            expectation: 0.9999999,
        };
        let mut rec = Recorder::memory();
        let out = solve_traced(&inst, &HeuristicConfig::default(), &mut rec);
        assert_eq!(out.solver, SolverInfo::Heuristic { matching_rounds: 3 });
        assert_eq!(out.telemetry.counter("heuristic.rounds"), 3);
        let rounds: Vec<_> = rec.events().iter().filter(|e| e.kind == "heuristic.round").collect();
        assert_eq!(rounds.len(), 3);
        // One bin -> each round matches and commits exactly one placement,
        // and every round strictly improves the reliability.
        for e in &rounds {
            assert_eq!(e.field("matched").unwrap().as_u64(), Some(1));
            assert_eq!(e.field("committed").unwrap().as_u64(), Some(1));
            assert_eq!(e.field("left_bins").unwrap().as_u64(), Some(1));
            assert!(e.field("reliability_gain").unwrap().as_f64().unwrap() > 0.0);
        }
    }

    #[test]
    fn no_capacity_no_rounds() {
        let inst = AugmentationInstance {
            functions: vec![slot(100.0, 0.8, vec![], 0)],
            bins: vec![Bin { node: NodeId(0), residual: 50.0 }],
            l: 1,
            expectation: 0.99,
        };
        let out = solve(&inst, &HeuristicConfig::default());
        assert_eq!(out.metrics.total_secondaries, 0);
        assert_eq!(out.solver, SolverInfo::Heuristic { matching_rounds: 0 });
    }
}
