//! Property tests on the augmentation algorithms over randomly generated
//! small instances: dominance, feasibility, and trim invariants must hold on
//! every input, not just the paper's workload; and every matching round the
//! heuristic solves must agree with the item-level min-cost-flow oracle.

use matching::{min_cost_max_b_matching, min_cost_max_matching};
use mecnet::graph::NodeId;
use mecnet::vnf::VnfTypeId;
use proptest::prelude::*;
use relaug::heuristic::{HeuristicConfig, StopRule};
use relaug::ilp::IlpConfig;
use relaug::instance::{AugmentationInstance, Bin, FunctionSlot};
use relaug::{greedy, heuristic, ilp, randomized, SolveScratch};

/// Strategy: random small instances with consistent eligibility and K_i.
fn arb_instance() -> impl Strategy<Value = AugmentationInstance> {
    let bins = proptest::collection::vec(100.0f64..900.0, 1..=4);
    let funcs = proptest::collection::vec((50.0f64..350.0, 0.55f64..0.95), 1..=5);
    (bins, funcs, 0.9f64..0.999999).prop_map(|(residuals, funcs, expectation)| {
        let bins: Vec<Bin> = residuals
            .iter()
            .enumerate()
            .map(|(i, &r)| Bin { node: NodeId(i), residual: r })
            .collect();
        let functions: Vec<FunctionSlot> = funcs
            .iter()
            .enumerate()
            .map(|(i, &(demand, reliability))| {
                // Eligibility: a deterministic pseudo-random subset.
                let eligible: Vec<usize> = (0..bins.len())
                    .filter(|&b| (i + b) % 3 != 0 || b == i % bins.len())
                    .filter(|&b| bins[b].residual >= demand)
                    .collect();
                let max_secondaries =
                    eligible.iter().map(|&b| (bins[b].residual / demand).floor() as usize).sum();
                FunctionSlot {
                    vnf: VnfTypeId(i),
                    demand,
                    reliability,
                    primary: NodeId(0),
                    eligible_bins: eligible,
                    max_secondaries,
                    existing_backups: 0,
                }
            })
            .collect();
        AugmentationInstance { functions, bins, l: 1, expectation }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exact_dominates_heuristic_and_greedy(inst in arb_instance()) {
        // Compare in the regime above solver precision: cap items whose
        // marginal gain is below 1e-6 (the simplex reduced-cost tolerance is
        // 1e-9, so sub-1e-9 gains are legitimately left on the table), and
        // tighten the B&B gap so "exact" really is exact at that scale.
        let mut cfg = IlpConfig {
            stop_at_expectation: false,
            gain_floor: 1e-6,
            ..Default::default()
        };
        cfg.bnb.gap_tol = 1e-9;
        let exact = ilp::solve(&inst, &cfg).unwrap();
        let heur = heuristic::solve(
            &inst,
            &HeuristicConfig { stop: StopRule::Exhaust, gain_floor: 1e-6, ..Default::default() },
        );
        let greed = greedy::solve(&inst, &Default::default());
        prop_assert!(heur.metrics.reliability <= exact.metrics.reliability * (1.0 + 1e-7) + 1e-9,
            "heuristic {} beat exact {}", heur.metrics.reliability, exact.metrics.reliability);
        // Greedy stops at the expectation and applies no gain floor, so it
        // may pack sub-1e-6-gain slots the floored ILP skips; allow that
        // sliver (<= ~50 slots x 1e-6 in log space).
        if !greed.metrics.met_expectation {
            prop_assert!(
                greed.metrics.reliability <= exact.metrics.reliability * (1.0 + 1e-4) + 1e-9
            );
        }
    }

    #[test]
    fn feasibility_invariants(inst in arb_instance()) {
        let exact = ilp::solve(&inst, &Default::default()).unwrap();
        let heur = heuristic::solve(&inst, &Default::default());
        let greed = greedy::solve(&inst, &Default::default());
        for out in [&exact, &heur, &greed] {
            prop_assert!(out.augmentation.is_capacity_feasible(&inst));
            prop_assert!(out.augmentation.respects_locality(&inst));
            prop_assert!(out.metrics.reliability >= inst.base_reliability() - 1e-12);
            prop_assert!(out.metrics.reliability <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn randomized_respects_locality_and_counts(inst in arb_instance(), seed in 0u64..1000) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let out = randomized::solve(&inst, &Default::default(), &mut rng).unwrap();
        prop_assert!(out.augmentation.respects_locality(&inst));
        // Counts can never exceed the per-function item cap.
        for (i, &m) in out.augmentation.counts().iter().enumerate() {
            prop_assert!(m <= inst.functions[i].max_secondaries);
        }
    }

    #[test]
    fn trim_preserves_expectation_or_is_noop(inst in arb_instance()) {
        // Build a maximal feasible augmentation greedily, then trim.
        let full = heuristic::solve(
            &inst,
            &HeuristicConfig { stop: StopRule::Exhaust, gain_floor: 1e-12, ..Default::default() },
        );
        let mut aug = full.augmentation.clone();
        let before = aug.reliability(&inst);
        let removed = aug.trim_to_expectation(&inst);
        let after = aug.reliability(&inst);
        if before >= inst.expectation {
            prop_assert!(after >= inst.expectation - 1e-12,
                "trim dropped below expectation: {after} < {}", inst.expectation);
        } else {
            prop_assert_eq!(removed, 0, "nothing to trim below expectation");
            prop_assert!((after - before).abs() < 1e-12);
        }
        prop_assert!(aug.is_capacity_feasible(&inst));
    }

    #[test]
    fn monte_carlo_validates_analytic_reliability(inst in arb_instance(), seed in 0u64..100) {
        use rand::{rngs::StdRng, SeedableRng};
        // Solve with the heuristic, then failure-inject the placement.
        let out = heuristic::solve(&inst, &Default::default());
        let analytic = out.metrics.reliability;
        let mut rng = StdRng::seed_from_u64(seed);
        let report =
            relaug::montecarlo::simulate_failures(&inst, &out.augmentation, 20_000, &mut rng);
        let tol = 5.0 * report.survival_stderr().max(1e-3);
        prop_assert!((report.survival_rate - analytic).abs() < tol,
            "MC {} vs analytic {analytic} (tol {tol})", report.survival_rate);
    }

    #[test]
    fn stopped_algorithms_do_not_wildly_overshoot(inst in arb_instance()) {
        let heur = heuristic::solve(&inst, &Default::default());
        if heur.metrics.met_expectation && heur.metrics.total_secondaries > 0 {
            // Removing the cheapest remaining secondary must drop below rho
            // (minimal-overshoot property of the trim).
            let mut probe = heur.augmentation.clone();
            let more = probe.trim_to_expectation(&inst);
            prop_assert_eq!(more, 0, "trim left removable surplus");
        }
    }

    /// Each round's function-level matching — unit rounds and the
    /// `batch_rounds` ablation alike — is exact: matched count and cost equal
    /// the item-level MCMF oracle's on that round's input.
    #[test]
    fn heuristic_rounds_match_the_mcmf_oracle(inst in arb_instance(), batch in any::<bool>()) {
        let mut scratch = SolveScratch::new();
        let mut edges = Vec::new();
        for stop in [StopRule::Expectation, StopRule::Exhaust] {
            let cfg = HeuristicConfig { stop, batch_rounds: batch, ..Default::default() };
            let mut rec = obs::Recorder::noop();
            let rounds = heuristic::solve_rounds(&inst, &cfg, &mut rec, &mut scratch, |round, m| {
                round.item_edges(&mut edges);
                let (n_bins, n_items) = (round.bin_cap.len(), round.costs.len());
                let oracle = if batch {
                    min_cost_max_b_matching(round.bin_cap, n_items, &edges)
                } else {
                    min_cost_max_matching(n_bins, n_items, &edges)
                };
                assert_eq!(m.cardinality(), oracle.cardinality(), "round on {inst:?}");
                assert!(
                    (m.cost() - oracle.cost).abs() <= 1e-9 * oracle.cost.abs().max(1.0),
                    "round cost {} vs oracle {} on {inst:?}",
                    m.cost(),
                    oracle.cost
                );
            });
            let out = heuristic::solve(&inst, &cfg);
            prop_assert_eq!(out.solver, relaug::solution::SolverInfo::Heuristic { matching_rounds: rounds });
        }
    }
}
