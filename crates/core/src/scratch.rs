//! Reusable solver scratch: the buffers the per-request hot path needs.
//!
//! The streaming pipelines solve one augmentation instance per admitted
//! request; at ~µs solve times, per-request heap allocation is a first-order
//! cost. [`SolveScratch`] owns every working buffer the heuristic and greedy
//! solvers (and the matching layer underneath) touch, so a warm scratch makes
//! the solve loop allocation-free — `crates/bench/benches/solve_alloc.rs`
//! pins "0 heap allocations per request after warm-up" with a counting global
//! allocator.
//!
//! Ownership rules (also in DESIGN.md "Hot path"):
//!
//! * One `SolveScratch` per stream — never shared.
//! * Buffers carry no information across solves: every solver clears or
//!   overwrites each buffer before reading it, so solver output is a pure
//!   function of `(instance, config, RNG state)` regardless of what ran on
//!   the scratch before (`begin_resets_previous_solution` below pins the
//!   reset; the stream's per-seed determinism tests reuse one scratch
//!   across every request).
//! * Growth is high-water-mark only: a buffer grows to the largest instance
//!   seen and stays there.

use crate::instance::AugmentationInstance;
use crate::reliability;
use crate::solution::Augmentation;

/// Chain reliability from per-function secondary counts, without building an
/// [`Augmentation`]. Bit-identical to [`Augmentation::reliability`]: same
/// per-function `function_reliability` terms multiplied in the same order.
pub fn rel_from_counts(inst: &AugmentationInstance, counts: &[usize]) -> f64 {
    debug_assert_eq!(counts.len(), inst.functions.len());
    inst.functions
        .iter()
        .zip(counts)
        .map(|(f, &m)| reliability::function_reliability(f.reliability, m + f.existing_backups))
        .product()
}

/// An [`Augmentation`] under construction, stored in reusable buffers.
///
/// `rows` mirrors `Augmentation::placements` exactly — same find-or-push
/// `add`, same decrement-and-`swap_remove` `remove` — so [`Self::materialize`]
/// produces the identical struct (entry order included) that the legacy
/// allocating path would have built.
#[derive(Debug, Clone, Default)]
pub struct SolutionScratch {
    /// Per-function `(bin, count)` rows; only `rows[..active]` are live.
    rows: Vec<Vec<(usize, usize)>>,
    active: usize,
    /// Per-function secondary counts, maintained incrementally (what
    /// `Augmentation::counts()` would recompute).
    counts: Vec<usize>,
    /// Per-bin load buffer for [`Self::trim_to_expectation`].
    loads: Vec<f64>,
}

impl SolutionScratch {
    /// Start a fresh solution for a chain of `chain_len` functions.
    pub fn begin(&mut self, chain_len: usize) {
        if self.rows.len() < chain_len {
            self.rows.resize_with(chain_len, Vec::new);
        }
        for row in &mut self.rows[..chain_len] {
            row.clear();
        }
        self.active = chain_len;
        self.counts.clear();
        self.counts.resize(chain_len, 0);
    }

    /// Record one more secondary of `func` on `bin` (mirror of
    /// [`Augmentation::add`] with count 1).
    pub fn add(&mut self, func: usize, bin: usize) {
        debug_assert!(func < self.active);
        let row = &mut self.rows[func];
        match row.iter_mut().find(|(b, _)| *b == bin) {
            Some((_, c)) => *c += 1,
            None => row.push((bin, 1)),
        }
        self.counts[func] += 1;
    }

    /// Remove one secondary of `func` from `bin` (mirror of
    /// [`Augmentation::remove`]).
    pub fn remove(&mut self, func: usize, bin: usize) -> bool {
        let row = &mut self.rows[func];
        if let Some(pos) = row.iter().position(|&(b, c)| b == bin && c > 0) {
            row[pos].1 -= 1;
            if row[pos].1 == 0 {
                row.swap_remove(pos);
            }
            self.counts[func] -= 1;
            true
        } else {
            false
        }
    }

    /// Per-function secondary counts of the solution under construction.
    pub fn counts(&self) -> &[usize] {
        &self.counts[..self.active]
    }

    /// Current chain reliability (bit-identical to what
    /// `Augmentation::reliability` would return for the materialized rows).
    pub fn reliability(&self, inst: &AugmentationInstance) -> f64 {
        rel_from_counts(inst, self.counts())
    }

    fn recompute_loads(&mut self, inst: &AugmentationInstance) {
        self.loads.clear();
        self.loads.resize(inst.bins.len(), 0.0);
        for (i, row) in self.rows[..self.active].iter().enumerate() {
            let demand = inst.functions[i].demand;
            for &(b, c) in row {
                self.loads[b] += demand * c as f64;
            }
        }
    }

    /// Mirror of [`Augmentation::trim_to_expectation`]: same removal order
    /// (smallest-gain function whose removal keeps the expectation, freeing
    /// its most-loaded bin), same floating-point expressions, no allocation.
    pub fn trim_to_expectation(&mut self, inst: &AugmentationInstance) -> usize {
        let mut removed = 0;
        loop {
            let rel = self.reliability(inst);
            if rel < inst.expectation {
                break;
            }
            let mut best: Option<(f64, usize)> = None; // (gain, func)
            for (i, &m) in self.counts().iter().enumerate() {
                if m == 0 {
                    continue;
                }
                let r = inst.functions[i].reliability;
                let e = inst.functions[i].existing_backups;
                let gain = reliability::log_gain(r, e + m);
                let new_rel = rel / reliability::function_reliability(r, e + m)
                    * reliability::function_reliability(r, e + m - 1);
                if new_rel >= inst.expectation && best.is_none_or(|(g, _)| gain < g) {
                    best = Some((gain, i));
                }
            }
            let Some((_, func)) = best else { break };
            self.recompute_loads(inst);
            let loads = &self.loads;
            let bin = self.rows[func]
                .iter()
                .max_by(|&&(a, _), &&(b, _)| {
                    let ra = loads[a] / inst.bins[a].residual;
                    let rb = loads[b] / inst.bins[b].residual;
                    ra.total_cmp(&rb)
                })
                .map(|&(b, _)| b)
                .expect("function has placements");
            let ok = self.remove(func, bin);
            debug_assert!(ok);
            removed += 1;
        }
        removed
    }

    /// Copy the rows out into an owned [`Augmentation`] — identical (entry
    /// order included) to the one the allocating path would have built.
    pub fn materialize(&self) -> Augmentation {
        let mut aug = Augmentation::empty(self.active);
        for (i, row) in self.rows[..self.active].iter().enumerate() {
            for &(b, c) in row {
                aug.add(i, b, c);
            }
        }
        aug
    }
}

/// Working buffers of the heuristic's matching loop (the greedy baseline
/// reuses `residual`).
#[derive(Debug, Clone, Default)]
pub struct HeuristicScratch {
    pub cap: Vec<usize>,
    pub next_k: Vec<usize>,
    pub residual: Vec<f64>,
    /// This round's kept placements `(k, active position, bin)`, sorted
    /// into the cheapest-first commit order.
    pub pairs: Vec<(usize, usize, usize)>,
    pub placed_per_func: Vec<usize>,
    /// Delta-maintained usable-bin lists: `fn_id` holds the still-active
    /// functions (ascending), `fn_bins[fn_bins_start[p]..fn_bins_start[p+1]]`
    /// the usable bins of `fn_id[p]`, roomiest first at the start of the
    /// solve (ties by bin index). Built once per request, then filtered in
    /// place each round — residuals only shrink within a solve, so the
    /// filter is identical to recomputing from `eligible_bins`.
    pub fn_id: Vec<usize>,
    pub fn_bins: Vec<usize>,
    pub fn_bins_start: Vec<usize>,
    /// This round's Eq. 3 cost ladders, one per active function:
    /// `ladder[ladder_start[p]..ladder_start[p + 1]]` holds `fn_id[p]`'s
    /// next slots, strictly increasing in `k`.
    pub ladder: Vec<f64>,
    pub ladder_start: Vec<usize>,
    /// Per-bin matching capacity: 1 for the paper's unit rounds, the
    /// `batch_rounds` multiplicity bound otherwise.
    pub bin_cap: Vec<usize>,
    /// `batch_rounds` ablation: per-bin smallest eligible demand.
    pub batch_min_demand: Vec<f64>,
    /// The per-round function-level matching solver.
    pub matcher: matching::LadderMatcher,
}

/// Buffers for the stream commit step (the admitted chain's demand list).
#[derive(Debug, Clone, Default)]
pub struct CommitScratch {
    pub demands: Vec<f64>,
}

/// All scratch state one stream owns.
#[derive(Debug, Clone)]
pub struct SolveScratch {
    pub sol: SolutionScratch,
    pub heur: HeuristicScratch,
    pub commit: CommitScratch,
    /// Revised-simplex workspace (factorization + eta-file buffers) reused by
    /// the exact ILP path so branch-and-bound node re-solves allocate nothing.
    /// [`milp::solve_milp_with_ws`] clears any carried basis at entry, so only
    /// capacity — never state — survives across solves.
    pub lp: milp::LpWorkspace,
}

impl Default for SolveScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl SolveScratch {
    pub fn new() -> Self {
        SolveScratch {
            sol: SolutionScratch::default(),
            heur: HeuristicScratch::default(),
            commit: CommitScratch::default(),
            lp: milp::LpWorkspace::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Bin, FunctionSlot};
    use mecnet::graph::NodeId;
    use mecnet::vnf::VnfTypeId;

    fn tiny_instance() -> AugmentationInstance {
        AugmentationInstance {
            functions: vec![
                FunctionSlot {
                    vnf: VnfTypeId(0),
                    demand: 100.0,
                    reliability: 0.8,
                    primary: NodeId(0),
                    eligible_bins: vec![0, 1],
                    max_secondaries: 5,
                    existing_backups: 0,
                },
                FunctionSlot {
                    vnf: VnfTypeId(1),
                    demand: 200.0,
                    reliability: 0.9,
                    primary: NodeId(1),
                    eligible_bins: vec![1],
                    max_secondaries: 2,
                    existing_backups: 0,
                },
            ],
            bins: vec![
                Bin { node: NodeId(0), residual: 300.0 },
                Bin { node: NodeId(1), residual: 400.0 },
            ],
            l: 1,
            expectation: 0.99,
        }
    }

    #[test]
    fn mirrors_augmentation_add_remove_and_reliability() {
        let inst = tiny_instance();
        let mut aug = Augmentation::empty(2);
        let mut sol = SolutionScratch::default();
        sol.begin(2);
        for (f, b) in [(0, 0), (0, 0), (0, 1), (1, 1)] {
            aug.add(f, b, 1);
            sol.add(f, b);
        }
        assert_eq!(sol.counts(), aug.counts().as_slice());
        assert_eq!(sol.reliability(&inst).to_bits(), aug.reliability(&inst).to_bits());
        assert_eq!(sol.materialize(), aug);
        assert_eq!(sol.remove(0, 0), aug.remove(0, 0));
        assert_eq!(sol.remove(1, 0), aug.remove(1, 0)); // nothing there: false
        assert_eq!(sol.materialize(), aug);
    }

    #[test]
    fn trim_mirror_matches_augmentation_trim() {
        let inst = tiny_instance();
        let mut aug = Augmentation::empty(2);
        let mut sol = SolutionScratch::default();
        sol.begin(2);
        // Overshoot the expectation, then trim both ways.
        for (f, b) in [(0, 0), (0, 0), (0, 1), (1, 1), (1, 1)] {
            aug.add(f, b, 1);
            sol.add(f, b);
        }
        let removed_aug = aug.trim_to_expectation(&inst);
        let removed_sol = sol.trim_to_expectation(&inst);
        assert_eq!(removed_sol, removed_aug);
        assert_eq!(sol.materialize(), aug);
    }

    #[test]
    fn begin_resets_previous_solution() {
        let inst = tiny_instance();
        let mut sol = SolutionScratch::default();
        sol.begin(2);
        sol.add(0, 0);
        sol.add(1, 1);
        sol.begin(1); // shrink: only function 0 remains live
        assert_eq!(sol.counts(), &[0]);
        let aug = sol.materialize();
        assert_eq!(aug.chain_len(), 1);
        assert_eq!(aug.total_secondaries(), 0);
        assert!((rel_from_counts(&inst, &[0, 0]) - 0.72).abs() < 1e-12);
    }
}
