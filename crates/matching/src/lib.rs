//! Bipartite matching substrate for the SFC reliability-augmentation
//! heuristic.
//!
//! The paper's Algorithm 2 repeatedly computes a **minimum-cost maximum
//! matching** between cloudlets and candidate secondary VNF instances ("find a
//! minimum-cost maximum matching `M_l` in `G_l`, by the Hungarian algorithm").
//! Its round graphs have a special shape — an edge's cost depends only on the
//! item, and all items of one function share one bin set — so the heuristic
//! solves them with a function-level matroid greedy; the general solvers stay
//! as its oracles and as independent cross-checks of one another:
//!
//! * [`ladder::LadderMatcher`] — the heuristic's solver: exact min-cost
//!   maximum matching for ladder-structured rounds, unit or capacitated bins,
//!   allocation-free when warm.
//! * [`bipartite::min_cost_max_matching`] — min-cost maximum matching on
//!   sparse edge lists, backed by [`mcmf`] (and [`b_matching`] for
//!   capacitated left nodes).
//! * [`hungarian::solve`] — classical dense-matrix assignment
//!   (Jonker–Volgenant style shortest augmenting paths), used by tests to
//!   confirm the sparse solver on complete instances.
//! * [`hopcroft_karp::max_cardinality`] — cardinality-only matching, used to
//!   verify the "maximum" part of min-cost maximum matching.
//! * [`brute`] — exponential exact search for tiny graphs, the property-test
//!   oracle.

pub mod b_matching;
pub mod bipartite;
pub mod brute;
pub mod hopcroft_karp;
pub mod hungarian;
pub mod ladder;
pub mod mcmf;

pub use b_matching::min_cost_max_b_matching;
pub use bipartite::{min_cost_max_matching, min_cost_max_matching_into, Matching, MatchingScratch};
pub use ladder::{LadderMatcher, LadderRound};
pub use mcmf::{FlowResult, McmfGraph};
