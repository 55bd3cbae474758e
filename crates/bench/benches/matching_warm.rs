//! Matching-plane microbenchmark: the heuristic's function-level greedy
//! ([`matching::LadderMatcher`]) against the item-level min-cost-flow
//! reference ([`matching::min_cost_max_matching_into`] on the expanded edge
//! list, which is what every round used to solve).
//!
//! Every round the heuristic solves over fixed instance families is captured
//! through [`relaug::heuristic::solve_rounds`], verified against the
//! reference (equal cardinality, equal cost within 1e-9 relative, identical
//! per-function counts whenever the round's costs are distinct), then both
//! solvers are timed over the captured rounds. Writes `BENCH_matching.json`
//! at the workspace root (the CI artifact) and exits non-zero if any round
//! disagrees or the greedy's speedup over the reference falls below the gate
//! on any family — CI runs this in `QUICK=1` mode as the `matching-smoke`
//! regression gate.
//!
//! Like `solve_alloc`, this is a plain `harness = false` main: the loop being
//! measured is µs-scale and hand-timing over a fixed pass count is both
//! simpler and less noisy than criterion's adaptive sampling here.

use std::hint::black_box;
use std::time::Instant;

use matching::{min_cost_max_matching_into, LadderMatcher, LadderRound, Matching, MatchingScratch};
use mecnet::workload::{generate_scenario, WorkloadConfig};
use obs::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use relaug::heuristic::{self, HeuristicConfig};
use relaug::instance::AugmentationInstance;
use relaug::SolveScratch;
use serde::Value;

const SEED: u64 = 42;
/// Minimum greedy-vs-reference speedup the smoke gate accepts.
const GATE_SPEEDUP: f64 = 1.3;

struct Family {
    name: &'static str,
    instances: Vec<AugmentationInstance>,
    passes: usize,
}

/// An owned copy of one captured round.
struct Round {
    costs: Vec<f64>,
    cost_start: Vec<usize>,
    bins: Vec<usize>,
    bin_start: Vec<usize>,
    bin_cap: Vec<usize>,
}

impl Round {
    fn view(&self) -> LadderRound<'_> {
        LadderRound {
            costs: &self.costs,
            cost_start: &self.cost_start,
            bins: &self.bins,
            bin_start: &self.bin_start,
            bin_cap: &self.bin_cap,
        }
    }
}

fn build_families(quick: bool) -> Vec<Family> {
    let toy_n = if quick { 8 } else { 32 };
    let toy_passes = if quick { 20 } else { 60 };
    let mut rng = StdRng::seed_from_u64(SEED);
    let toy_wl = WorkloadConfig::default();
    let toy: Vec<AugmentationInstance> = (0..toy_n)
        .map(|_| AugmentationInstance::from_scenario(&generate_scenario(&toy_wl, &mut rng), 1))
        .collect();
    let mut families = vec![Family { name: "toy", instances: toy, passes: toy_passes }];
    if !quick {
        // Wider substrate: more cloudlets per round and a stricter target, so
        // the round graphs are larger and rounds more numerous.
        let wide_wl =
            WorkloadConfig { nodes: 400, expectation: 0.99999, ..WorkloadConfig::default() };
        let mut rng = StdRng::seed_from_u64(SEED ^ 0x9E3779B9);
        let wide: Vec<AugmentationInstance> = (0..8)
            .map(|_| AugmentationInstance::from_scenario(&generate_scenario(&wide_wl, &mut rng), 1))
            .collect();
        families.push(Family { name: "wide", instances: wide, passes: 20 });
    }
    families
}

/// Every round the heuristic solves on the family, in solve order.
fn capture_rounds(family: &Family) -> Vec<Round> {
    let mut rounds = Vec::new();
    let mut scratch = SolveScratch::new();
    let cfg = HeuristicConfig::default();
    for inst in &family.instances {
        heuristic::solve_rounds(inst, &cfg, &mut Recorder::noop(), &mut scratch, |r, _| {
            rounds.push(Round {
                costs: r.costs.to_vec(),
                cost_start: r.cost_start.to_vec(),
                bins: r.bins.to_vec(),
                bin_start: r.bin_start.to_vec(),
                bin_cap: r.bin_cap.to_vec(),
            })
        });
    }
    rounds
}

/// Solve `round` with the reference into `out` (edges rebuilt every call,
/// as the heuristic used to).
fn reference(
    round: &LadderRound<'_>,
    edges: &mut Vec<(usize, usize, f64)>,
    scratch: &mut MatchingScratch,
    out: &mut Matching,
) {
    round.item_edges(edges);
    min_cost_max_matching_into(scratch, round.bin_cap.len(), round.costs.len(), edges, out);
}

/// Verify the greedy against the reference on every round; returns the
/// number of rounds with tied costs (per-function counts not compared).
fn verify(family: &Family, rounds: &[Round]) -> Result<usize, String> {
    let mut matcher = LadderMatcher::new();
    let (mut edges, mut scratch) = (Vec::new(), MatchingScratch::new());
    let mut out = Matching { pairs: Vec::new(), cost: 0.0 };
    let mut tied = 0usize;
    for (n, round) in rounds.iter().enumerate() {
        let r = round.view();
        matcher.solve(&r);
        reference(&r, &mut edges, &mut scratch, &mut out);
        let fail = |what: &str| format!("{}: round {n}: {what}", family.name);
        if matcher.cardinality() != out.cardinality() {
            return Err(fail("cardinality differs"));
        }
        if (matcher.cost() - out.cost).abs() > 1e-9 * out.cost.abs().max(1.0) {
            return Err(fail(&format!("cost {} vs {}", matcher.cost(), out.cost)));
        }
        let mut sorted = round.costs.clone();
        sorted.sort_by(f64::total_cmp);
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            tied += 1;
            continue;
        }
        let mut counts = vec![0usize; r.functions()];
        for &(_, item) in &out.pairs {
            counts[round.cost_start.partition_point(|&s| s <= item) - 1] += 1;
        }
        if counts != matcher.matched() {
            return Err(fail("per-function counts differ"));
        }
    }
    Ok(tied)
}

fn main() {
    let quick = std::env::var_os("QUICK").is_some();
    let families = build_families(quick);
    let mut family_values: Vec<Value> = Vec::new();
    let mut gate_failed = false;

    for family in &families {
        let rounds = capture_rounds(family);
        let verified = match verify(family, &rounds) {
            Ok(tied) => {
                println!(
                    "matching_warm[{}]: {} rounds verified against the reference \
                     ({tied} with tied costs: cardinality and cost only)",
                    family.name,
                    rounds.len()
                );
                true
            }
            Err(e) => {
                eprintln!("matching_warm: {e}");
                false
            }
        };
        gate_failed |= !verified;
        let items: usize = rounds.iter().map(|r| r.costs.len()).sum();
        let arcs: usize = rounds.iter().map(|r| r.bins.len()).sum();
        let item_edges: usize = rounds
            .iter()
            .map(|r| {
                let v = r.view();
                (0..v.functions()).map(|p| v.ladder(p).len() * v.usable(p).len()).sum::<usize>()
            })
            .sum();

        // Warm both solvers' buffers, then time the same rounds.
        let mut matcher = LadderMatcher::new();
        let (mut edges, mut scratch) = (Vec::new(), MatchingScratch::new());
        let mut out = Matching { pairs: Vec::new(), cost: 0.0 };
        for round in &rounds {
            matcher.solve(&round.view());
            reference(&round.view(), &mut edges, &mut scratch, &mut out);
        }
        let started = Instant::now();
        for _ in 0..family.passes {
            for round in &rounds {
                matcher.solve(black_box(&round.view()));
                black_box(matcher.cardinality());
            }
        }
        let greedy_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        for _ in 0..family.passes {
            for round in &rounds {
                reference(black_box(&round.view()), &mut edges, &mut scratch, &mut out);
                black_box(out.cardinality());
            }
        }
        let reference_s = started.elapsed().as_secs_f64();

        // The whole heuristic solve on the greedy, for scale.
        let cfg = HeuristicConfig::default();
        let mut solve_scratch = SolveScratch::new();
        let started = Instant::now();
        for _ in 0..family.passes {
            for inst in &family.instances {
                heuristic::solve_in(inst, &cfg, &mut Recorder::noop(), &mut solve_scratch);
            }
        }
        let solves = (family.passes * family.instances.len()) as f64;
        let solve_us = started.elapsed().as_secs_f64() * 1e6 / solves;

        let timed = (family.passes * rounds.len()) as f64;
        let speedup = reference_s / greedy_s;
        let gate_ok = speedup >= GATE_SPEEDUP;
        gate_failed |= !gate_ok;
        println!(
            "matching_warm[{}]: {} instances, {} rounds x {} passes; {items} items, \
             {arcs} (function, bin) arcs, {item_edges} item-level edges",
            family.name,
            family.instances.len(),
            rounds.len(),
            family.passes
        );
        println!(
            "matching_warm[{}]: greedy {:.2} us/round, reference {:.2} us/round: \
             {speedup:.2}x (gate >= {GATE_SPEEDUP:.2}x: {}); heuristic solve {solve_us:.2} us",
            family.name,
            greedy_s * 1e6 / timed,
            reference_s * 1e6 / timed,
            if gate_ok { "OK" } else { "FAILED" },
        );

        family_values.push(Value::Obj(vec![
            ("name".into(), Value::Str(family.name.into())),
            ("instances".into(), Value::U64(family.instances.len() as u64)),
            ("passes".into(), Value::U64(family.passes as u64)),
            ("rounds".into(), Value::U64(rounds.len() as u64)),
            ("items".into(), Value::U64(items as u64)),
            ("arcs".into(), Value::U64(arcs as u64)),
            ("item_edges".into(), Value::U64(item_edges as u64)),
            ("verified".into(), Value::Bool(verified)),
            ("greedy_s".into(), Value::F64(greedy_s)),
            ("reference_s".into(), Value::F64(reference_s)),
            ("greedy_us_per_round".into(), Value::F64(greedy_s * 1e6 / timed)),
            ("reference_us_per_round".into(), Value::F64(reference_s * 1e6 / timed)),
            ("speedup_greedy_vs_reference".into(), Value::F64(speedup)),
            ("heuristic_us_per_solve".into(), Value::F64(solve_us)),
        ]));
    }

    let report = Value::Obj(vec![
        ("benchmark".into(), Value::Str("matching_warm".into())),
        ("quick".into(), Value::Bool(quick)),
        ("seed".into(), Value::U64(SEED)),
        ("gate_speedup".into(), Value::F64(GATE_SPEEDUP)),
        ("families".into(), Value::Arr(family_values)),
    ]);
    let mut json = serde_json::to_string_pretty(&report).expect("report serializes");
    json.push('\n');
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_matching.json");
    std::fs::write(path, &json).expect("write BENCH_matching.json");
    println!("matching_warm: wrote {path}");

    if gate_failed {
        eprintln!("matching_warm: FAIL — verification or speedup gate violated");
        std::process::exit(1);
    }
    println!("matching_warm: OK");
}
