//! The four workloads, their cases, and one measured pass over a case.
//!
//! A run is a sequence of cases: case `i` builds the workload's scenario
//! preset with a seed derived from the run seed and `i`, then processes the
//! workload's request stream over it once, from an empty network, closed
//! loop: one client, one thread, the sequential engine, the next request
//! pulled only after the previous one has its record. Many small cases per
//! run, rather than one large one, keep a run's figures representative of
//! the scenario family instead of one draw of it.
//!
//! Untraced passes call the program's own entry points
//! (`process_stream_seeded_sink`, `sim::run_with_source`). Traced passes
//! either replay the pipeline's public calls with a span around each
//! (`fill`, `flood`) or read the program's own counters (`cached`, `churn`),
//! whose internals no public call reaches.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use bench_harness::{fold_record_hash, RECORD_HASH_SEED};
use expkit::Log2Histogram;
use mecnet::admission::random_placement_capacity_aware;
use mecnet::graph::NodeId;
use obs::{MetricsInterval, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use relaug::heuristic::HeuristicConfig;
use relaug::stream::{
    process_stream_seeded_sink, Algorithm, MetricsMode, RequestRecord, StreamConfig,
};
use relaug::{AugmentationInstance, SolveScratch};
use scen::{BuiltScenario, RequestStream, ScenarioSpec, TimedRequest, TimedRequestStream};
use sim::{Reactive, RequestSource, SimConfig, SloReport};

use crate::clock::{cpu_ns, cpu_s_since};
use crate::samples::Samples;
use crate::trace::{self, Tracer, NO_REQUEST};

/// Locality radius for secondaries in every workload.
pub const L: u32 = 1;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Fill,
    Flood,
    Churn,
    Cached,
}

pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub preset: &'static str,
    /// Requests per case (arrivals offered to the simulator for `churn`).
    pub requests: u64,
    /// Share of every cloudlet's capacity available when a case starts.
    pub capacity_fraction: f64,
    /// Simulated horizon of a `churn` case.
    pub duration: f64,
    pub algorithm: Algorithm,
    pub plan_cache: usize,
    pub about: &'static str,
}

impl Workload {
    pub const NAMES: &'static [&'static str] = &["fill", "flood", "churn", "cached"];

    pub fn by_name(name: &str) -> Option<Workload> {
        let base = Workload {
            kind: Kind::Fill,
            name: "",
            preset: "sagin-1k",
            requests: 0,
            capacity_fraction: 0.25,
            duration: 0.0,
            algorithm: Algorithm::Heuristic(HeuristicConfig::default()),
            plan_cache: 0,
            about: "",
        };
        let w = match name {
            "fill" => Workload {
                name: "fill",
                requests: 600,
                capacity_fraction: 0.125,
                about: "solve-bound: each case fills the network; matching dominates",
                ..base
            },
            "flood" => Workload {
                kind: Kind::Flood,
                name: "flood",
                requests: 20_000,
                algorithm: Algorithm::Greedy(Default::default()),
                about: "reject-bound: ~270 admissions per case, the rest full admission scans",
                ..base
            },
            "churn" => Workload {
                kind: Kind::Churn,
                name: "churn",
                preset: "ba-1k",
                requests: 1_000,
                capacity_fraction: 1.0,
                duration: 100.0,
                about: "lifecycle: departures credit, failures trigger reactive re-augmentation",
                ..base
            },
            "cached" => Workload {
                kind: Kind::Cached,
                name: "cached",
                requests: 20_000,
                plan_cache: 4096,
                about: "the flood stream through the plan cache and its reject watermark gate",
                ..base
            },
            _ => return None,
        };
        Some(w)
    }

    pub fn stream_config(&self, metrics: MetricsMode) -> StreamConfig {
        StreamConfig {
            l: L,
            algorithm: self.algorithm.clone(),
            initial_capacity_fraction: self.capacity_fraction,
            plan_cache: self.plan_cache,
            metrics,
            ..Default::default()
        }
    }

    pub fn sim_config(&self, seed: u64, traced: bool) -> SimConfig {
        SimConfig {
            duration: self.duration,
            mttr: 1.5,
            l: L,
            algorithm: self.algorithm.clone(),
            initial_capacity_fraction: self.capacity_fraction,
            seed,
            // Windowed telemetry keeps solver counters without per-event
            // output.
            metrics_interval: traced.then_some(MetricsInterval::Requests(1 << 40)),
            ..Default::default()
        }
    }

    /// Build case `seed`'s scenario and its neighbourhood index — the
    /// benchmark's set-up. The index is cached inside the network, so the
    /// passes reuse it.
    pub fn build(&self, seed: u64, tracer: Option<(&RefCell<Tracer>, u32)>) -> BuiltScenario {
        let mut spec = ScenarioSpec::preset(self.preset).expect("workload presets exist");
        spec.seed = seed;
        let Some((tracer, case)) = tracer else {
            let built = spec.build();
            built.network.neighborhood_index(L);
            return built;
        };
        let setup = tracer.borrow_mut().open(trace::SETUP, case, NO_REQUEST);
        let t0 = tracer.borrow().now();
        let built = spec.build();
        let t1 = tracer.borrow().now();
        built.network.neighborhood_index(L);
        let t2 = tracer.borrow().now();
        let mut t = tracer.borrow_mut();
        t.record(trace::BUILD, setup, NO_REQUEST, t0, t1);
        t.record(trace::NBHD, setup, NO_REQUEST, t1, t2);
        t.close(setup);
        built
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Scenario seed of case `i` of a run seeded `seed`.
pub fn case_seed(seed: u64, i: u64) -> u64 {
    const CASE_SALT: u64 = 0x4341_5345; // "CASE"
    splitmix64(splitmix64(seed ^ CASE_SALT).wrapping_add(i))
}

// The pipeline's per-request RNG derivation (`relaug::stream`): request
// position `k`'s admission and solve draws each come from their own
// splitmix64-derived stream, so a replay reproduces them exactly.
const ADMIT_SALT: u64 = 0x0041_444d_4954;
const SOLVE_SALT: u64 = 0x0053_4f4c_5645;

fn request_rng(seed: u64, k: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(splitmix64(seed ^ salt).wrapping_add(k)))
}

/// Output-check violations, with the first few described on stderr.
#[derive(Default)]
pub struct Checker {
    pub violations: u64,
}

impl Checker {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations += 1;
            if self.violations <= 5 {
                eprintln!("perfbench: output check failed: {}", what());
            }
        }
    }

    /// Admitted records: `base <= achieved <= 1`, and `met_expectation`
    /// exactly when `achieved >= expectation`. Rejected records carry no
    /// placement.
    pub fn record(&mut self, r: &RequestRecord, k: u64, expectation: f64) {
        self.check(r.id as u64 == k, || format!("record {k} carries id {}", r.id));
        if r.admitted {
            let (base, got) = (r.base_reliability, r.achieved_reliability);
            self.check(base <= got && got <= 1.0, || {
                format!("request {k}: base {base} <= achieved {got} <= 1 violated")
            });
            self.check(r.met_expectation == (got >= expectation), || {
                format!(
                    "request {k}: met_expectation {} but achieved {got} vs rho {expectation}",
                    r.met_expectation
                )
            });
        } else {
            self.check(!r.met_expectation && r.secondaries == 0, || {
                format!("rejected request {k} reports a placement")
            });
        }
    }

    /// Final residual within `[0, capacity]` on every node.
    pub fn residual(&mut self, built: &BuiltScenario, residual: &[f64]) {
        let net = &built.network;
        self.check(residual.len() == net.num_nodes(), || "residual length".to_string());
        for (v, &r) in residual.iter().enumerate() {
            let cap = net.capacity(NodeId(v));
            self.check((0.0..=cap).contains(&r), || {
                format!("node {v}: residual {r} outside [0, {cap}]")
            });
        }
    }
}

/// Per-layer quantities of traced passes: additive sums (merged across
/// cases by addition), the samples behind per-layer percentiles, and the
/// stage table's self times.
#[derive(Default)]
pub struct Layers {
    pub sums: BTreeMap<&'static str, f64>,
    pub reject_ns: Samples,
    pub solve_ns: Samples,
    /// Solve-time histogram where only the program's log2 histogram exists.
    pub solve_hist: Option<Log2Histogram>,
    pub stages: Vec<(&'static str, f64)>,
}

impl Layers {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    pub fn get(&self, key: &str) -> Option<f64> {
        self.sums.get(key).copied()
    }

    pub fn merge(&mut self, other: Layers) {
        for (k, v) in other.sums {
            self.add(k, v);
        }
        self.reject_ns.merge(&other.reject_ns);
        self.solve_ns.merge(&other.solve_ns);
        if let Some(h) = other.solve_hist {
            self.solve_hist.get_or_insert_with(Log2Histogram::new).merge(&h);
        }
        for (name, s) in other.stages {
            match self.stages.iter_mut().find(|(n, _)| *n == name) {
                Some((_, acc)) => *acc += s,
                None => self.stages.push((name, s)),
            }
        }
    }

    /// Heuristic and matching counters from a solver recorder.
    fn solver_counters(&mut self, rec: &Recorder) {
        let c = |name: &str| rec.counter(name) as f64;
        self.add("heuristic.rounds", c("heuristic.rounds"));
        self.add("heuristic.committed", c("heuristic.committed"));
        self.add("heuristic.trimmed", c("heuristic.trimmed_secondaries"));
        self.add(
            "matching.rounds",
            c("matching.rounds.engine")
                + c("matching.rounds.fallback")
                + c("matching.rounds.rebuild"),
        );
        self.add("matching.passes", c("matching.passes"));
        self.add("matching.relaxations", c("matching.relaxations"));
        self.add("matching.edges_materialized", c("matching.edges.materialized"));
        self.add("matching.fallback_rounds", c("matching.rounds.fallback"));
    }
}

/// What one pass over one case measured.
#[derive(Default)]
pub struct Pass {
    pub wall_s: f64,
    /// The pass's CPU time (see [`crate::clock`]): the base of throughputs.
    pub cpu_s: f64,
    pub requests: u64,
    pub admitted: u64,
    /// Fresh augmentation solves plus re-augmentations.
    pub solves: u64,
    /// Per-request latency (ns) of admitted and rejected requests.
    pub admit_ns: Samples,
    pub reject_ns: Samples,
    /// Sum of achieved (analytic, for `churn`) reliability over admitted
    /// requests, and how many of them met their expectation.
    pub sum_reliability: f64,
    pub met: u64,
    /// Availability as a weighted mean: `sum(a * w) / sum(w)`.
    pub availability_num: f64,
    pub availability_den: f64,
    /// Order-sensitive hash of the pass's output (record hash for streams,
    /// SLO-report hash for `churn`).
    pub hash: u64,
    pub layers: Layers,
}

impl Pass {
    /// An empty pass of a stream workload, ready to fold records into.
    fn stream() -> Pass {
        Pass { hash: RECORD_HASH_SEED, ..Default::default() }
    }

    /// Fold in request `r`'s record and its latency.
    fn record(&mut self, r: &RequestRecord, latency_ns: u64) {
        self.hash = fold_record_hash(self.hash, r);
        self.requests += 1;
        if r.admitted {
            self.admitted += 1;
            self.met += r.met_expectation as u64;
            self.sum_reliability += r.achieved_reliability;
            self.admit_ns.push(latency_ns);
        } else {
            self.reject_ns.push(latency_ns);
        }
    }

    fn finish_stream(&mut self, wall_s: f64, cpu_s: f64) {
        self.wall_s = wall_s;
        self.cpu_s = cpu_s;
        // No failures are injected into the admit-only streams: every
        // admitted request is served for its whole life.
        self.availability_num = self.admitted as f64;
        self.availability_den = self.admitted as f64;
    }
}

/// Shared between the timing request iterator and the record sink: when
/// request `k` was handed to the engine, and its expectation.
struct PullClock {
    at: Cell<Instant>,
    expectation: Cell<f64>,
    pulled: Cell<u64>,
}

/// The scenario request stream, stamped at each pull; in traced passes the
/// generator call itself is recorded as a `scen.gen` span.
struct TimedPulls<'a> {
    inner: RequestStream,
    clock: &'a PullClock,
    tracer: Option<(&'a RefCell<Tracer>, u32)>,
}

impl Iterator for TimedPulls<'_> {
    type Item = mecnet::request::SfcRequest;

    fn next(&mut self) -> Option<Self::Item> {
        let req = match self.tracer {
            None => self.inner.next()?,
            Some((tracer, parent)) => {
                let t0 = tracer.borrow().now();
                let req = self.inner.next()?;
                let t1 = tracer.borrow().now();
                let k = self.clock.pulled.get() as u32;
                tracer.borrow_mut().record(trace::GEN, parent, k, t0, t1);
                req
            }
        };
        self.clock.expectation.set(req.expectation);
        self.clock.pulled.set(self.clock.pulled.get() + 1);
        self.clock.at.set(Instant::now());
        Some(req)
    }
}

/// One pass of a stream workload through the program's sequential seeded
/// pipeline. `tracer` (the `cached` traced pass) adds generator spans, one
/// span per request, windowed pipeline metrics and solver counters.
pub fn pipeline_pass(
    w: &Workload,
    built: &BuiltScenario,
    seed: u64,
    chk: &mut Checker,
    tracer: Option<(&RefCell<Tracer>, u32)>,
) -> Pass {
    let traced = tracer.is_some();
    let metrics = if traced {
        MetricsMode::Windowed(MetricsInterval::Requests(1 << 40))
    } else {
        MetricsMode::Full
    };
    let cfg = w.stream_config(metrics);
    let mut rec = if traced { Recorder::counters_only() } else { Recorder::noop() };
    let pass_span = tracer.map(|(t, case)| (t, t.borrow_mut().open(trace::PASS, case, NO_REQUEST)));
    let clock = PullClock {
        at: Cell::new(Instant::now()),
        expectation: Cell::new(0.0),
        pulled: Cell::new(0),
    };
    let pulls = TimedPulls {
        inner: RequestStream::new(built, w.requests),
        clock: &clock,
        tracer: pass_span,
    };
    let mut pass = Pass::stream();
    let (started, cpu0) = (Instant::now(), cpu_ns());
    let (residual, ob) = process_stream_seeded_sink(
        &built.network,
        &built.catalog,
        pulls,
        &cfg,
        seed,
        &mut rec,
        &mut |r| {
            let ns = clock.at.get().elapsed().as_nanos() as u64;
            let k = clock.pulled.get() - 1;
            if let Some((tracer, pass)) = pass_span {
                let mut t = tracer.borrow_mut();
                let end = t.now();
                t.record(trace::REQUEST, pass, k as u32, end.saturating_sub(ns), end);
            }
            chk.record(&r, k, clock.expectation.get());
            pass.record(&r, ns);
        },
    );
    let (wall_s, cpu_s) = (started.elapsed().as_secs_f64(), cpu_s_since(cpu0));
    pass.finish_stream(wall_s, cpu_s);
    chk.residual(built, &residual);
    let p = &ob.pipeline;
    let (requests, admitted) = (p.counter("requests"), p.counter("admitted"));
    let rejected = p.counter("rejected.no_primary_placement");
    chk.check(requests == w.requests && requests == admitted + rejected, || {
        format!("{requests} requests != admitted {admitted} + rejected {rejected}")
    });
    chk.check(pass.requests == w.requests, || format!("{} records", pass.requests));
    pass.solves = p.counter("solves");
    let Some((tracer, span)) = pass_span else { return pass };
    tracer.borrow_mut().close(span);
    let gen_s = tracer.borrow().total_s(trace::GEN, span);
    let hist_s = |name: &str| p.hist(name).map_or(0.0, |h| h.sum() as f64 * 1e-9);
    let (solve_s, reserve_s, commit_s) =
        (hist_s("solve_ns"), hist_s("reserve_ns"), hist_s("commit_ns"));
    let self_s = wall_s - gen_s - solve_s - reserve_s - commit_s;
    let l = &mut pass.layers;
    l.add("scen.gen_s", gen_s);
    // Every plan-cache miss runs admission on the fresh path.
    l.add("admission.calls", p.counter("plancache.misses") as f64);
    l.add("solve.calls", pass.solves as f64);
    l.add("solve.s", solve_s);
    l.solve_hist = p.hist("solve_ns").cloned();
    l.add("ledger.reserve_s", reserve_s);
    l.add("ledger.commit_s", commit_s);
    l.add("ledger.reserve_failures", p.counter("commit.overcommit_clamped") as f64);
    l.solver_counters(&rec);
    if let Some(pc) = &ob.plan_cache {
        l.add("plancache.hits", pc.hits as f64);
        l.add("plancache.epoch_skips", pc.epoch_skips as f64);
        l.add("plancache.reject_hits", pc.reject_hits as f64);
        l.add("plancache.misses", pc.misses as f64);
        l.add("plancache.validation_failures", pc.validation_failures as f64);
    }
    l.add("stream.self_s", self_s);
    l.stages = vec![
        ("scen.gen", gen_s),
        ("relaug.solve", solve_s),
        ("mecnet.ledger (reserve+commit)", reserve_s + commit_s),
        ("stream.self (admission, instance, plancache: not separable)", self_s),
    ];
    pass
}

/// Traced pass of `fill` / `flood`: the same public calls in the same order
/// as the sequential seeded pipeline without a plan cache — admission,
/// localized instance build, solve, two-phase reserve/commit — each wrapped
/// in a span. Its record hash must equal the pipeline's.
pub fn replay_pass(
    w: &Workload,
    built: &BuiltScenario,
    seed: u64,
    chk: &mut Checker,
    tracer: &RefCell<Tracer>,
    case_span: u32,
) -> Pass {
    let (net, catalog) = (&built.network, &built.catalog);
    let nbhd = net.neighborhood_index(L);
    let mut residual = net.residual_capacities(w.capacity_fraction);
    let mut scratch = SolveScratch::new();
    let mut rec = Recorder::counters_only();
    let mut stream = RequestStream::new(built, w.requests);
    let mut out = Pass::stream();
    let mut demands: Vec<f64> = Vec::new();
    let (mut reserve_failures, mut bins) = (0u64, 0u64);
    let mut t = tracer.borrow_mut();
    let pass = t.open(trace::PASS, case_span, NO_REQUEST);
    let (started, cpu0) = (Instant::now(), cpu_ns());
    for k in 0.. {
        let g0 = t.now();
        let Some(req) = stream.next() else { break };
        let g1 = t.now();
        let id = k as u32;
        t.record(trace::GEN, pass, id, g0, g1);
        demands.clear();
        demands.extend(req.sfc.iter().map(|&f| catalog.demand(f)));
        let mut admit_rng = request_rng(seed, k, ADMIT_SALT);
        let placement =
            random_placement_capacity_aware(net, &req, &demands, &mut residual, &mut admit_rng);
        let a1 = t.now();
        t.record(trace::ADMISSION, pass, id, g1, a1);
        let Some(placement) = placement else {
            let r = RequestRecord {
                id: req.id,
                admitted: false,
                base_reliability: 0.0,
                achieved_reliability: 0.0,
                met_expectation: false,
                secondaries: 0,
            };
            chk.record(&r, k, req.expectation);
            out.record(&r, a1 - g1);
            continue;
        };
        let inst = AugmentationInstance::new_localized_with_index(
            net,
            catalog,
            &req,
            &placement.locations,
            &residual,
            &nbhd,
        );
        let i1 = t.now();
        t.record(trace::INSTANCE, pass, id, a1, i1);
        bins += inst.bins.len() as u64;
        let mut solve_rng = request_rng(seed, k, SOLVE_SALT);
        let outcome = w.algorithm.solve_scratch(&inst, &mut solve_rng, &mut rec, &mut scratch);
        let s1 = t.now();
        t.record(trace::SOLVE, pass, id, i1, s1);
        let debits: Vec<(NodeId, f64)> = outcome
            .augmentation
            .bin_loads(&inst)
            .iter()
            .enumerate()
            .filter(|&(_, &load)| load > 0.0)
            .map(|(b, &load)| (inst.bins[b].node, load))
            .collect();
        let r0 = t.now();
        let reserved = net.try_reserve(&mut residual, &debits);
        let r1 = t.now();
        t.record(trace::RESERVE, pass, id, r0, r1);
        match reserved {
            Ok(mut reservation) => {
                net.commit(&mut reservation).expect("fresh reservation commits");
                let c1 = t.now();
                t.record(trace::COMMIT, pass, id, r1, c1);
            }
            Err(_) => {
                // The pipeline's overcommit fallback: clamp at zero.
                reserve_failures += 1;
                for &(node, load) in &debits {
                    residual[node.index()] = (residual[node.index()] - load).max(0.0);
                }
            }
        }
        let latency = t.now() - g1;
        let m = &outcome.metrics;
        let r = RequestRecord {
            id: req.id,
            admitted: true,
            base_reliability: m.base_reliability,
            achieved_reliability: m.reliability,
            met_expectation: m.met_expectation,
            secondaries: m.total_secondaries,
        };
        chk.record(&r, k, req.expectation);
        out.record(&r, latency);
    }
    let (wall_s, cpu_s) = (started.elapsed().as_secs_f64(), cpu_s_since(cpu0));
    t.close(pass);
    chk.residual(built, &residual);
    out.finish_stream(wall_s, cpu_s);
    chk.check(out.requests == w.requests, || format!("{} records", out.requests));
    let layer = |name| t.total_s(name, pass);
    let (gen_s, adm_s, inst_s, solve_s) =
        (layer(trace::GEN), layer(trace::ADMISSION), layer(trace::INSTANCE), layer(trace::SOLVE));
    let (reserve_s, commit_s) = (layer(trace::RESERVE), layer(trace::COMMIT));
    // A rejected request's latency is its admission call.
    let reject_s = out.reject_ns.sum() as f64 * 1e-9;
    let self_s = wall_s - gen_s - adm_s - inst_s - solve_s - reserve_s - commit_s;
    let mut solve_ns = Samples::default();
    t.durations(trace::SOLVE, pass).for_each(|ns| solve_ns.push(ns));
    out.solves = solve_ns.len();
    let l = &mut out.layers;
    l.add("scen.gen_s", gen_s);
    l.add("admission.calls", out.requests as f64);
    l.add("admission.reject_s", reject_s);
    l.add("instance.s", inst_s);
    l.add("instance.bins", bins as f64);
    l.add("solve.calls", out.solves as f64);
    l.add("solve.s", solve_s);
    l.add("ledger.reserve_s", reserve_s);
    l.add("ledger.commit_s", commit_s);
    l.add("ledger.reserve_failures", reserve_failures as f64);
    l.solver_counters(&rec);
    l.add("stream.self_s", self_s);
    l.reject_ns.merge(&out.reject_ns);
    l.solve_ns = solve_ns;
    l.stages = vec![
        ("scen.gen", gen_s),
        ("mecnet.admission (admitted)", adm_s - reject_s),
        ("mecnet.admission (rejected)", reject_s),
        ("relaug.instance", inst_s),
        ("relaug.solve (incl. matching)", solve_s),
        ("mecnet.ledger (reserve+commit)", reserve_s + commit_s),
        ("stream.self (replay loop)", self_s),
    ];
    out
}

/// The scenario's timed stream as the simulator's request source (arrival
/// gaps from consecutive timestamps, the spec TTL as holding time), stamped
/// on the CPU clock each time the engine takes an arrival.
struct TimedSource<'a> {
    stream: TimedRequestStream,
    pending: Option<TimedRequest>,
    /// [`cpu_ns`] readings.
    pulls: Vec<u64>,
    tracer: Option<(&'a RefCell<Tracer>, u32)>,
}

impl TimedSource<'_> {
    fn pull(&mut self, id: u32) -> Option<TimedRequest> {
        let Some((tracer, parent)) = self.tracer else { return self.stream.next() };
        let t0 = tracer.borrow().now();
        let next = self.stream.next();
        let t1 = tracer.borrow().now();
        tracer.borrow_mut().record(trace::GEN, parent, id, t0, t1);
        next
    }
}

impl RequestSource for TimedSource<'_> {
    fn first_gap(&mut self, _rng: &mut StdRng) -> f64 {
        self.pending = self.pull(0);
        self.pending.as_ref().map_or(f64::INFINITY, |t| t.arrival)
    }

    fn arrival(
        &mut self,
        id: usize,
        _catalog: &mecnet::vnf::VnfCatalog,
        _num_nodes: usize,
        _rng: &mut StdRng,
    ) -> (mecnet::request::SfcRequest, f64, f64) {
        let cur = self.pending.take().expect("arrival fired without a pending request");
        self.pending = self.pull(id as u32 + 1);
        let gap = self.pending.as_ref().map_or(f64::INFINITY, |n| n.arrival - cur.arrival);
        let mut req = cur.request;
        req.id = id;
        self.pulls.push(cpu_ns());
        (req, cur.ttl, gap)
    }
}

/// Order-sensitive FNV-1a hash of the SLO report's JSON.
fn report_hash(report: &SloReport) -> u64 {
    report
        .to_json()
        .bytes()
        .fold(RECORD_HASH_SEED, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// One pass of `churn`: the failure/recovery simulator with the reactive
/// policy over the scenario's timed stream. A request's latency is the
/// engine's step from taking arrival `k` to taking arrival `k + 1` (or the
/// end of the run): admission and augmentation plus the departures,
/// failures and repairs processed in between — the only boundary the
/// simulator's public API exposes.
pub fn sim_pass(
    w: &Workload,
    built: &BuiltScenario,
    seed: u64,
    chk: &mut Checker,
    tracer: Option<(&RefCell<Tracer>, u32)>,
) -> Pass {
    let cfg = w.sim_config(seed, tracer.is_some());
    let mut rec = if tracer.is_some() { Recorder::counters_only() } else { Recorder::noop() };
    let run_span = tracer.map(|(t, case)| {
        let mut t_mut = t.borrow_mut();
        let pass = t_mut.open(trace::PASS, case, NO_REQUEST);
        let run = t_mut.open(trace::SIM_RUN, pass, NO_REQUEST);
        (t, pass, run)
    });
    let mut source = TimedSource {
        stream: RequestStream::new(built, w.requests).timed(),
        pending: None,
        pulls: Vec::with_capacity(w.requests as usize),
        tracer: run_span.map(|(t, _, run)| (t, run)),
    };
    let (started, cpu0) = (Instant::now(), cpu_ns());
    let report = sim::run_with_source_traced(
        &built.network,
        &built.catalog,
        &cfg,
        &Reactive,
        &mut source,
        &mut rec,
    );
    let (ended, cpu_end) = (Instant::now(), cpu_ns());
    let wall_s = (ended - started).as_secs_f64();
    let pulls = source.pulls;
    chk.check(report.arrivals == pulls.len(), || {
        format!("{} arrivals reported, {} taken", report.arrivals, pulls.len())
    });
    chk.check(report.arrivals == report.admitted + report.rejected, || {
        format!(
            "arrivals {} != admitted {} + rejected {}",
            report.arrivals, report.admitted, report.rejected
        )
    });
    chk.check((0.0..=1.0).contains(&report.mean_availability), || {
        format!("availability {} outside [0, 1]", report.mean_availability)
    });
    let mut pass = Pass {
        wall_s,
        requests: report.arrivals as u64,
        admitted: report.admitted as u64,
        cpu_s: cpu_end.saturating_sub(cpu0) as f64 * 1e-9,
        solves: (report.admitted + report.reaugmentations) as u64,
        hash: report_hash(&report),
        ..Default::default()
    };
    for (k, r) in report.per_request.iter().enumerate() {
        if let Some(&at) = pulls.get(k) {
            let ns = pulls.get(k + 1).copied().unwrap_or(cpu_end).saturating_sub(at);
            if r.admitted {
                pass.admit_ns.push(ns);
            } else {
                pass.reject_ns.push(ns);
            }
        }
        chk.check(r.id == k, || format!("report entry {k} carries id {}", r.id));
        chk.check((0.0..=1.0).contains(&r.availability), || {
            format!("request {k}: availability {} outside [0, 1]", r.availability)
        });
        if r.admitted {
            let (base, got) = (r.base_reliability, r.analytic_reliability);
            chk.check(base <= got && got <= 1.0, || {
                format!("request {k}: base {base} <= analytic {got} <= 1 violated")
            });
            pass.sum_reliability += got;
            pass.met += r.met_slo as u64;
            pass.availability_num += r.availability * r.active_time;
            pass.availability_den += r.active_time;
        }
        chk.check(r.met_slo == (r.admitted && r.availability >= r.expectation), || {
            format!(
                "request {k}: met_slo {} vs availability {} and rho {}",
                r.met_slo, r.availability, r.expectation
            )
        });
    }
    let Some((tracer, pass_span, run)) = run_span else { return pass };
    {
        let mut t = tracer.borrow_mut();
        t.close(run);
        t.close(pass_span);
    }
    let gen_s = tracer.borrow().total_s(trace::GEN, run);
    let summary = rec.summary();
    let (solve_s, repair_s) = (summary.timing_s("sim.solve"), summary.timing_s("sim.repair_solve"));
    let events: u64 =
        ["sim.admitted", "sim.rejected", "sim.departures", "sim.failures", "sim.repairs"]
            .iter()
            .map(|&n| rec.counter(n))
            .sum();
    let self_s = wall_s - gen_s - solve_s - repair_s;
    let l = &mut pass.layers;
    l.add("scen.gen_s", gen_s);
    l.add("admission.calls", report.arrivals as f64);
    l.add("solve.calls", pass.solves as f64);
    l.add("solve.s", solve_s + repair_s);
    l.solver_counters(&rec);
    l.add("sim.solve_s", solve_s);
    l.add("sim.repair_solve_s", repair_s);
    l.add("sim.events", events as f64);
    l.add("sim.self_s", self_s);
    l.add("sim.reaugmentations", report.reaugmentations as f64);
    l.add("stream.self_s", self_s);
    l.stages = vec![
        ("scen.gen", gen_s),
        ("relaug.solve at admission (sim.solve)", solve_s),
        ("relaug.solve re-augmentation (sim.repair_solve)", repair_s),
        ("sim.self (admission, events, ledger: not separable)", self_s),
    ];
    pass
}
