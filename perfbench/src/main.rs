//! End-to-end and per-layer benchmark of the admission + reliability
//! augmentation system.
//!
//! Usage: `perfbench --workload fill|flood|churn|cached --seed N --seconds S
//! --trace 0|1` (normally through `python3 perfbench/run.py`, which builds
//! this package first).
//!
//! One process runs one workload closed-loop: one client, one thread, the
//! sequential engine, no think time. The run is a sequence of cases (see
//! [`workload`]); case `i` derives its scenario seed — which also seeds the
//! engine — from `--seed` and `i`. Each case is set up (scenario build plus
//! neighbourhood index, timed for `setup_s`) and then processed once. Cases
//! continue until `--seconds` have elapsed; every metric but `peak_rss_mib`
//! covers all of them.
//! Passes and set-up are timed on the process's CPU clock ([`clock`]), and
//! throughputs are medians of the per-case rates.
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off.
//! `--trace 1` follows every untraced pass with a traced pass over the same
//! case, checks that both produce the same output hash, writes the spans to
//! `.perfbench_trace/<workload>.tsv` and prints the per-layer metrics (per
//! case) and a stage table (self time and share of wall time per layer).
//!
//! Every pass checks the program's outputs; each violated check counts as a
//! failed operation. The last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod clock;
mod samples;
mod trace;
mod workload;

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use samples::Samples;
use scen::BuiltScenario;
use trace::{Tracer, NO_PARENT, NO_REQUEST};
use workload::{case_seed, Checker, Kind, Layers, Pass, Workload};

/// Cases every run completes, however short `--seconds` is.
const MIN_CASES: usize = 2;

/// `peak_rss_mib` is the high-water mark after this many cases (or after
/// all of them, if the run is shorter): a fixed amount of work, so a faster
/// program, which fits more cases into a run, is not charged for the heap
/// growth of the extra ones.
const RSS_CASES: usize = 4;

/// Per-layer metrics, in print order, with their units. Layers a workload
/// bypasses, or whose internals no public call reaches on that workload,
/// report 0 and are marked in the table.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("scen.gen_s", "s"),
    ("admission.calls", "count"),
    ("admission.reject_s", "s"),
    ("admission.reject_ns_p50", "ns"),
    ("instance.s", "s"),
    ("instance.bins_mean", "count"),
    ("solve.calls", "count"),
    ("solve.s", "s"),
    ("solve.p99_us", "us"),
    ("heuristic.rounds", "count"),
    ("heuristic.trim_ratio", "ratio"),
    ("matching.rounds", "count"),
    ("matching.passes", "count"),
    ("matching.relaxations", "count"),
    ("matching.edges_materialized", "count"),
    ("matching.fallback_rounds", "count"),
    ("ledger.reserve_s", "s"),
    ("ledger.commit_s", "s"),
    ("ledger.reserve_failures", "count"),
    ("plancache.hits", "count"),
    ("plancache.epoch_skips", "count"),
    ("plancache.reject_hits", "count"),
    ("plancache.misses", "count"),
    ("plancache.validation_failures", "count"),
    ("plancache.plan_hit_ratio", "ratio"),
    ("sim.solve_s", "s"),
    ("sim.repair_solve_s", "s"),
    ("sim.events", "count"),
    ("sim.self_s", "s"),
    ("sim.reaugmentations", "count"),
    ("stream.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    format!("unknown workload {value} (one of {})", Workload::NAMES.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if (1..=600).contains(&s) => seconds = Some(s),
                _ => return Err(format!("bad --seconds {value} (1..=600)")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("bad --trace {value} (0 or 1)")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Run one pass, counting a panic as a failed operation.
fn guarded(chk: &mut Checker, f: impl FnOnce(&mut Checker) -> Pass) -> Option<Pass> {
    match catch_unwind(AssertUnwindSafe(|| f(chk))) {
        Ok(pass) => Some(pass),
        Err(_) => {
            chk.check(false, || "pass panicked".to_string());
            None
        }
    }
}

fn untraced_pass(
    w: &Workload,
    built: &BuiltScenario,
    seed: u64,
    chk: &mut Checker,
) -> Option<Pass> {
    guarded(chk, |chk| match w.kind {
        Kind::Churn => workload::sim_pass(w, built, seed, chk, None),
        _ => workload::pipeline_pass(w, built, seed, chk, None),
    })
}

fn traced_pass(
    w: &Workload,
    built: &BuiltScenario,
    seed: u64,
    chk: &mut Checker,
    tracer: &RefCell<Tracer>,
    case: u32,
) -> Option<Pass> {
    guarded(chk, |chk| match w.kind {
        Kind::Fill | Kind::Flood => workload::replay_pass(w, built, seed, chk, tracer, case),
        Kind::Cached => workload::pipeline_pass(w, built, seed, chk, Some((tracer, case))),
        Kind::Churn => workload::sim_pass(w, built, seed, chk, Some((tracer, case))),
    })
}

/// A run's passes folded together.
#[derive(Default)]
struct Totals {
    cases: u64,
    wall_s: f64,
    requests: u64,
    admitted: u64,
    solves: u64,
    admit_ns: Samples,
    reject_ns: Samples,
    met: u64,
    reliability: f64,
    availability: (f64, f64),
    /// Summed pass CPU time (see [`clock`]).
    cpu_s: f64,
    /// Per case: requests, admitted and solves per CPU second of its pass.
    rates: Vec<[f64; 3]>,
    /// Order-sensitive FNV-1a fold of the cases' output hashes.
    hash: u64,
    layers: Layers,
}

impl Totals {
    fn new() -> Totals {
        Totals { hash: bench_harness::RECORD_HASH_SEED, ..Default::default() }
    }

    fn add(&mut self, p: Pass) {
        self.cases += 1;
        self.wall_s += p.wall_s;
        self.cpu_s += p.cpu_s;
        let per_s = |n: u64| n as f64 / p.cpu_s;
        self.rates.push([per_s(p.requests), per_s(p.admitted), per_s(p.solves)]);
        self.requests += p.requests;
        self.admitted += p.admitted;
        self.solves += p.solves;
        self.admit_ns.merge(&p.admit_ns);
        self.reject_ns.merge(&p.reject_ns);
        self.met += p.met;
        self.reliability += p.sum_reliability;
        self.availability.0 += p.availability_num;
        self.availability.1 += p.availability_den;
        for byte in p.hash.to_le_bytes() {
            self.hash = (self.hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.layers.merge(p.layers);
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn peak_rss_mib() -> f64 {
    expkit::mem::peak_rss_bytes().unwrap_or(0) as f64 / (1u64 << 20) as f64
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    println!("  {:<30} {:>18} {:<6} note", "metric", "value", "unit");
    for m in metrics {
        println!("  {:<30} {:>18.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
}

fn end_to_end(
    w: &Workload,
    setup_s: &[f64],
    rss: (f64, usize),
    t: &mut Totals,
    nproc: usize,
) -> Vec<Metric> {
    // Throughputs are medians of the per-case rates over CPU time, so time
    // stolen by the host is left out and a burst of other contention moves
    // only the cases it hits.
    let per_s = |i: usize| median(t.rates.iter().map(|r| r[i]).collect());
    let (na, nr) = (t.admit_ns.len(), t.reject_ns.len());
    let us = |sample: &mut Samples, q| sample.quantile(q).unwrap_or(0.0) * 1e-3;
    let admit_p50 = us(&mut t.admit_ns, 0.5);
    let admit_p99 = us(&mut t.admit_ns, 0.99);
    let reject_p50 = us(&mut t.reject_ns, 0.5);
    // p95, not p99: on `cached` ~1-4% of rejects (by seed) take a full
    // admission scan (~10 us) and the rest the watermark gate (~0.1 us), so a
    // p99 jumps a hundredfold between runs.
    let reject_p95 = us(&mut t.reject_ns, 0.95);
    let thr = format!(
        "median of {} per-case rates; admitted {} of {} requests; CPU {:.3} s, wall {:.3} s; \
         nproc {nproc}",
        t.cases, t.admitted, t.requests, t.cpu_s, t.wall_s
    );
    let step =
        if w.kind == Kind::Churn { ", arrival-to-arrival engine step, CPU clock" } else { "" };
    let adm = t.admitted.max(1) as f64;
    let m = |name, value, unit, note: String| Metric { name, value, unit, note };
    vec![
        m(
            "setup_s",
            median(setup_s.to_vec()),
            "s",
            format!("median of {} scenario builds + neighbourhood index, CPU clock", setup_s.len()),
        ),
        m("requests_per_s", per_s(0), "1/s", thr.clone()),
        m("admitted_per_s", per_s(1), "1/s", thr.clone()),
        m("solves_per_s", per_s(2), "1/s", format!("{} solves; {thr}", t.solves)),
        m("admit_p50_us", admit_p50, "us", format!("n = {na}{step}")),
        m("admit_p99_us", admit_p99, "us", format!("n = {na}{step}")),
        m("reject_p50_us", reject_p50, "us", format!("n = {nr}{step}")),
        m("reject_p95_us", reject_p95, "us", format!("n = {nr}{step}")),
        m(
            "admit_ratio",
            t.admitted as f64 / t.requests.max(1) as f64,
            "ratio",
            format!("{} / {}", t.admitted, t.requests),
        ),
        m(
            "mean_reliability",
            t.reliability / adm,
            "ratio",
            "mean achieved reliability of admitted requests".into(),
        ),
        m(
            "slo_met_ratio",
            t.met as f64 / adm,
            "ratio",
            "admitted requests meeting their expectation".into(),
        ),
        m(
            "availability",
            t.availability.0 / t.availability.1.max(f64::MIN_POSITIVE),
            "ratio",
            if w.kind == Kind::Churn {
                "time-weighted measured availability of admitted requests".into()
            } else {
                "no failures injected: admitted requests are served for their whole life".into()
            },
        ),
        m("peak_rss_mib", rss.0, "MiB", format!("process high-water mark after {} cases", rss.1)),
    ]
}

/// Per-layer metrics: additive quantities per traced case, percentiles over
/// the pooled samples, ratios of the pooled counts.
fn per_layer(w: &Workload, untraced: &Totals, traced: &mut Totals) -> Vec<Metric> {
    let cases = traced.cases.max(1) as f64;
    let overhead = traced.wall_s / untraced.wall_s;
    let l = &mut traced.layers;
    let ratio = |num: Option<f64>, den: Option<f64>| {
        num.zip(den).map(|(n, d)| if d > 0.0 { n / d } else { 0.0 })
    };
    let reject_p50 = l.reject_ns.quantile(0.5);
    let solve_p99_us = l
        .solve_ns
        .quantile(0.99)
        .or_else(|| l.solve_hist.as_ref().and_then(|h| h.quantile(0.99)).map(|ns| ns as f64))
        .map(|ns| ns * 1e-3);
    let plan_probes = l.get("plancache.hits").zip(l.get("plancache.misses")).map(|(h, m)| h + m);
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "admission.reject_ns_p50" => reject_p50,
                "instance.bins_mean" => ratio(l.get("instance.bins"), l.get("solve.calls")),
                "solve.p99_us" => solve_p99_us,
                "heuristic.trim_ratio" => {
                    ratio(l.get("heuristic.trimmed"), l.get("heuristic.committed"))
                }
                "plancache.plan_hit_ratio" => ratio(l.get("plancache.hits"), plan_probes),
                "trace.overhead_ratio" => Some(overhead),
                _ => l.get(name).map(|v| v / cases),
            };
            let per_case = unit == "s" || (unit == "count" && !name.ends_with("_mean"));
            let note = match value {
                Some(_) if per_case => "per case".to_string(),
                Some(_) => String::new(),
                None => format!("not measured on {} (bypassed or unreachable)", w.name),
            };
            Metric { name, value: value.unwrap_or(0.0), unit, note }
        })
        .collect()
}

fn print_stages(traced: &Totals) {
    let (l, wall) = (&traced.layers, traced.wall_s);
    println!(
        "stage table ({} traced cases, wall {wall:.4} s): self time and share of wall",
        traced.cases
    );
    for (stage, s) in &l.stages {
        println!("  {stage:<62} {s:>10.4} s {:>6.1}%", 100.0 * s / wall);
    }
    // Where the time of a mostly-rejecting stream goes (replay only).
    if let (Some(reject_s), Some(calls), Some(solves), Some(solve_s)) = (
        l.get("admission.reject_s"),
        l.get("admission.calls"),
        l.get("solve.calls"),
        l.get("solve.s"),
    ) {
        println!(
            "reject path: {:.0} rejected admissions take {reject_s:.4} s = {:.1}% of wall; \
             {solves:.0} solves take {solve_s:.4} s = {:.1}%",
            calls - solves,
            100.0 * reject_s / wall,
            100.0 * solve_s / wall
        );
    }
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = &a.workload;
    println!(
        "## perfbench `{}`: {}, {} requests per case, capacity {}, seed {}, trace {}",
        w.name, w.preset, w.requests, w.capacity_fraction, a.seed, a.trace as u8
    );
    println!(
        "closed loop: 1 client, 1 thread, sequential engine, no think time; nproc {nproc}; {}",
        w.about
    );
    let tracer = RefCell::new(Tracer::new());
    let mut chk = Checker::default();
    let mut setup_s = Vec::new();
    let (mut untraced, mut traced) = (Totals::new(), Totals::new());
    let budget = Duration::from_secs(a.seconds);
    let started = Instant::now();
    let mut complete = true;
    let mut rss = (0.0, 0);
    for i in 0.. {
        let seed = case_seed(a.seed, i as u64);
        let case = a.trace.then(|| tracer.borrow_mut().open(trace::CASE, NO_PARENT, NO_REQUEST));
        let t = clock::cpu_ns();
        let built = w.build(seed, case.map(|c| (&tracer, c)));
        setup_s.push(clock::cpu_s_since(t));
        let Some(p) = untraced_pass(w, &built, seed, &mut chk) else {
            complete = false;
            break;
        };
        let hash = p.hash;
        untraced.add(p);
        if let Some(case) = case {
            let Some(p) = traced_pass(w, &built, seed, &mut chk, &tracer, case) else {
                complete = false;
                break;
            };
            chk.check(p.hash == hash, || {
                format!("case {i}: traced hash {:016x} != untraced {hash:016x}", p.hash)
            });
            traced.add(p);
            let mut t = tracer.borrow_mut();
            t.close(case);
            t.finish_case(case);
        }
        if i + 1 == RSS_CASES {
            rss = (peak_rss_mib(), RSS_CASES);
        }
        if i + 1 >= MIN_CASES && started.elapsed() >= budget {
            break;
        }
    }
    let attempted = untraced.requests + traced.requests;
    let failed = chk.violations;
    let correct = complete && failed == 0;

    let metrics = if !complete {
        Vec::new()
    } else if a.trace {
        let kind = if matches!(w.kind, Kind::Fill | Kind::Flood) { "replay" } else { "program" };
        println!(
            "output hash over {} cases: untraced program {:016x}, traced {kind} {:016x} ({})",
            untraced.cases,
            untraced.hash,
            traced.hash,
            if untraced.hash == traced.hash { "equal" } else { "MISMATCH" }
        );
        println!(
            "tracing overhead: traced wall {:.4} s / untraced wall {:.4} s = {:.4}",
            traced.wall_s,
            untraced.wall_s,
            traced.wall_s / untraced.wall_s
        );
        print_stages(&traced);
        let path = Path::new(".perfbench_trace").join(format!("{}.tsv", w.name));
        match tracer.borrow().write_tsv(&path) {
            Ok(()) => println!(
                "spans: {} recorded, written to {}",
                tracer.borrow().recorded(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        let m = per_layer(w, &untraced, &mut traced);
        print_table("per-layer metrics (traced passes)", &m);
        m
    } else {
        println!("output hash over {} cases: {:016x}", untraced.cases, untraced.hash);
        if rss.1 == 0 {
            rss = (peak_rss_mib(), untraced.cases as usize);
        }
        let m = end_to_end(w, &setup_s, rss, &mut untraced, nproc);
        print_table("end-to-end metrics (tracing off)", &m);
        m
    };
    println!(
        "checks: {attempted} requests attempted, {failed} failed operations; {}",
        if correct { "outputs correct" } else { "OUTPUTS INCORRECT" }
    );
    println!("{}", json_line(correct, attempted.max(1), failed, &metrics));
}
