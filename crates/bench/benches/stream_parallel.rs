//! Stream admission throughput benchmark for the sequential seeded pipeline.
//!
//! Pushes one fixed request stream through `relaug::stream`, prints the
//! criterion timings, and records the measured throughput into
//! `BENCH_stream.json` at the workspace root (the CI artifact).
//!
//! Two fixtures:
//!
//! 1. **Toy** — the historical 120-request `WorkloadConfig::default()`
//!    stream, criterion-sampled plus hand-timed (`results` in the JSON).
//! 2. **Scenario** — the `sagin-1k` zoo preset (≥1,000 cloudlets) with a
//!    lazily synthesized million-request stream fed straight into the
//!    pipeline's sink entry point, hand-timed once uncached and once with
//!    the admission plan cache armed (`scenario` in the JSON). Nothing is
//!    materialized: the uncached run is identified by its order-sensitive
//!    FNV record hash. `QUICK=1` shrinks the stream for CI.
//!
//! Every row reports the admitted count and admitted solves/s next to
//! req/s: on a saturating stream most requests are cheap rejects, so req/s
//! alone measures the reject path.

use std::time::{Duration, Instant};

use bench_harness::{fold_record_hash, RECORD_HASH_SEED};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mecnet::request::SfcRequest;
use mecnet::workload::{generate_catalog, generate_network, WorkloadConfig};
use obs::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use relaug::stream::{
    process_stream_seeded, process_stream_seeded_sink, Algorithm, StreamConfig, StreamOutcome,
};
use scen::{BuiltScenario, RequestStream, ScenarioSpec};
use serde::Value;

const SEED: u64 = 42;
const REQUESTS: usize = 120;
/// Hand-timed repetitions for the JSON record (criterion's printed numbers
/// come from its own sampling loop).
const RECORD_REPS: usize = 5;

const SCENARIO: &str = "sagin-1k";
const SCENARIO_REQUESTS: u64 = 1_000_000;
const SCENARIO_REQUESTS_QUICK: u64 = 150_000;
const PLAN_CACHE_ENTRIES: usize = 4096;

struct Fixture {
    network: mecnet::MecNetwork,
    catalog: mecnet::vnf::VnfCatalog,
    requests: Vec<SfcRequest>,
}

fn fixture() -> Fixture {
    let wl = WorkloadConfig::default();
    let mut rng = StdRng::seed_from_u64(SEED);
    let network = generate_network(&wl, &mut rng);
    let catalog = generate_catalog(&wl, &mut rng);
    let requests = (0..REQUESTS)
        .map(|i| SfcRequest::random(i, &catalog, (3, 6), 0.99, wl.nodes, &mut rng))
        .collect();
    Fixture { network, catalog, requests }
}

fn run(fx: &Fixture) -> StreamOutcome {
    let cfg =
        StreamConfig { algorithm: Algorithm::Heuristic(Default::default()), ..Default::default() };
    process_stream_seeded(&fx.network, &fx.catalog, &fx.requests, &cfg, SEED, &mut Recorder::noop())
        .0
}

/// One hand-timed scenario-scale run: the lazy stream goes straight into the
/// sink entry point, records folded into the hash as they are produced.
struct ScenarioRun {
    hash: u64,
    admitted: u64,
    solves: u64,
    elapsed_s: f64,
    plan_cache: Option<obs::PlanCacheReport>,
}

impl ScenarioRun {
    fn rates(&self, requests: u64) -> Vec<(String, Value)> {
        vec![
            ("mean_s".into(), Value::F64(self.elapsed_s)),
            ("throughput_rps".into(), Value::F64(requests as f64 / self.elapsed_s)),
            ("admitted".into(), Value::U64(self.admitted)),
            ("solves_per_s".into(), Value::F64(self.solves as f64 / self.elapsed_s)),
        ]
    }
}

fn run_scenario(built: &BuiltScenario, requests: u64, plan_cache: usize) -> ScenarioRun {
    let cfg = StreamConfig {
        algorithm: Algorithm::Heuristic(Default::default()),
        plan_cache,
        ..Default::default()
    };
    let mut hash = RECORD_HASH_SEED;
    let mut admitted = 0u64;
    let started = Instant::now();
    let (_, ob) = process_stream_seeded_sink(
        &built.network,
        &built.catalog,
        RequestStream::new(built, requests),
        &cfg,
        built.spec.seed,
        &mut Recorder::noop(),
        &mut |r| {
            hash = fold_record_hash(hash, &r);
            admitted += r.admitted as u64;
        },
    );
    ScenarioRun {
        hash,
        admitted,
        solves: ob.pipeline.counter("solves"),
        elapsed_s: started.elapsed().as_secs_f64(),
        plan_cache: ob.plan_cache,
    }
}

/// The sequential run with the admission plan cache armed. Cached admission
/// is oracle-checked rather than byte-identical (hits skip the solver after
/// revalidating against live residuals), so the row carries the cache
/// counters instead of a record hash; speedup is quoted against the uncached
/// run. Peak RSS (VmHWM, whole process) is recorded as evidence the cache
/// stays O(capacity): the 10^6-request run's footprint must not grow with
/// the stream.
fn plan_cache_section(built: &BuiltScenario, requests: u64, uncached_s: f64) -> Value {
    let r = run_scenario(built, requests, PLAN_CACHE_ENTRIES);
    let report = r.plan_cache.expect("cached run attaches a report");
    let peak_rss = expkit::peak_rss_bytes().unwrap_or(0);
    println!(
        "stream_parallel: scenario {SCENARIO} plan-cache={PLAN_CACHE_ENTRIES} — {requests} \
         requests in {:.2}s ({:.0} req/s, {} admitted, {:.0} solves/s, hit-rate {:.3}, \
         plan hit-rate {:.3}, {:.1}x vs uncached, peak RSS {})",
        r.elapsed_s,
        requests as f64 / r.elapsed_s,
        r.admitted,
        r.solves as f64 / r.elapsed_s,
        report.hit_rate(),
        report.plan_hit_rate(),
        uncached_s / r.elapsed_s,
        expkit::peak_rss_human(),
    );
    let mut fields = vec![("entries".into(), Value::U64(PLAN_CACHE_ENTRIES as u64))];
    fields.extend(r.rates(requests));
    fields.extend([
        ("speedup_vs_uncached_sequential".into(), Value::F64(uncached_s / r.elapsed_s)),
        ("hit_rate".into(), Value::F64(report.hit_rate())),
        ("plan_hit_rate".into(), Value::F64(report.plan_hit_rate())),
        ("hits".into(), Value::U64(report.hits)),
        ("epoch_skips".into(), Value::U64(report.epoch_skips)),
        ("reject_hits".into(), Value::U64(report.reject_hits)),
        ("misses".into(), Value::U64(report.misses)),
        ("validation_failures".into(), Value::U64(report.validation_failures)),
        ("insertions".into(), Value::U64(report.insertions)),
        ("evictions".into(), Value::U64(report.evictions)),
        ("peak_rss_bytes".into(), Value::U64(peak_rss)),
    ]);
    Value::Obj(fields)
}

fn scenario_section(quick: bool) -> Value {
    let built = ScenarioSpec::preset(SCENARIO).expect("known preset").build();
    let requests = if quick { SCENARIO_REQUESTS_QUICK } else { SCENARIO_REQUESTS };
    let r = run_scenario(&built, requests, 0);
    println!(
        "stream_parallel: scenario {SCENARIO} — {requests} requests in {:.2}s ({:.0} req/s, \
         {} admitted, {:.0} solves/s, hash {:016x})",
        r.elapsed_s,
        requests as f64 / r.elapsed_s,
        r.admitted,
        r.solves as f64 / r.elapsed_s,
        r.hash,
    );
    let mut sequential = r.rates(requests);
    sequential.push(("record_hash".into(), Value::Str(format!("{:016x}", r.hash))));
    let plan_cache = plan_cache_section(&built, requests, r.elapsed_s);
    Value::Obj(vec![
        ("name".into(), Value::Str(SCENARIO.into())),
        ("nodes".into(), Value::U64(built.network.num_nodes() as u64)),
        ("cloudlets".into(), Value::U64(built.cloudlets() as u64)),
        ("requests".into(), Value::U64(requests)),
        ("algorithm".into(), Value::Str("heuristic".into())),
        ("quick".into(), Value::Bool(quick)),
        ("sequential".into(), Value::Obj(sequential)),
        ("plan_cache".into(), plan_cache),
    ])
}

fn bench_stream(c: &mut Criterion) {
    let fx = fixture();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    c.bench_function("stream_admission/sequential", |b| b.iter(|| black_box(run(&fx))));
    let mut total = 0.0f64;
    let mut min_s = f64::INFINITY;
    let mut admitted = 0;
    for _ in 0..RECORD_REPS {
        let started = Instant::now();
        let out = black_box(run(&fx));
        let elapsed = started.elapsed().as_secs_f64();
        total += elapsed;
        min_s = min_s.min(elapsed);
        admitted = out.admitted();
    }
    let mean_s = total / RECORD_REPS as f64;
    let toy = Value::Obj(vec![
        ("mean_s".into(), Value::F64(mean_s)),
        ("min_s".into(), Value::F64(min_s)),
        ("throughput_rps".into(), Value::F64(REQUESTS as f64 / mean_s)),
        ("admitted".into(), Value::U64(admitted as u64)),
        ("solves_per_s".into(), Value::F64(admitted as f64 / mean_s)),
    ]);

    let quick = std::env::var_os("QUICK").is_some();
    let report = Value::Obj(vec![
        ("benchmark".into(), Value::Str("stream_parallel".into())),
        ("cores".into(), Value::U64(cores as u64)),
        ("requests".into(), Value::U64(REQUESTS as u64)),
        ("seed".into(), Value::U64(SEED)),
        ("algorithm".into(), Value::Str("heuristic".into())),
        ("record_reps".into(), Value::U64(RECORD_REPS as u64)),
        ("results".into(), toy),
        ("scenario".into(), scenario_section(quick)),
    ]);
    let mut json = serde_json::to_string_pretty(&report).expect("report serializes");
    json.push('\n');
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stream.json");
    std::fs::write(path, &json).expect("write BENCH_stream.json");
    println!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(4));
    targets = bench_stream
}
criterion_main!(benches);
