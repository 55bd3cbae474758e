//! Multi-request stream experiment (extension beyond the paper's
//! single-request evaluation): push a stream of requests through one shared
//! network per algorithm and report admission rate, mean reliability,
//! expectation-met rate, throughput, and the early-vs-late reliability
//! erosion.
//!
//! Usage: `cargo run -p bench-harness --release --bin stream_exp --
//! [--trials N] [--seed S] [--requests R] [--trace PATH]
//! [--metrics-interval N|Xs] [--flight DIR] [--scenario NAME|PATH]
//! [--plan-cache N]` (trials = independent network/stream pairs); any other
//! flag exits 2 naming it. The stream pipeline is sequential: `--workers`
//! above 1 is rejected (it applies to `sim_exp`, whose per-policy runs are
//! independent).
//!
//! `--plan-cache N` (default 0 = off) arms the admission plan cache
//! (`relaug::plancache`): solved plans are memoized by `(source, chain
//! signature, threshold bucket, l)` and every hit is re-validated against
//! live residuals and the live reliability threshold before it is applied —
//! a cache can change which requests are admitted (only ever
//! conservatively), so cached runs are oracle-checked rather than
//! byte-identical and the record-hash column is not comparable to uncached
//! runs. A cache-plane table (hits, epoch skips, gate rejects, misses,
//! stale validations, evictions, hit rates) is appended to the report, and
//! each algorithm prints a parseable `<algo> plan cache: hit-rate …` line.
//!
//! Without `--scenario` the harness runs the toy fixture: one
//! `WorkloadConfig::default()` network per trial and uniformly random
//! requests. `--scenario` switches to the scenario-zoo path: the spec (a
//! preset name such as `sagin-1k`, or a JSON file) is built once and a lazy
//! [`scen::RequestStream`] synthesizes the request stream — Poisson
//! arrivals, diurnal load, flash crowds, popularity-skewed endpoints —
//! deterministically from the spec seed. In both modes requests are
//! generated lazily and folded into bounded [`StreamStats`] as records are
//! committed, so the records themselves cost O(1) memory regardless of
//! `--requests`, and an untraced run keeps only counters (no events); the
//! run footer reports the process peak RSS.
//!
//! `--metrics-interval` switches the observed (first) stream of each
//! algorithm to windowed telemetry: per-request events are suppressed and
//! one `stream.window` summary is emitted per `N` requests (or `X` wall
//! seconds), so a million-request trace stays bounded. `--flight DIR` arms
//! a flight recorder: the commit step keeps a ring of recent raw events,
//! dumped to `DIR/flight-commit.jsonl` on a commit hard-error
//! (`RELAUG_INJECT_COMMIT_HARD_ERROR=K` injects one at request `K` for
//! smoke-testing the dump path).
//!
//! The `record hash` column (scenario mode) is an order-sensitive FNV-1a
//! fold over every emitted record, so two runs can be compared for
//! byte-identity without storing the records.
//!
//! `--trace PATH` writes the full telemetry of each algorithm's first stream
//! as JSONL: exactly one `stream.request` event per request processed (with
//! admitted/rejected + reason and a residual snapshot), with
//! the per-request solver events interleaved in arrival order. A telemetry
//! summary table — admitted/rejected counts, solve time and solve-time
//! p50/p95/p99 (log2-bucket upper bounds) read from the pipeline's metrics —
//! is printed at the end of every run, traced or not, in full and windowed
//! mode alike.

use std::time::Instant;

use bench_harness::{
    fold_record_hash, HarnessArgs, StreamStats, RECORD_HASH_SEED, STREAM_EXP_FLAGS,
};
use expkit::stats::Accumulator;
use expkit::Table;
use mecnet::network::MecNetwork;
use mecnet::request::SfcRequest;
use mecnet::vnf::VnfCatalog;
use mecnet::workload::{generate_catalog, generate_network, WorkloadConfig};
use obs::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use relaug::stream::{
    process_stream_seeded_sink, Algorithm, FlightSpec, MetricsMode, RequestRecord, StreamConfig,
    StreamObservation,
};
use scen::{RequestStream, ScenarioSpec};

/// The observability config for the first stream of each algorithm:
/// `--metrics-interval` switches the pipeline to windowed aggregation,
/// `--flight` attaches flight rings, and the injection env var arms the
/// commit hard-error.
fn observed_config(
    mut cfg: StreamConfig,
    args: &HarnessArgs,
    inject_at: Option<usize>,
) -> StreamConfig {
    if let Some(interval) = args.metrics_interval {
        cfg.metrics = MetricsMode::Windowed(interval);
    }
    if let Some(dir) = &args.flight {
        cfg.flight = Some(FlightSpec::new(std::path::PathBuf::from(dir)));
    }
    cfg.inject_commit_hard_error_at = inject_at;
    cfg
}

/// Drive one lazy request stream through the seeded pipeline, folding every
/// record into `stats` and the order-sensitive record hash `hash` as it is
/// produced — nothing is retained per request.
#[allow(clippy::too_many_arguments)]
fn drive(
    network: &MecNetwork,
    catalog: &VnfCatalog,
    requests: impl IntoIterator<Item = SfcRequest>,
    cfg: StreamConfig,
    seed: u64,
    rec: &mut Recorder,
    stats: &mut StreamStats,
    hash: &mut u64,
) -> StreamObservation {
    let mut on_record = |r: RequestRecord| {
        *hash = fold_record_hash(*hash, &r);
        stats.record(&r);
    };
    process_stream_seeded_sink(network, catalog, requests, &cfg, seed, rec, &mut on_record).1
}

/// Cache-plane attribution of each algorithm's observed stream: what the
/// plan cache did with every consulted request. `None` when no observed run
/// had the cache armed.
fn plan_cache_table(observations: &[(&str, StreamObservation)]) -> Option<Table> {
    let rows: Vec<(&str, obs::PlanCacheReport)> =
        observations.iter().filter_map(|(name, ob)| ob.plan_cache.map(|r| (*name, r))).collect();
    if rows.is_empty() {
        return None;
    }
    let mut table = Table::new(vec![
        "algorithm",
        "capacity",
        "hits",
        "epoch skips",
        "gate rejects",
        "misses",
        "stale",
        "insertions",
        "evictions",
        "hit rate",
        "plan hit rate",
    ]);
    for (name, r) in &rows {
        table.add_row(vec![
            name.to_string(),
            format!("{}", r.capacity),
            format!("{}", r.hits),
            format!("{}", r.epoch_skips),
            format!("{}", r.reject_hits),
            format!("{}", r.misses),
            format!("{}", r.validation_failures),
            format!("{}", r.insertions),
            format!("{}", r.evictions),
            format!("{:.3}", r.hit_rate()),
            format!("{:.3}", r.plan_hit_rate()),
        ]);
    }
    Some(table)
}

/// The four paper algorithms, filtered for scenario scale: the per-request
/// ILP (and its randomized-rounding variant) is only worth running on
/// bounded streams, so above `ILP_REQUEST_CAP` requests the heavy pair is
/// dropped — loudly, never silently.
const ILP_REQUEST_CAP: usize = 50_000;

fn algorithm_set(scenario: bool, requests: usize) -> Vec<(&'static str, Algorithm)> {
    let mut set: Vec<(&str, Algorithm)> = Vec::new();
    if !scenario || requests <= ILP_REQUEST_CAP {
        set.push(("ILP", Algorithm::Ilp(Default::default())));
        set.push(("Randomized", Algorithm::Randomized(Default::default())));
    } else {
        println!(
            "note: ILP and Randomized skipped at {requests} requests \
             (> {ILP_REQUEST_CAP}); pass --requests {ILP_REQUEST_CAP} or less to include them\n"
        );
    }
    set.push(("Heuristic", Algorithm::Heuristic(Default::default())));
    set.push(("Greedy", Algorithm::Greedy(Default::default())));
    set
}

fn main() {
    let args = match HarnessArgs::parse(std::env::args().skip(1), STREAM_EXP_FLAGS) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stream_exp: {e}");
            std::process::exit(2);
        }
    };
    if args.workers > 1 {
        eprintln!(
            "stream_exp: --workers applies to sim_exp (independent per-policy runs); \
             the stream pipeline is sequential"
        );
        std::process::exit(2);
    }
    // Scenario mode: build the zoo topology once, stream lazily from the
    // spec-derived generator. The stream is a pure function of the spec, so
    // one stream per algorithm is the whole experiment — `--trials` is a
    // toy-fixture knob.
    let scenario = args.scenario.as_deref().map(|s| {
        let spec = ScenarioSpec::load(s).unwrap_or_else(|e| {
            eprintln!("stream_exp: {e}");
            std::process::exit(2);
        });
        spec.build()
    });
    let trials = if scenario.is_some() { 1 } else { args.trials.min(200) };
    let requests_per_stream =
        args.requests.unwrap_or(if scenario.is_some() { 100_000 } else { 100 });
    match &scenario {
        Some(built) => {
            println!(
                "## Stream experiment — scenario `{}`: {} nodes / {} cloudlets, \
                 {requests_per_stream} requests per stream\n",
                built.spec.name,
                built.network.num_nodes(),
                built.cloudlets(),
            );
            if args.trials > 1 {
                println!(
                    "note: --trials ignored with --scenario (the stream is a pure \
                     function of the spec seed)\n"
                );
            }
        }
        None => println!(
            "## Stream experiment — {requests_per_stream} requests per stream, {trials} streams\n"
        ),
    }
    if args.plan_cache > 0 {
        println!(
            "plan cache: {} entries (hits re-validated against live residuals; \
             record hashes are not comparable to uncached runs)\n",
            args.plan_cache
        );
    }
    // Telemetry sink: the first stream of each algorithm runs traced — into
    // the JSONL file when `--trace` is given, into a counters-only recorder
    // otherwise (event count and solver counters, no per-event memory) — so
    // the end-of-run summary table always has data. Remaining trials run
    // with the no-op recorder (zero overhead).
    let mut rec = match &args.trace {
        Some(path) => Recorder::jsonl_file(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("stream_exp: cannot open trace file {path}: {e}");
            std::process::exit(2);
        }),
        None => Recorder::counters_only(),
    };

    // Fault injection for the flight-recorder smoke: panic (after dumping
    // the flight ring) at this request index of the first observed stream.
    let inject_at: Option<usize> = std::env::var("RELAUG_INJECT_COMMIT_HARD_ERROR").ok().map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("stream_exp: RELAUG_INJECT_COMMIT_HARD_ERROR must be a request index");
            std::process::exit(2);
        })
    });

    // Pipeline metrics of each algorithm's first (observed) stream.
    let mut observations: Vec<(&str, StreamObservation)> = Vec::new();

    let algorithms = algorithm_set(scenario.is_some(), requests_per_stream);
    let mut columns =
        vec!["algorithm", "admitted", "mean rel.", "SLO met", "early rel.", "late rel.", "req/s"];
    if scenario.is_some() {
        columns.push("elapsed");
        columns.push("record hash");
    }
    let mut table = Table::new(columns);
    let mut effort = Table::new(vec![
        "algorithm",
        "events",
        "admitted",
        "rejected",
        "solve time",
        "p50",
        "p95",
        "p99",
    ]);
    // Matching-plane counters (first stream per algorithm; only the
    // heuristic's matching rounds populate them).
    let mut matchplane =
        Table::new(vec!["algorithm", "rounds", "(function, bin) arcs", "augmenting searches"]);
    let mut matchplane_lines: Vec<String> = Vec::new();
    for (name, algorithm) in algorithms {
        let mut admitted = Accumulator::new();
        let mut rel = Accumulator::new();
        let mut slo = Accumulator::new();
        let mut early = Accumulator::new();
        let mut late = Accumulator::new();
        let mut rate = Accumulator::new();
        let mut elapsed_s = 0.0;
        let mut hash = RECORD_HASH_SEED;
        let effort_base = rec.summary();
        for t in 0..trials {
            let cfg = StreamConfig {
                algorithm: algorithm.clone(),
                plan_cache: args.plan_cache,
                ..Default::default()
            };
            let mut stats = StreamStats::new();
            // The first stream of each algorithm runs with the full
            // observability config (windowing, flight ring, fault injection)
            // and yields the pipeline metrics for the telemetry table; later
            // trials use the no-op recorder. Requests are fed lazily in both
            // modes — the pipeline pulls them one at a time, so the stream is
            // never materialized.
            let start = Instant::now();
            let ob = match &scenario {
                Some(built) => {
                    let stream = RequestStream::new(built, requests_per_stream as u64);
                    drive(
                        &built.network,
                        &built.catalog,
                        stream,
                        observed_config(cfg, &args, inject_at),
                        built.spec.seed,
                        &mut rec,
                        &mut stats,
                        &mut hash,
                    )
                }
                None => {
                    let seed = expkit::fan_out(args.seed, t as u64);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let wl = WorkloadConfig::default();
                    let network = generate_network(&wl, &mut rng);
                    let catalog = generate_catalog(&wl, &mut rng);
                    let catalog_ref = &catalog;
                    let nodes = wl.nodes;
                    let requests = (0..requests_per_stream).map(move |i| {
                        SfcRequest::random(i, catalog_ref, (3, 6), 0.99, nodes, &mut rng)
                    });
                    let cfg = if t == 0 { observed_config(cfg, &args, inject_at) } else { cfg };
                    let mut noop = Recorder::noop();
                    let rec = if t == 0 { &mut rec } else { &mut noop };
                    drive(&network, &catalog, requests, cfg, seed, rec, &mut stats, &mut hash)
                }
            };
            let dt = start.elapsed().as_secs_f64();
            elapsed_s += dt;
            if dt > 0.0 {
                rate.push(stats.total as f64 / dt);
            }
            if t == 0 {
                observations.push((name, ob));
            }
            admitted.push(stats.admitted as f64);
            if let Some(m) = stats.mean_reliability() {
                rel.push(m);
            }
            if let Some(e) = stats.expectation_rate() {
                slo.push(e);
            }
            if let Some((e, l)) = stats.early_late_thirds() {
                early.push(e);
                late.push(l);
            }
        }
        let mut row = vec![
            name.to_string(),
            format!("{:.1}/{}", admitted.summary().mean, requests_per_stream),
            format!("{:.4}", rel.summary().mean),
            format!("{:.0}%", 100.0 * slo.summary().mean),
            format!("{:.4}", early.summary().mean),
            format!("{:.4}", late.summary().mean),
            format!("{:.0}", rate.summary().mean),
        ];
        if scenario.is_some() {
            row.push(expkit::table::fmt_duration_s(elapsed_s));
            row.push(format!("{hash:016x}"));
        }
        table.add_row(row);
        // Counts, solve time and percentiles come from the first stream's
        // pipeline metrics, which windowed mode keeps too; the recorder delta
        // gives that stream's event count and solver counters.
        let now = rec.summary();
        let p = &observations.last().expect("first stream observed").1.pipeline;
        let solve = p.hist("solve_ns");
        let pct = |q: f64| match solve.and_then(|h| h.quantile(q)) {
            Some(ns) => expkit::table::fmt_duration_s(ns as f64 * 1e-9),
            None => "-".to_string(),
        };
        effort.add_row(vec![
            name.to_string(),
            format!("{}", now.events_emitted - effort_base.events_emitted),
            format!("{}", p.counter("admitted")),
            format!("{}", p.counter("rejected.no_primary_placement")),
            expkit::table::fmt_duration_s(solve.map_or(0.0, |h| h.sum() as f64 * 1e-9)),
            pct(0.50),
            pct(0.95),
            pct(0.99),
        ]);
        let delta = |key: &str| now.counter(key) - effort_base.counter(key);
        let rounds = delta("matching.rounds.engine");
        if rounds > 0 {
            let (arcs, searches) = (delta("matching.edges.materialized"), delta("matching.passes"));
            matchplane.add_row(vec![
                name.to_string(),
                format!("{rounds}"),
                format!("{arcs}"),
                format!("{searches}"),
            ]);
            // One parseable line per algorithm.
            matchplane_lines.push(format!(
                "{name} matching plane: rounds {rounds}, arcs {arcs}, searches {searches}"
            ));
        }
    }
    println!("{}", table.to_markdown());
    println!("\n### telemetry (first stream per algorithm)\n");
    println!("{}", effort.to_markdown());
    if !matchplane_lines.is_empty() {
        println!("\n### matching plane (first stream per algorithm)\n");
        println!("{}", matchplane.to_markdown());
        println!();
        for line in &matchplane_lines {
            println!("{line}");
        }
    }
    if let Some(cache_table) = plan_cache_table(&observations) {
        println!("\n### plan cache (first stream per algorithm)\n");
        println!("{}", cache_table.to_markdown());
        println!();
        // One parseable line per algorithm — what CI's cache-smoke greps.
        for (name, ob) in &observations {
            if let Some(r) = ob.plan_cache {
                println!(
                    "{name} plan cache: hit-rate {:.3} (plan hit-rate {:.3}, \
                     hits {} / gate {} / misses {})",
                    r.hit_rate(),
                    r.plan_hit_rate(),
                    r.hits,
                    r.reject_hits,
                    r.misses,
                );
            }
        }
    }
    if args.metrics_interval.is_some() {
        let windows: u64 = observations.iter().map(|(_, ob)| ob.windows).sum();
        println!("\nwindowed telemetry: {windows} stream.window summaries across observed streams");
    }
    println!("\npeak RSS: {}", expkit::peak_rss_human());
    rec.flush().expect("flush trace");
    if let Some(path) = &args.trace {
        println!("\nwrote {} telemetry events to {path}", rec.events_emitted());
    }
    println!(
        "\nEarly vs late: the reliability requests get degrades over the\n\
         stream as earlier arrivals consume the backup capacity around\n\
         their primaries — the system-level effect the paper's\n\
         single-request experiments hold fixed."
    );
}
