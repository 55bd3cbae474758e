//! Discrete-event failure/recovery experiment: simulate a stream of SFC
//! requests on one shared network under instance failure/repair dynamics and
//! compare repair policies by *measured* availability against the analytic
//! `u_j` the augmentation promises.
//!
//! Usage: `cargo run -p bench-harness --release --bin sim_exp --
//! [--policy none|reactive|audit] [--duration T] [--seed S]
//! [--audit-interval T] [--trace PATH] [--json PATH] [--workers W]
//! [--metrics-interval N|Xs] [--flight DIR] [--scenario NAME|PATH]
//! [--requests N]`. Any other flag exits 2 naming it (`--plan-cache` is a
//! `stream_exp` feature: departures release capacity, which the cache's
//! monotone-residual watermark does not model).
//!
//! `--metrics-interval` switches each run to windowed telemetry: per-event
//! `sim.*` emission is suppressed in favour of one `sim.window` summary per
//! `N` arrivals or `X` *simulated* seconds (still deterministic). `--flight
//! DIR` keeps a ring of recent raw events per run, dumped to
//! `DIR/flight-sim-<policy>.jsonl` on the first SLO violation observed at a
//! departure.
//!
//! Without `--policy`, all three policies run on the *same* seed (and thus
//! the same arrival stream — the workload RNG is fanned out separately from
//! the solver RNG), giving a paired comparison table. `--trace PATH` writes
//! the full `sim.*` event log as JSONL; runs are deterministic, so the same
//! seed reproduces the trace byte for byte. `--json PATH` dumps every run's
//! full SLO report.
//!
//! `--workers W` (default 1) runs the per-policy simulations on up to `W`
//! threads; `--workers auto` resolves to the machine's effective parallelism
//! (sequential on a single-core box, so `auto` never picks the slower
//! engine). Policy runs are fully independent (each gets its own policy
//! instance and telemetry recorder, merged back in policy order), so the
//! tables, the JSON dump and the trace are byte-identical to `--workers 1`.
//!
//! `--scenario NAME|PATH` replaces the toy substrate and Poisson workload
//! with a scenario-zoo build: the topology/catalog come from the spec and
//! the arrival process from the lazy [`scen::RequestStream`] (diurnal +
//! flash-crowd Poisson, popularity-skewed endpoints, spec-distributed TTLs
//! as holding times). Every policy replays the *same* deterministic stream,
//! pulled one arrival at a time — memory stays O(active requests), never
//! O(stream). `--requests N` caps the stream; the simulated `--duration`
//! bounds the run either way.

use bench_harness::{HarnessArgs, SIM_EXP_FLAGS};
use expkit::Table;
use mecnet::request::SfcRequest;
use mecnet::vnf::VnfCatalog;
use mecnet::workload::{generate_catalog, generate_network, WorkloadConfig};
use obs::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scen::{BuiltScenario, RequestStream, ScenarioSpec, TimedRequest, TimedRequestStream};
use sim::{from_name, RequestSource, SimConfig, SloReport};

/// Adapter from the scenario generator's timed stream to the simulator's
/// [`RequestSource`]: arrival gaps come from consecutive stream timestamps
/// and the spec-distributed TTL becomes the holding time, so the engine's
/// workload RNG is never drawn — the stream alone (a pure function of the
/// spec seed) determines the workload, for any policy and worker count.
struct ScenarioSource {
    stream: TimedRequestStream,
    pending: Option<TimedRequest>,
}

impl ScenarioSource {
    fn new(built: &BuiltScenario, limit: u64) -> ScenarioSource {
        ScenarioSource { stream: RequestStream::new(built, limit).timed(), pending: None }
    }
}

impl RequestSource for ScenarioSource {
    fn first_gap(&mut self, _rng: &mut StdRng) -> f64 {
        self.pending = self.stream.next();
        self.pending.as_ref().map_or(f64::INFINITY, |t| t.arrival)
    }

    fn arrival(
        &mut self,
        id: usize,
        _catalog: &VnfCatalog,
        _num_nodes: usize,
        _rng: &mut StdRng,
    ) -> (SfcRequest, f64, f64) {
        let cur = self.pending.take().expect("arrival fired without a pending request");
        self.pending = self.stream.next();
        let gap = self.pending.as_ref().map_or(f64::INFINITY, |n| n.arrival - cur.arrival);
        let mut req = cur.request;
        req.id = id;
        (req, cur.ttl, gap)
    }
}

fn main() {
    let args = match HarnessArgs::parse(std::env::args().skip(1), SIM_EXP_FLAGS) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sim_exp: {e}");
            std::process::exit(2);
        }
    };
    let audit_interval = args.audit_interval.unwrap_or(5.0);
    let policy_names: Vec<String> = match &args.policy {
        Some(name) => vec![name.clone()],
        None => vec!["none".into(), "reactive".into(), "audit".into()],
    };
    let policies = match policy_names
        .iter()
        .map(|n| from_name(n, audit_interval))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sim_exp: {e}");
            std::process::exit(2);
        }
    };

    // One shared substrate for every policy run: the scenario build when
    // `--scenario` is given, the toy workload-generator fixture otherwise.
    let scenario: Option<BuiltScenario> = args.scenario.as_deref().map(|s| {
        let spec = ScenarioSpec::load(s).unwrap_or_else(|e| {
            eprintln!("sim_exp: {e}");
            std::process::exit(2);
        });
        spec.build()
    });
    let stream_limit = args.requests.map(|r| r as u64).unwrap_or(u64::MAX);
    let wl = WorkloadConfig::default();
    let generated = if scenario.is_none() {
        let mut substrate_rng = StdRng::seed_from_u64(expkit::fan_out(args.seed, 0xBEEF));
        let network = generate_network(&wl, &mut substrate_rng);
        let catalog = generate_catalog(&wl, &mut substrate_rng);
        Some((network, catalog))
    } else {
        None
    };
    let (network, catalog) = match (&scenario, &generated) {
        (Some(built), _) => (&built.network, &built.catalog),
        (None, Some((network, catalog))) => (network, catalog),
        (None, None) => unreachable!(),
    };
    let cfg = SimConfig {
        duration: args.duration.unwrap_or(400.0),
        arrival_rate: 0.1,
        mean_holding: 120.0,
        mttr: 1.5,
        sfc_len_range: (3, 5),
        expectation: wl.expectation,
        seed: args.seed,
        metrics_interval: args.metrics_interval,
        flight_dir: args.flight.as_ref().map(std::path::PathBuf::from),
        ..Default::default()
    };
    match &scenario {
        Some(built) => println!(
            "## Failure/recovery simulation — scenario `{}`: {} nodes / {} cloudlets, \
             duration {}, arrival rate {}, MTTR {}\n",
            built.spec.name,
            built.network.num_nodes(),
            built.cloudlets(),
            cfg.duration,
            built.spec.stream.arrival_rate,
            cfg.mttr
        ),
        None => println!(
            "## Failure/recovery simulation — duration {}, arrival rate {}, MTTR {}\n",
            cfg.duration, cfg.arrival_rate, cfg.mttr
        ),
    }

    let mut rec = match &args.trace {
        Some(path) => Recorder::jsonl_file(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("sim_exp: cannot open trace file {path}: {e}");
            std::process::exit(2);
        }),
        None => Recorder::noop(),
    };

    let reports: Vec<SloReport> = if args.workers > 1 && policy_names.len() > 1 {
        // Policy runs share nothing mutable: fan them out over a small thread
        // pool, buffering each run's telemetry in a memory recorder, then
        // merge the results back in policy order so output is byte-identical
        // to the sequential path.
        drop(policies);
        let slots: Vec<std::sync::Mutex<Option<(SloReport, Recorder)>>> =
            policy_names.iter().map(|_| std::sync::Mutex::new(None)).collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let trace_enabled = rec.enabled();
        std::thread::scope(|scope| {
            for _ in 0..args.workers.min(policy_names.len()) {
                scope.spawn(|| loop {
                    let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(name) = policy_names.get(idx) else { break };
                    let policy = from_name(name, audit_interval).expect("validated above");
                    let mut local =
                        if trace_enabled { Recorder::memory() } else { Recorder::noop() };
                    let report = match &scenario {
                        Some(built) => {
                            let mut source = ScenarioSource::new(built, stream_limit);
                            sim::run_with_source_traced(
                                network,
                                catalog,
                                &cfg,
                                policy.as_ref(),
                                &mut source,
                                &mut local,
                            )
                        }
                        None => {
                            sim::run_traced(network, catalog, &cfg, policy.as_ref(), &mut local)
                        }
                    };
                    *slots[idx].lock().unwrap() = Some((report, local));
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                let (report, local) = slot.into_inner().unwrap().expect("every slot filled");
                rec.absorb(local);
                report
            })
            .collect()
    } else {
        policies
            .iter()
            .map(|policy| match &scenario {
                Some(built) => {
                    let mut source = ScenarioSource::new(built, stream_limit);
                    sim::run_with_source_traced(
                        network,
                        catalog,
                        &cfg,
                        policy.as_ref(),
                        &mut source,
                        &mut rec,
                    )
                }
                None => sim::run_traced(network, catalog, &cfg, policy.as_ref(), &mut rec),
            })
            .collect()
    };

    let mut table = Table::new(vec![
        "policy",
        "admitted",
        "availability",
        "analytic u",
        "gap",
        "SLO met",
        "outages",
        "outage time",
        "repairs",
        "re-augment",
    ]);
    for rep in &reports {
        table.add_row(vec![
            rep.policy.clone(),
            format!("{}/{}", rep.admitted, rep.arrivals),
            format!("{:.4}", rep.mean_availability),
            format!("{:.4}", rep.mean_analytic),
            format!("{:+.4}", rep.mean_availability - rep.mean_analytic),
            format!("{:.0}%", 100.0 * rep.slo_attainment),
            format!("{}", rep.outage_count),
            format!("{:.1}", rep.total_outage_time),
            format!("{}", rep.instance_repairs),
            format!("{}", rep.reaugmentations),
        ]);
    }
    println!("{}", table.to_markdown());

    let mut dist = Table::new(vec![
        "policy",
        "outage p50",
        "outage p95",
        "repair mean",
        "repair p95",
        "secondaries",
    ]);
    for rep in &reports {
        dist.add_row(vec![
            rep.policy.clone(),
            format!("{:.2}", rep.outage_p50),
            format!("{:.2}", rep.outage_p95),
            format!("{:.2}", rep.repair_latency_mean),
            format!("{:.2}", rep.repair_latency_p95),
            format!("{}", rep.secondaries_placed),
        ]);
    }
    println!("\n### outage / repair distributions\n");
    println!("{}", dist.to_markdown());

    if let Some(path) = &args.json {
        let json = serde_json::to_string_pretty(&reports).expect("reports serialize");
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("sim_exp: cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("\nwrote {} SLO report(s) to {path}", reports.len());
    }
    println!("\npeak RSS: {}", expkit::peak_rss_human());
    rec.flush().expect("flush trace");
    if let Some(path) = &args.trace {
        println!("\nwrote {} telemetry events to {path}", rec.events_emitted());
    }
    println!(
        "\nThe analytic u_j is a steady-state promise; with no repair policy\n\
         the measured availability converges to it, while reactive and\n\
         audit-driven re-augmentation push availability above the promise by\n\
         replacing redundancy the failures destroy."
    );
}
