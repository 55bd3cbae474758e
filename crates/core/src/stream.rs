//! Multi-request processing — the system view the paper's single-request
//! formulation plugs into.
//!
//! The paper's Section 4.1 sketches the admission framework and then augments
//! one admitted request at a time; its evaluation generates 1,000 independent
//! requests. This module implements the natural end-to-end pipeline over a
//! *shared* network: requests arrive in sequence, each is admitted (primaries
//! consume capacity, all-or-nothing, rejection when nothing fits), then its
//! reliability is augmented with any of the paper's algorithms using the
//! network's *current* residual capacity, which the placed secondaries then
//! consume. This is the "extension" regime every related work (Li et al.
//! 2019/2020, Lin et al. 2020) evaluates, and it exposes the interplay the
//! single-request experiments cannot: early requests eat the capacity that
//! late requests would have used for backups.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use mecnet::admission::{random_placement_capacity_aware, PrimaryPlacement};
use mecnet::graph::NodeId;
use mecnet::neighborhood::NeighborhoodIndex;
use mecnet::network::{MecNetwork, NodeEpochs};
use mecnet::request::SfcRequest;
use mecnet::vnf::VnfCatalog;
use obs::{
    FlightRecorder, MetricsInterval, MetricsShard, MetricsSnapshot, Recorder, ShardedMetrics,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::heuristic::HeuristicConfig;
use crate::ilp::IlpConfig;
use crate::instance::AugmentationInstance;
use crate::plancache::{PlanCache, PlanEntry, PlanKey, Probe};
use crate::randomized::RandomizedConfig;
use crate::scratch::SolveScratch;
use crate::solution::Outcome;
use crate::{greedy, heuristic, ilp, randomized, reliability};

/// Which augmentation algorithm the stream runs per admitted request.
#[derive(Debug, Clone)]
pub enum Algorithm {
    Ilp(IlpConfig),
    Randomized(RandomizedConfig),
    Heuristic(HeuristicConfig),
    Greedy(crate::greedy::GreedyConfig),
}

impl Default for Algorithm {
    fn default() -> Self {
        Algorithm::Heuristic(HeuristicConfig::default())
    }
}

impl Algorithm {
    /// Display name of the configured algorithm.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Ilp(_) => "ILP",
            Algorithm::Randomized(_) => "Randomized",
            Algorithm::Heuristic(_) => "Heuristic",
            Algorithm::Greedy(_) => "Greedy",
        }
    }

    /// Run the configured algorithm on one instance with telemetry, on
    /// caller-owned scratch buffers — the single dispatch point every
    /// multi-request caller (the stream pipeline, the failure/recovery
    /// simulator) shares, so the per-request steady state allocates nothing.
    /// `rng` only feeds the randomized algorithm; the others ignore it.
    /// Solver errors (ILP/LP infeasibility, which well-formed instances never
    /// produce) panic, as the callers have no meaningful recovery. The ILP
    /// reuses the scratch's LP workspace (factorization and eta-file
    /// buffers) across requests; its branch-and-bound *state* is still
    /// per-solve.
    pub fn solve_scratch<R: Rng + ?Sized>(
        &self,
        inst: &AugmentationInstance,
        rng: &mut R,
        rec: &mut Recorder,
        scratch: &mut SolveScratch,
    ) -> Outcome {
        match self {
            Algorithm::Ilp(c) => ilp::solve_scratch(inst, c, rec, scratch).expect("ILP solve"),
            Algorithm::Randomized(c) => {
                randomized::solve_scratch(inst, c, rng, rec, scratch).expect("LP solve")
            }
            Algorithm::Heuristic(c) => heuristic::solve_scratch(inst, c, rec, scratch),
            Algorithm::Greedy(c) => greedy::solve_scratch(inst, c, rec, scratch),
        }
    }
}

/// Stream-processing knobs.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Locality radius for secondaries.
    pub l: u32,
    pub algorithm: Algorithm,
    /// Fraction of total capacity initially available (1.0 = empty network).
    pub initial_capacity_fraction: f64,
    /// Share backup instances across requests (Qu et al. 2018-style
    /// extension): an idle instance of type `f` already deployed within
    /// `N_l^+` of a later request's primary also protects that request, so
    /// its marginal backups start further down the diminishing-returns
    /// ladder. `false` reproduces the paper's no-sharing model.
    pub share_backups: bool,
    /// Admission plan-cache capacity in entries; `0` (the default) disables
    /// the cache and keeps the uncached record stream untouched. When
    /// enabled, the pipeline memoizes solved plans keyed by `(source, chain
    /// signature, threshold bucket, l)` and re-validates every hit against
    /// live residuals (see [`crate::plancache`]); cached mode is
    /// oracle-checked, not byte-identical to uncached runs. Incompatible with
    /// `share_backups` (a cached plan's reliability depends on neighbors'
    /// instances there).
    pub plan_cache: usize,
    /// Differential-oracle hook (test builds of the property suite): on every
    /// cache hit, certify the entry from first principles — cost, reliability
    /// and debits recomputed bit-exactly from its stored plan — and re-run
    /// the fresh solve it would skip as a cross-witness. Expensive; leave off
    /// outside the oracle tests.
    #[doc(hidden)]
    pub plan_cache_oracle: bool,
    /// Telemetry granularity: per-request events (the byte-identity-checked
    /// default) or bounded windowed summaries.
    pub metrics: MetricsMode,
    /// Attach a flight-recorder ring, dumped to this directory on commit
    /// hard-error.
    pub flight: Option<FlightSpec>,
    /// Testing hook: trigger a commit hard-error (flight dump + panic) when
    /// request position `k` reaches the commit step. Drives the
    /// flight-recorder smoke test; leave `None` in real runs.
    pub inject_commit_hard_error_at: Option<usize>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            l: 1,
            algorithm: Algorithm::default(),
            initial_capacity_fraction: 1.0,
            share_backups: false,
            plan_cache: 0,
            plan_cache_oracle: false,
            metrics: MetricsMode::Full,
            flight: None,
            inject_commit_hard_error_at: None,
        }
    }
}

/// Telemetry granularity for the streaming pipeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum MetricsMode {
    /// One `stream.request` event per request plus traced solver events —
    /// unbounded output, deterministic per seed (no wall-clock fields).
    #[default]
    Full,
    /// No per-request events: one `stream.window` summary per interval (plus
    /// the final partial window), so a 10^6-request run emits O(windows)
    /// JSONL. Solver *counters* still accumulate (B&B pivots per window);
    /// solver events are dropped.
    Windowed(MetricsInterval),
}

/// Flight-recorder wiring for the stream pipeline: a ring of the last
/// `capacity` `stream.request` events, dumped to `dir/flight-commit.jsonl`
/// on a commit hard-error.
#[derive(Debug, Clone)]
pub struct FlightSpec {
    pub dir: PathBuf,
    pub capacity: usize,
}

impl FlightSpec {
    pub fn new(dir: PathBuf) -> FlightSpec {
        FlightSpec { dir, capacity: 256 }
    }
}

/// Per-request record of what happened.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    pub id: usize,
    pub admitted: bool,
    /// Reliability of the bare primaries (admitted requests only).
    pub base_reliability: f64,
    /// Reliability after augmentation.
    pub achieved_reliability: f64,
    pub met_expectation: bool,
    pub secondaries: usize,
}

/// Aggregate outcome of a processed stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    pub records: Vec<RequestRecord>,
    /// Residual capacity per node after the whole stream.
    pub final_residual: Vec<f64>,
}

impl StreamOutcome {
    pub fn admitted(&self) -> usize {
        self.records.iter().filter(|r| r.admitted).count()
    }

    pub fn rejected(&self) -> usize {
        self.records.len() - self.admitted()
    }

    /// Mean achieved reliability over admitted requests (`None` if none).
    pub fn mean_reliability(&self) -> Option<f64> {
        let adm: Vec<f64> =
            self.records.iter().filter(|r| r.admitted).map(|r| r.achieved_reliability).collect();
        (!adm.is_empty()).then(|| adm.iter().sum::<f64>() / adm.len() as f64)
    }

    /// Fraction of admitted requests that reached their expectation.
    pub fn expectation_rate(&self) -> Option<f64> {
        let adm: Vec<bool> =
            self.records.iter().filter(|r| r.admitted).map(|r| r.met_expectation).collect();
        (!adm.is_empty()).then(|| adm.iter().filter(|&&m| m).count() as f64 / adm.len() as f64)
    }
}

// ---------------------------------------------------------------------------
// Seeded pipeline.
//
// Every request position `k` gets its own admission RNG and solve RNG,
// derived from a base seed, so a request's computation is a pure function of
// (network state it sees, seed, k) — never of how much randomness earlier
// requests consumed. A run is reproducible from (network, catalog, requests,
// cfg, seed) alone, and any request can be replayed from the residual state
// it saw.
// ---------------------------------------------------------------------------

/// Domain-separation salts for the per-request derived RNG streams.
const ADMIT_SALT: u64 = 0x0041_444d_4954; // "ADMIT"
const SOLVE_SALT: u64 = 0x0053_4f4c_5645; // "SOLVE"

/// splitmix64 finalizer — mixes the (seed, k, salt) triple into a seed with
/// good avalanche so neighboring request positions get unrelated streams.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The RNG for request position `k`'s admission (`ADMIT_SALT`) or solve
/// (`SOLVE_SALT`) step. Independent per (seed, k, salt).
fn request_rng(seed: u64, k: usize, salt: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(splitmix64(seed ^ salt).wrapping_add(k as u64)))
}

/// Index registry for the pipeline's metrics ([`ShardedMetrics`], one
/// shard): recording is an array index plus a relaxed atomic op, so these run
/// on the hot path in every mode.
pub mod pipeline_metrics {
    pub const COUNTERS: &[&str] = &[
        "requests",
        "admitted",
        "rejected.no_primary_placement",
        "commit.overcommit_clamped",
        "solves",
        "plancache.hits",
        "plancache.epoch_skips",
        "plancache.reject_hits",
        "plancache.misses",
        "plancache.validation_failures",
        "plancache.insertions",
        "plancache.evictions",
    ];
    pub const C_REQUESTS: usize = 0;
    pub const C_ADMITTED: usize = 1;
    pub const C_REJECTED: usize = 2;
    pub const C_OVERCOMMIT: usize = 3;
    /// Fresh augmentation solves (plan-cache hits skip the solver).
    pub const C_SOLVES: usize = 4;
    /// Plan-cache hit: a cached plan revalidated against live residuals and
    /// was applied in place of admission + solve.
    pub const C_PC_HITS: usize = 5;
    /// Subset of hits whose epoch stamps were all unchanged — even the
    /// feasibility re-walk was skipped.
    pub const C_PC_EPOCH_SKIPS: usize = 6;
    /// Request rejected by the monotone max-residual watermark without
    /// scanning candidates.
    pub const C_PC_REJECT_HITS: usize = 7;
    /// Cache probes that found no usable plan.
    pub const C_PC_MISSES: usize = 8;
    /// Misses where a candidate existed but failed re-validation.
    pub const C_PC_VALIDATION_FAILURES: usize = 9;
    /// Entries written after fresh solves.
    pub const C_PC_INSERTIONS: usize = 10;
    /// Insertions that displaced a live entry with a different key.
    pub const C_PC_EVICTIONS: usize = 11;

    pub const HISTS: &[&str] = &["solve_ns", "reserve_ns", "commit_ns"];
    /// Per-request solve time (fresh solves only).
    pub const H_SOLVE_NS: usize = 0;
    /// Two-phase `try_reserve` latency at commit.
    pub const H_RESERVE_NS: usize = 1;
    /// Two-phase `commit` latency.
    pub const H_COMMIT_NS: usize = 2;
}

/// Flight ring plus its dump destination.
struct FlightState {
    ring: FlightRecorder,
    path: PathBuf,
}

/// Windowed-aggregation cursor: the per-window base to diff snapshots
/// against.
struct WindowTracker {
    interval: MetricsInterval,
    index: u64,
    window_started: Instant,
    /// `requests` counter at window start, cached as a plain integer so the
    /// per-request boundary check is one atomic load + compare (no name-keyed
    /// snapshot lookup on the hot path).
    base_requests: u64,
    /// Metrics at window start.
    base: MetricsSnapshot,
    /// Main-recorder counters at window start (solver aggregates: B&B nodes,
    /// pivots) — diffed to report per-window solver effort.
    solver_base: Vec<(String, u64)>,
}

/// Observability state threaded through the commit path: the pipeline
/// metrics (always on — recording is a couple of relaxed atomics), the
/// metrics mode, and the optional window tracker and flight ring.
struct StreamObs {
    metrics: ShardedMetrics,
    /// Per-request events and recorder counters (`MetricsMode::Full`).
    full: bool,
    window: Option<WindowTracker>,
    flight: Option<FlightState>,
    inject_at: Option<usize>,
    /// Configured plan-cache capacity (0 = off); gates the cache columns in
    /// windowed events and the `plan_cache` block of the observation.
    plan_cache_capacity: usize,
}

impl StreamObs {
    fn new(cfg: &StreamConfig) -> StreamObs {
        let metrics = ShardedMetrics::new(pipeline_metrics::COUNTERS, pipeline_metrics::HISTS, 1);
        let window = match cfg.metrics {
            MetricsMode::Full => None,
            MetricsMode::Windowed(interval) => Some(WindowTracker {
                interval,
                index: 0,
                window_started: Instant::now(),
                base_requests: 0,
                base: metrics.shard_snapshot(0),
                solver_base: Vec::new(),
            }),
        };
        StreamObs {
            metrics,
            full: matches!(cfg.metrics, MetricsMode::Full),
            window,
            flight: cfg.flight.as_ref().map(|spec| FlightState {
                ring: FlightRecorder::new(spec.capacity),
                path: spec.dir.join("flight-commit.jsonl"),
            }),
            inject_at: cfg.inject_commit_hard_error_at,
            plan_cache_capacity: cfg.plan_cache,
        }
    }

    fn shard(&self) -> &MetricsShard {
        self.metrics.shard(0)
    }

    /// Route a per-request event: to the sink in full mode, and always into
    /// the flight ring if one is attached. The builder only runs when
    /// someone will observe the event.
    fn note_event<F: Fn() -> obs::Event>(&mut self, rec: &mut Recorder, build: F) {
        if self.full {
            rec.emit_with(&build);
        }
        if let Some(fl) = self.flight.as_mut() {
            fl.ring.push(build());
        }
    }

    /// Window boundary check, run after every committed request.
    fn after_request(&mut self, rec: &mut Recorder) {
        let Some(w) = &self.window else { return };
        let due = match w.interval {
            MetricsInterval::Requests(n) => {
                self.shard().counter(pipeline_metrics::C_REQUESTS) - w.base_requests >= n
            }
            // Wall-clock windows: cadence is nondeterministic by nature, but
            // window *contents* are still exact counter deltas.
            MetricsInterval::Seconds(s) => w.window_started.elapsed().as_secs_f64() >= s,
        };
        if due {
            self.emit_window(rec, false);
        }
    }

    /// Cut the current window and emit its `stream.window` summary.
    fn emit_window(&mut self, rec: &mut Recorder, final_window: bool) {
        let Some(w) = self.window.as_mut() else { return };
        let snap = self.metrics.shard_snapshot(0);
        let d = snap.diff(&w.base);
        let requests = d.counter("requests");
        if !(requests > 0 || (final_window && w.index == 0)) {
            // Empty window: emit nothing, just roll the clock forward.
            w.window_started = Instant::now();
            return;
        }
        let solver_now = rec.summary().counters;
        let solver_delta: Vec<(String, serde::Value)> = solver_now
            .iter()
            .map(|(name, v)| {
                let prev =
                    w.solver_base.iter().find(|(n, _)| n == name).map(|(_, p)| *p).unwrap_or(0);
                (name.clone(), serde::Value::U64(v.saturating_sub(prev)))
            })
            .collect();
        let elapsed_s = w.window_started.elapsed().as_secs_f64();
        let q_us =
            |hist: &str, q: f64| d.hist(hist).and_then(|h| h.quantile(q)).unwrap_or(0) / 1_000;
        let solve = d.hist("solve_ns");
        let index = w.index;
        let cache_on = self.plan_cache_capacity > 0;
        rec.emit_with(|| {
            let mut e = obs::Event::new("stream.window")
                .with("window", index)
                .with("final", final_window)
                .with("requests", requests)
                .with("admitted", d.counter("admitted"))
                .with("rejected", d.counter("rejected.no_primary_placement"))
                .with("inline_resolves", d.counter("solves"))
                .with("overcommit_clamped", d.counter("commit.overcommit_clamped"))
                .with("elapsed_s", elapsed_s)
                .with(
                    "throughput_rps",
                    if elapsed_s > 0.0 { requests as f64 / elapsed_s } else { 0.0 },
                )
                .with("solve_total_s", solve.map(|h| h.sum() as f64 / 1e9).unwrap_or(0.0))
                .with("solve_p50_us", q_us("solve_ns", 0.50))
                .with("solve_p90_us", q_us("solve_ns", 0.90))
                .with("solve_p99_us", q_us("solve_ns", 0.99))
                .with("reserve_p99_us", q_us("reserve_ns", 0.99))
                .with("commit_p99_us", q_us("commit_ns", 0.99));
            // Cache columns only exist when the cache is on, so cache-off
            // windowed output keeps the pre-cache schema.
            if cache_on {
                e = e
                    .with("plancache_hits", d.counter("plancache.hits"))
                    .with("plancache_epoch_skips", d.counter("plancache.epoch_skips"))
                    .with("plancache_reject_hits", d.counter("plancache.reject_hits"))
                    .with("plancache_misses", d.counter("plancache.misses"))
                    .with(
                        "plancache_validation_failures",
                        d.counter("plancache.validation_failures"),
                    );
            }
            e.with("solver", serde::Value::Obj(solver_delta))
        });
        w.base_requests = snap.counter("requests");
        w.base = snap;
        w.solver_base = solver_now;
        w.window_started = Instant::now();
        w.index += 1;
    }

    /// Snapshot the metrics for the caller.
    fn observation(&self) -> StreamObservation {
        StreamObservation {
            pipeline: self.metrics.shard_snapshot(0),
            windows: self.window.as_ref().map(|w| w.index).unwrap_or(0),
            plan_cache: self.plan_cache_report(),
        }
    }

    /// The `plancache.*` counters as the serializable cache-plane report
    /// (`None` when the cache is off).
    fn plan_cache_report(&self) -> Option<obs::PlanCacheReport> {
        (self.plan_cache_capacity > 0).then(|| {
            let s = self.metrics.shard_snapshot(0);
            obs::PlanCacheReport {
                capacity: self.plan_cache_capacity as u64,
                hits: s.counter("plancache.hits"),
                epoch_skips: s.counter("plancache.epoch_skips"),
                reject_hits: s.counter("plancache.reject_hits"),
                misses: s.counter("plancache.misses"),
                validation_failures: s.counter("plancache.validation_failures"),
                insertions: s.counter("plancache.insertions"),
                evictions: s.counter("plancache.evictions"),
            }
        })
    }

    /// Dump the flight ring (if any) and panic — the commit hard-error path.
    fn commit_hard_error(&mut self, k: usize, reason: &str) -> ! {
        if let Some(fl) = &self.flight {
            let _ = fl.ring.dump_to_path(reason, &fl.path);
        }
        panic!("commit hard error at request {k}: {reason}");
    }
}

/// Metrics of a processed stream: per-request counts, the solve and
/// reserve/commit latency histograms, and the plan-cache plane.
#[derive(Debug, Clone)]
pub struct StreamObservation {
    pub pipeline: MetricsSnapshot,
    /// `stream.window` events emitted (0 in full mode).
    pub windows: u64,
    /// Aggregated plan-cache counters — `Some` only when the run had
    /// `plan_cache > 0`.
    pub plan_cache: Option<obs::PlanCacheReport>,
}

/// Mutable state the commit step owns: the network residual, (when sharing
/// is on) the deployed-instance ledger, the plan cache, and the
/// observability state.
struct PipelineState {
    residual: Vec<f64>,
    /// `Some` iff `share_backups`; `(VNF type, node) -> instances`.
    deployed: Option<HashMap<(usize, usize), usize>>,
    /// Admission plan cache, `Some` iff `cfg.plan_cache > 0`.
    cache: Option<PlanCache>,
    /// Per-node commit epochs backing the cache's fast path; they exist
    /// exactly when the cache does.
    epochs: Option<NodeEpochs>,
    obs: StreamObs,
}

impl PipelineState {
    fn new(network: &MecNetwork, cfg: &StreamConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.initial_capacity_fraction),
            "capacity fraction must be in [0, 1]"
        );
        assert!(
            !(cfg.share_backups && cfg.plan_cache > 0),
            "plan cache is incompatible with share_backups: a cached plan's \
             reliability depends on neighbors' deployed instances"
        );
        PipelineState {
            residual: network.residual_capacities(cfg.initial_capacity_fraction),
            deployed: cfg.share_backups.then(HashMap::new),
            cache: (cfg.plan_cache > 0).then(|| PlanCache::new(cfg.plan_cache)),
            epochs: (cfg.plan_cache > 0).then(|| NodeEpochs::new(network.num_nodes())),
            obs: StreamObs::new(cfg),
        }
    }

    /// Account a rejected request: counters, event, window check.
    fn reject(&mut self, rec: &mut Recorder, id: usize) -> RequestRecord {
        self.obs.shard().incr(pipeline_metrics::C_REJECTED);
        if self.obs.full {
            rec.count("stream.rejected", 1);
        }
        let residual = &self.residual;
        self.obs.note_event(rec, || {
            stream_request_event(id, residual)
                .with("admitted", false)
                .with("reason", "no_primary_placement")
        });
        self.obs.after_request(rec);
        RequestRecord {
            id,
            admitted: false,
            base_reliability: 0.0,
            achieved_reliability: 0.0,
            met_expectation: false,
            secondaries: 0,
        }
    }

    /// Account an admitted request whose capacity is already committed.
    fn admit(&mut self, rec: &mut Recorder, record: RequestRecord) -> RequestRecord {
        self.obs.shard().incr(pipeline_metrics::C_ADMITTED);
        if self.obs.full {
            rec.count("stream.admitted", 1);
        }
        let residual = &self.residual;
        let r = &record;
        self.obs.note_event(rec, || {
            stream_request_event(r.id, residual)
                .with("admitted", true)
                .with("base_reliability", r.base_reliability)
                .with("achieved_reliability", r.achieved_reliability)
                .with("met_expectation", r.met_expectation)
                .with("secondaries", r.secondaries)
        });
        self.obs.after_request(rec);
        record
    }
}

/// Build the augmentation instance for an admitted request: localized to the
/// primaries' `l`-neighborhoods and, when sharing, seeded with the existing
/// deployed instances in range.
fn build_instance(
    network: &MecNetwork,
    catalog: &VnfCatalog,
    req: &SfcRequest,
    placement: &PrimaryPlacement,
    residual: &[f64],
    nbhd: &NeighborhoodIndex,
    deployed: Option<&HashMap<(usize, usize), usize>>,
) -> AugmentationInstance {
    let mut inst = AugmentationInstance::new_localized_with_index(
        network,
        catalog,
        req,
        &placement.locations,
        residual,
        nbhd,
    );
    if let Some(deployed) = deployed {
        for (i, f) in inst.functions.iter_mut().enumerate() {
            let type_idx = req.sfc[i].index();
            // Deployed instances only live on cloudlets, so the index's
            // cloudlet slice sees everything the full BFS ball would.
            f.existing_backups = nbhd
                .cloudlets_within(f.primary)
                .iter()
                .filter_map(|u| deployed.get(&(type_idx, u.index())))
                .sum();
        }
    }
    inst
}

/// Debit an admitted request's secondary loads against `residual` through the
/// network's two-phase reserve/commit ledger, falling back to clamp-at-zero
/// on overcommit (only the randomized rounding can overcommit). The
/// `try_reserve`/`commit` latencies land in the shard's `reserve_ns` /
/// `commit_ns` histograms. Returns whether the overcommit fallback fired.
fn apply_secondary_debits(
    network: &MecNetwork,
    residual: &mut [f64],
    inst: &AugmentationInstance,
    outcome: &Outcome,
    timing: &MetricsShard,
) -> bool {
    use pipeline_metrics::{H_COMMIT_NS, H_RESERVE_NS};
    let loads = outcome.augmentation.bin_loads(inst);
    let debits: Vec<(NodeId, f64)> = loads
        .iter()
        .enumerate()
        .filter(|&(_, &load)| load > 0.0)
        .map(|(bin_idx, &load)| (inst.bins[bin_idx].node, load))
        .collect();
    let reserve_started = Instant::now();
    let reserved = network.try_reserve(residual, &debits);
    timing.record_duration(H_RESERVE_NS, reserve_started.elapsed());
    match reserved {
        Ok(mut reservation) => {
            let commit_started = Instant::now();
            network.commit(&mut reservation).expect("fresh reservation commits");
            timing.record_duration(H_COMMIT_NS, commit_started.elapsed());
            false
        }
        Err(_) => {
            for &(node, load) in &debits {
                let v = node.index();
                residual[v] = (residual[v] - load).max(0.0);
            }
            true
        }
    }
}

/// Fold an admitted request's primaries and secondaries into the deployed
/// ledger (sharing mode only).
fn apply_deployed_updates(
    deployed: &mut HashMap<(usize, usize), usize>,
    req: &SfcRequest,
    placement: &PrimaryPlacement,
    inst: &AugmentationInstance,
    outcome: &Outcome,
) {
    for (f, &loc) in req.sfc.iter().zip(&placement.locations) {
        *deployed.entry((f.index(), loc.index())).or_insert(0) += 1;
    }
    for func in 0..inst.chain_len() {
        let type_idx = req.sfc[func].index();
        for &(bin_idx, count) in outcome.augmentation.placements_of(func) {
            *deployed.entry((type_idx, inst.bins[bin_idx].node.index())).or_insert(0) += count;
        }
    }
}

/// Differential oracle (`StreamConfig::plan_cache_oracle`): before a cache
/// hit is applied, certify the entry from first principles and re-run the
/// fresh solve it would skip.
///
/// "Cost never better than a fresh solve on the same residual state" is
/// enforced where it is sound: the stored cost *is* the fresh solve's cost at
/// the residual state the plan was solved on, so the oracle recomputes it
/// bit-exactly from the stored secondary counts (a stale plan cannot smuggle
/// a too-good cost), recomputes the achieved reliability from the live
/// catalog, and checks the merged debits sum to exactly what chain + counts
/// imply. Against the *live* residual state no cost ordering is sound — the
/// solvers are heuristics, not optima, and a plan solved on fuller residuals
/// can legitimately dominate what a fresh solve finds on the drained network
/// — so the fresh solve runs as a cross-witness (the instance must still
/// build and solve under cached state) rather than as a cost bound. The
/// primaries' debits are replayed through a reservation and aborted, so
/// `residual` comes back bit-identical.
#[allow(clippy::too_many_arguments)]
fn plan_cache_oracle_check(
    network: &MecNetwork,
    catalog: &VnfCatalog,
    cfg: &StreamConfig,
    seed: u64,
    k: usize,
    req: &SfcRequest,
    entry: &PlanEntry,
    residual: &mut [f64],
    nbhd: &NeighborhoodIndex,
    scratch: &mut SolveScratch,
) {
    // Cost integrity: the paper cost is a pure function of (chain, counts) —
    // recompute it the way the solver's metrics do (no existing-backup
    // offset; cached mode refuses `share_backups`).
    let recomputed_cost: f64 = entry
        .chain
        .iter()
        .zip(&entry.counts)
        .map(|(&f, &m)| {
            let r = catalog.reliability(f);
            (1..=m).map(|j| reliability::paper_cost(r, j)).sum::<f64>()
        })
        .sum();
    assert!(
        (recomputed_cost - entry.cost).abs() <= 1e-9,
        "cached plan at request {k} carries a cost that does not recompute from \
         its own counts: stored {} vs recomputed {recomputed_cost}",
        entry.cost,
    );
    // Reliability integrity: the stored achievement must recompute from the
    // live catalog and still clear the incoming request's exact expectation.
    let recomputed_rel = entry.recomputed_reliability(catalog);
    assert!(
        (recomputed_rel - entry.achieved_reliability).abs() <= 1e-9,
        "cached plan at request {k} carries a reliability that does not recompute \
         from the catalog: stored {} vs recomputed {recomputed_rel}",
        entry.achieved_reliability,
    );
    assert!(
        recomputed_rel + 1e-12 >= req.expectation,
        "cache hit at request {k} below threshold: {recomputed_rel} < {}",
        req.expectation
    );
    // Debit integrity: the merged footprint must account for exactly one
    // primary plus `counts[f]` secondaries of each function's demand.
    let implied: f64 = entry
        .chain
        .iter()
        .zip(&entry.counts)
        .map(|(&f, &m)| catalog.demand(f) * (1 + m) as f64)
        .sum();
    let total: f64 = entry.debits.iter().map(|d| d.1).sum();
    assert!(
        (implied - total).abs() <= 1e-6,
        "cached plan at request {k} debits {total} != implied footprint {implied}"
    );
    let admit_debits: Vec<(NodeId, f64)> = entry
        .primaries
        .iter()
        .zip(&entry.chain)
        .map(|(&node, &f)| (node, catalog.demand(f)))
        .collect();
    // If the cached primaries no longer fit, the capacity re-validation (not
    // the oracle) decides this hit's fate.
    let Ok(mut resv) = network.try_reserve(residual, &admit_debits) else {
        return;
    };
    let placement = PrimaryPlacement { locations: entry.primaries.clone() };
    let inst = build_instance(network, catalog, req, &placement, residual, nbhd, None);
    let mut solve_rng = request_rng(seed, k, SOLVE_SALT);
    let outcome =
        cfg.algorithm.solve_scratch(&inst, &mut solve_rng, &mut Recorder::noop(), scratch);
    // Cross-witness: when the fresh solve succeeds, its cost must itself obey
    // the same counts→cost function — the two paths can rank either way on a
    // drained network, but neither may misprice its own plan.
    if outcome.metrics.met_expectation {
        let fresh_recomputed = outcome.augmentation.paper_cost(&inst);
        assert!(
            (fresh_recomputed - outcome.metrics.paper_cost).abs() <= 1e-9,
            "fresh solve at request {k} mispriced its own plan: {} vs {fresh_recomputed}",
            outcome.metrics.paper_cost,
        );
    }
    network.abort(residual, &mut resv).expect("oracle reservation aborts");
}

/// Serve request `k` from the plan cache when the cache is on and can decide
/// it: a watermark gate rejection or a revalidated hit. `None` means the
/// request takes the fresh admission + solve path.
#[allow(clippy::too_many_arguments)]
fn try_plan_cache(
    network: &MecNetwork,
    catalog: &VnfCatalog,
    cfg: &StreamConfig,
    seed: u64,
    k: usize,
    req: &SfcRequest,
    state: &mut PipelineState,
    rec: &mut Recorder,
    nbhd: &NeighborhoodIndex,
    scratch: &mut SolveScratch,
) -> Option<RequestRecord> {
    use pipeline_metrics::*;
    let cache = state.cache.as_mut()?;
    // Reject gate: stream residuals never increase, so once a full-scan
    // rejection measured a maximum cloudlet residual below this chain's
    // largest per-function demand, admission cannot possibly succeed.
    let max_demand = req.sfc.iter().map(|&f| catalog.demand(f)).fold(0.0f64, f64::max);
    if cache.gate_rejects(max_demand) {
        state.obs.shard().incr(C_PC_REJECT_HITS);
        return Some(state.reject(rec, req.id));
    }
    let pkey = PlanKey::for_request(req, cfg.l);
    let residual = &mut state.residual;
    let epochs = state.epochs.as_mut();
    let mut epoch_skip = false;
    let probe = cache.probe(&pkey, &req.sfc, |entry| {
        // Reliability re-check against the live catalog and the incoming
        // request's *exact* expectation (the key only bucketed it).
        let achieved = entry.recomputed_reliability(catalog);
        if achieved < req.expectation {
            return None;
        }
        if cfg.plan_cache_oracle {
            plan_cache_oracle_check(
                network, catalog, cfg, seed, k, req, entry, residual, nbhd, scratch,
            );
        }
        // Capacity re-validation. Unchanged epoch stamps mean the touched
        // residuals are bit-identical to the entry's post-apply snapshot, so
        // its precomputed `refit` flag alone certifies feasibility;
        // otherwise replay the debits through the same two-phase ledger a
        // fresh commit uses.
        if entry.refit && epochs.as_deref().is_some_and(|e| entry.epochs_unchanged(e)) {
            for &(node, amount) in &entry.debits {
                let v = node.index();
                residual[v] = (residual[v] - amount).max(0.0);
            }
            epoch_skip = true;
        } else {
            let mut resv = network.try_reserve(residual, &entry.debits).ok()?;
            network.commit(&mut resv).expect("fresh reservation commits");
        }
        if let Some(e) = epochs {
            for &(node, _) in &entry.debits {
                e.bump(node.index());
            }
            entry.stamp(e, |idx| residual[idx]);
        }
        Some(RequestRecord {
            id: req.id,
            admitted: true,
            base_reliability: entry.base_reliability,
            achieved_reliability: achieved,
            met_expectation: true,
            secondaries: entry.secondaries,
        })
    });
    let shard = state.obs.shard();
    match probe {
        Probe::Hit(record) => {
            shard.incr(C_PC_HITS);
            if epoch_skip {
                shard.incr(C_PC_EPOCH_SKIPS);
            }
            Some(state.admit(rec, record))
        }
        Probe::Stale => {
            shard.incr(C_PC_MISSES);
            shard.incr(C_PC_VALIDATION_FAILURES);
            None
        }
        Probe::Miss => {
            shard.incr(C_PC_MISSES);
            None
        }
    }
}

/// Process request `k` against the pipeline state: plan cache first (when
/// on), then capacity-aware admission (which applies the primaries' debits),
/// the localized instance build and the solve. Secondaries commit through
/// the network's two-phase reserve/commit ledger; only the randomized
/// algorithm can overcommit, in which case the debit falls back to
/// clamp-at-zero.
#[allow(clippy::too_many_arguments)]
fn commit_request(
    network: &MecNetwork,
    catalog: &VnfCatalog,
    cfg: &StreamConfig,
    seed: u64,
    k: usize,
    req: &SfcRequest,
    state: &mut PipelineState,
    rec: &mut Recorder,
    nbhd: &NeighborhoodIndex,
    scratch: &mut SolveScratch,
) -> RequestRecord {
    use pipeline_metrics::*;
    // Fault injection for the flight-recorder path: fail the commit step
    // before touching any state, whatever the request's fate would have been.
    if state.obs.inject_at == Some(k) {
        state.obs.commit_hard_error(k, "commit_hard_error_injected");
    }
    state.obs.shard().incr(C_REQUESTS);
    if let Some(record) =
        try_plan_cache(network, catalog, cfg, seed, k, req, state, rec, nbhd, scratch)
    {
        return record;
    }
    let demands = &mut scratch.commit.demands;
    demands.clear();
    demands.extend(req.sfc.iter().map(|&f| catalog.demand(f)));
    let mut admit_rng = request_rng(seed, k, ADMIT_SALT);
    let Some(placement) =
        random_placement_capacity_aware(network, req, demands, &mut state.residual, &mut admit_rng)
    else {
        if let Some(cache) = state.cache.as_mut() {
            // Full-scan rejection: calibrate the reject gate with the live
            // maximum cloudlet residual.
            let m = network
                .cloudlet_ids()
                .iter()
                .map(|&v| state.residual[v.index()])
                .fold(0.0f64, f64::max);
            cache.observe_max_residual(m);
        }
        return state.reject(rec, req.id);
    };
    let inst = build_instance(
        network,
        catalog,
        req,
        &placement,
        &state.residual,
        nbhd,
        state.deployed.as_ref(),
    );
    state.obs.shard().incr(C_SOLVES);
    let mut solve_rng = request_rng(seed, k, SOLVE_SALT);
    // Full mode traces the solver into the main recorder; windowed mode keeps
    // only its counters (B&B nodes, pivots), never its events.
    let mut solver_rec = (!state.obs.full && rec.enabled()).then(Recorder::counters_only);
    let solve_started = Instant::now();
    let outcome = cfg.algorithm.solve_scratch(
        &inst,
        &mut solve_rng,
        solver_rec.as_mut().unwrap_or(rec),
        scratch,
    );
    state.obs.shard().record_duration(H_SOLVE_NS, solve_started.elapsed());
    if let Some(solver_rec) = solver_rec {
        rec.absorb(solver_rec);
    }
    let clamped =
        apply_secondary_debits(network, &mut state.residual, &inst, &outcome, state.obs.shard());
    if clamped {
        state.obs.shard().incr(C_OVERCOMMIT);
    }
    if let Some(deployed) = state.deployed.as_mut() {
        apply_deployed_updates(deployed, req, &placement, &inst, &outcome);
    }
    // Maintain the plan cache: every permanent residual decrease bumps the
    // touched nodes' epochs (the fast path is only sound if *all* decreases
    // are visible), and a threshold-meeting, unclamped plan (re)populates the
    // entry for its key.
    if let Some(cache) = state.cache.as_mut() {
        let loads = outcome.augmentation.bin_loads(&inst);
        let mut raw: Vec<(NodeId, f64)> = Vec::with_capacity(req.sfc.len() + loads.len());
        for (&f, &node) in req.sfc.iter().zip(&placement.locations) {
            raw.push((node, catalog.demand(f)));
        }
        for (bin_idx, &load) in loads.iter().enumerate() {
            if load > 0.0 {
                raw.push((inst.bins[bin_idx].node, load));
            }
        }
        if let Some(epochs) = state.epochs.as_mut() {
            for &(node, _) in &raw {
                epochs.bump(node.index());
            }
        }
        if outcome.metrics.met_expectation && !clamped {
            let mut entry = PlanEntry::new(
                PlanKey::for_request(req, cfg.l),
                req.sfc.clone(),
                placement.locations.clone(),
                outcome.augmentation.counts(),
                &raw,
                outcome.metrics.base_reliability,
                outcome.metrics.reliability,
                outcome.metrics.paper_cost,
            );
            if let Some(epochs) = &state.epochs {
                let residual = &state.residual;
                entry.stamp(epochs, |idx| residual[idx]);
            }
            state.obs.shard().incr(C_PC_INSERTIONS);
            if cache.insert(entry) {
                state.obs.shard().incr(C_PC_EVICTIONS);
            }
        }
    }
    let m = &outcome.metrics;
    state.admit(
        rec,
        RequestRecord {
            id: req.id,
            admitted: true,
            base_reliability: m.base_reliability,
            achieved_reliability: m.reliability,
            met_expectation: m.met_expectation,
            secondaries: m.total_secondaries,
        },
    )
}

/// Process a request stream against a shared network.
///
/// Each request is admitted with capacity-aware random primary placement
/// (all-or-nothing), augmented with the configured algorithm against the
/// current residual capacities, and its secondaries' consumption is committed
/// before the next request is considered. Admission and solve draw from
/// per-request RNGs derived from `seed`, so the result depends only on
/// `(network, catalog, requests, cfg, seed)`. `rec` receives one
/// `stream.request` event per request (full mode) or one `stream.window`
/// summary per interval (windowed mode).
pub fn process_stream_seeded(
    network: &MecNetwork,
    catalog: &VnfCatalog,
    requests: &[SfcRequest],
    cfg: &StreamConfig,
    seed: u64,
    rec: &mut Recorder,
) -> (StreamOutcome, StreamObservation) {
    let mut records = Vec::with_capacity(requests.len());
    let (final_residual, observation) = process_stream_seeded_sink(
        network,
        catalog,
        requests.iter().cloned(),
        cfg,
        seed,
        rec,
        &mut |r| records.push(r),
    );
    (StreamOutcome { records, final_residual }, observation)
}

/// [`process_stream_seeded`] over a *lazy* request source: requests are
/// pulled from the iterator one at a time and each [`RequestRecord`] is
/// handed to `on_record` instead of being collected, so a 10^6-request
/// stream runs in O(1) memory beyond the network state (the scenario
/// generator's `RequestStream` synthesizes request `k` on demand from a
/// splitmix64-derived RNG, so nothing is ever materialized). Results are
/// byte-identical to the slice entry point.
pub fn process_stream_seeded_sink(
    network: &MecNetwork,
    catalog: &VnfCatalog,
    requests: impl IntoIterator<Item = SfcRequest>,
    cfg: &StreamConfig,
    seed: u64,
    rec: &mut Recorder,
    on_record: &mut dyn FnMut(RequestRecord),
) -> (Vec<f64>, StreamObservation) {
    let mut state = PipelineState::new(network, cfg);
    let nbhd = network.neighborhood_index(cfg.l);
    let mut scratch = SolveScratch::new();
    for (k, req) in requests.into_iter().enumerate() {
        let record = commit_request(
            network,
            catalog,
            cfg,
            seed,
            k,
            &req,
            &mut state,
            rec,
            &nbhd,
            &mut scratch,
        );
        on_record(record);
    }
    // The final partial window.
    state.obs.emit_window(rec, true);
    let observation = state.obs.observation();
    (state.residual, observation)
}

/// Common prefix of a `stream.request` event: the request id plus a snapshot
/// of the residual capacity *after* this request was processed.
fn stream_request_event(id: usize, residual: &[f64]) -> obs::Event {
    let total: f64 = residual.iter().sum();
    let min = residual.iter().copied().fold(f64::INFINITY, f64::min);
    let max = residual.iter().copied().fold(0.0f64, f64::max);
    obs::Event::new("stream.request")
        .with("id", id)
        .with("residual_total", total)
        .with("residual_min", if min.is_finite() { min } else { 0.0 })
        .with("residual_max", max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mecnet::topology;
    use mecnet::vnf::VnfType;

    fn setup() -> (MecNetwork, VnfCatalog) {
        let g = topology::grid(4, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let net = MecNetwork::with_random_cloudlets(g, 4, (2000.0, 3000.0), &mut rng);
        let mut cat = VnfCatalog::new();
        cat.add(VnfType { name: "a".into(), demand_mhz: 300.0, reliability: 0.85 });
        cat.add(VnfType { name: "b".into(), demand_mhz: 400.0, reliability: 0.9 });
        (net, cat)
    }

    fn make_requests(n: usize, cat: &VnfCatalog, nodes: usize, seed: u64) -> Vec<SfcRequest> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|i| SfcRequest::random(i, cat, (2, 2), 0.99, nodes, &mut rng)).collect()
    }

    fn run(
        net: &MecNetwork,
        cat: &VnfCatalog,
        reqs: &[SfcRequest],
        cfg: &StreamConfig,
        seed: u64,
    ) -> StreamOutcome {
        process_stream_seeded(net, cat, reqs, cfg, seed, &mut Recorder::noop()).0
    }

    #[test]
    fn stream_admits_until_capacity_runs_out() {
        let (net, cat) = setup();
        let reqs = make_requests(40, &cat, net.num_nodes(), 7);
        let out = run(&net, &cat, &reqs, &StreamConfig::default(), 2);
        assert_eq!(out.records.len(), 40);
        assert!(out.admitted() > 0, "some requests must fit");
        assert!(out.rejected() > 0, "40 chains cannot all fit in ~10 GHz");
        // Capacity only decreases and never goes negative.
        for (&r, v) in out.final_residual.iter().zip(net.graph().nodes()) {
            assert!(r >= -1e-9);
            assert!(r <= net.capacity(v) + 1e-9);
        }
    }

    #[test]
    fn early_requests_get_better_reliability() {
        let (net, cat) = setup();
        let reqs = make_requests(30, &cat, net.num_nodes(), 8);
        let out = run(&net, &cat, &reqs, &StreamConfig::default(), 3);
        let admitted: Vec<&RequestRecord> = out.records.iter().filter(|r| r.admitted).collect();
        assert!(admitted.len() >= 4);
        let half = admitted.len() / 2;
        let early: f64 =
            admitted[..half].iter().map(|r| r.achieved_reliability).sum::<f64>() / half as f64;
        let late: f64 = admitted[half..].iter().map(|r| r.achieved_reliability).sum::<f64>()
            / (admitted.len() - half) as f64;
        assert!(
            early >= late - 0.05,
            "late arrivals should not do better: early {early} late {late}"
        );
    }

    #[test]
    fn rejected_when_no_capacity_at_all() {
        let (net, cat) = setup();
        let reqs = make_requests(3, &cat, net.num_nodes(), 9);
        let cfg = StreamConfig { initial_capacity_fraction: 0.0, ..Default::default() };
        let out = run(&net, &cat, &reqs, &cfg, 4);
        assert_eq!(out.admitted(), 0);
        assert_eq!(out.mean_reliability(), None);
        assert_eq!(out.expectation_rate(), None);
    }

    #[test]
    fn all_algorithms_run_in_stream_mode() {
        let (net, cat) = setup();
        let reqs = make_requests(6, &cat, net.num_nodes(), 10);
        for algorithm in [
            Algorithm::Ilp(Default::default()),
            Algorithm::Randomized(Default::default()),
            Algorithm::Heuristic(Default::default()),
            Algorithm::Greedy(Default::default()),
        ] {
            let cfg = StreamConfig { algorithm, ..Default::default() };
            let out = run(&net, &cat, &reqs, &cfg, 5);
            assert_eq!(out.records.len(), 6);
            for r in out.records.iter().filter(|r| r.admitted) {
                assert!(r.achieved_reliability >= r.base_reliability - 1e-12);
            }
        }
    }

    #[test]
    fn sharing_improves_late_arrivals() {
        // Many requests over a small catalog: with sharing, later requests
        // find existing instances of their types and reach the expectation
        // with fewer new secondaries.
        let (net, cat) = setup();
        let reqs = make_requests(25, &cat, net.num_nodes(), 21);
        let run_shared = |share: bool| {
            let cfg = StreamConfig { share_backups: share, ..Default::default() };
            run(&net, &cat, &reqs, &cfg, 9)
        };
        let plain = run_shared(false);
        let shared = run_shared(true);
        // Sharing never hurts: fewer secondaries in total for at least the
        // same overall reliability mass.
        let total_secondaries =
            |o: &StreamOutcome| -> usize { o.records.iter().map(|r| r.secondaries).sum() };
        assert!(
            total_secondaries(&shared) <= total_secondaries(&plain),
            "sharing should reduce secondary deployments: {} vs {}",
            total_secondaries(&shared),
            total_secondaries(&plain)
        );
        let mean = |o: &StreamOutcome| o.mean_reliability().unwrap_or(0.0);
        assert!(mean(&shared) >= mean(&plain) - 0.02);
    }

    #[test]
    fn sharing_counts_existing_instances() {
        // Two identical one-function requests on the same cloudlet: with
        // sharing the second sees the first's instances as existing backups.
        let (net, cat) = setup();
        let reqs = make_requests(2, &cat, net.num_nodes(), 34);
        let cfg = StreamConfig { share_backups: true, ..Default::default() };
        let out = run(&net, &cat, &reqs, &cfg, 33);
        // No assertion on specifics (placement is random); the invariant is
        // that reliabilities remain valid probabilities and records complete.
        for r in &out.records {
            assert!(r.achieved_reliability >= 0.0 && r.achieved_reliability <= 1.0);
        }
    }

    #[test]
    fn traced_stream_emits_one_event_per_request() {
        let (net, cat) = setup();
        let reqs = make_requests(15, &cat, net.num_nodes(), 12);
        let mut rec = Recorder::memory();
        let (out, ob) =
            process_stream_seeded(&net, &cat, &reqs, &StreamConfig::default(), 13, &mut rec);
        let req_events: Vec<_> =
            rec.events().iter().filter(|e| e.kind == "stream.request").collect();
        assert_eq!(req_events.len(), reqs.len(), "exactly one stream.request event per request");
        let admitted_events =
            req_events.iter().filter(|e| e.field("admitted").unwrap().as_bool() == Some(true));
        assert_eq!(admitted_events.count(), out.admitted());
        assert_eq!(rec.counter("stream.admitted"), out.admitted() as u64);
        assert_eq!(rec.counter("stream.rejected"), out.rejected() as u64);
        for e in &req_events {
            if e.field("admitted").unwrap().as_bool() == Some(false) {
                assert_eq!(e.field("reason").unwrap().as_str(), Some("no_primary_placement"));
            } else {
                assert!(e.field("secondaries").unwrap().as_u64().is_some());
            }
            assert!(e.field("residual_total").unwrap().as_f64().unwrap() >= 0.0);
        }
        // Every admitted request's solve time lands in the solve histogram.
        let solves = ob.pipeline.hist("solve_ns").map_or(0, |h| h.count());
        assert_eq!(solves, out.admitted() as u64);
    }

    #[test]
    fn windowed_mode_emits_bounded_summaries() {
        let (net, cat) = setup();
        let reqs = make_requests(120, &cat, net.num_nodes(), 14);
        let cfg = StreamConfig {
            metrics: MetricsMode::Windowed(MetricsInterval::Requests(25)),
            ..Default::default()
        };
        let mut rec = Recorder::memory();
        let (out, ob) = process_stream_seeded(&net, &cat, &reqs, &cfg, 17, &mut rec);
        assert!(
            rec.events().iter().all(|e| e.kind == "stream.window"),
            "windowed mode must suppress per-request events"
        );
        let windows = rec.events();
        // 4 full windows of 25 plus the final partial window of 20.
        assert_eq!(windows.len(), 5);
        assert_eq!(ob.windows, 5);
        let sum = |field: &str| -> u64 {
            windows.iter().map(|e| e.field(field).unwrap().as_u64().unwrap()).sum()
        };
        assert_eq!(sum("requests"), reqs.len() as u64);
        assert_eq!(sum("admitted"), out.admitted() as u64);
        assert_eq!(sum("rejected"), out.rejected() as u64);
        for (i, e) in windows.iter().enumerate() {
            assert_eq!(e.field("window").unwrap().as_u64(), Some(i as u64));
            assert_eq!(e.field("final").unwrap().as_bool(), Some(i == windows.len() - 1));
        }
        assert_eq!(ob.pipeline.counter("requests"), reqs.len() as u64);
        assert_eq!(ob.pipeline.counter("admitted"), out.admitted() as u64);
    }

    #[test]
    fn windowed_and_full_runs_report_the_same_counts_and_percentiles() {
        // The pipeline metrics are the one source of per-stream counts and
        // solve percentiles, in windowed mode as in full mode.
        let (net, cat) = setup();
        let reqs = make_requests(60, &cat, net.num_nodes(), 16);
        let full_cfg = StreamConfig::default();
        let windowed_cfg = StreamConfig {
            metrics: MetricsMode::Windowed(MetricsInterval::Requests(10)),
            ..Default::default()
        };
        let (full, full_ob) =
            process_stream_seeded(&net, &cat, &reqs, &full_cfg, 18, &mut Recorder::memory());
        let (windowed, win_ob) =
            process_stream_seeded(&net, &cat, &reqs, &windowed_cfg, 18, &mut Recorder::memory());
        assert_eq!(full, windowed, "metrics mode must not change the records");
        let (f, w) = (&full_ob.pipeline, &win_ob.pipeline);
        for name in ["requests", "admitted", "rejected.no_primary_placement", "solves"] {
            assert_eq!(f.counter(name), w.counter(name), "{name}");
        }
        assert!(full.admitted() > 0);
        let (fh, wh) = (f.hist("solve_ns").unwrap(), w.hist("solve_ns").unwrap());
        assert_eq!(fh.count(), wh.count());
        assert_eq!(fh.count(), full.admitted() as u64);
        for q in [0.50, 0.95, 0.99] {
            assert!(fh.quantile(q).is_some() && wh.quantile(q).is_some(), "p{q} is numeric");
        }
    }

    #[test]
    fn injected_commit_hard_error_dumps_flight_ring() {
        let (net, cat) = setup();
        let reqs = make_requests(10, &cat, net.num_nodes(), 15);
        let dir = std::env::temp_dir().join(format!("relaug-flight-commit-{}", std::process::id()));
        let cfg = StreamConfig {
            flight: Some(FlightSpec::new(dir.clone())),
            inject_commit_hard_error_at: Some(7),
            ..Default::default()
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(&net, &cat, &reqs, &cfg, 19)
        }));
        assert!(result.is_err(), "injected commit hard error must panic");
        let dump =
            std::fs::read_to_string(dir.join("flight-commit.jsonl")).expect("flight dump written");
        let mut lines = dump.lines();
        let header = lines.next().expect("dump has a header line");
        assert!(header.contains("flight.dump"), "header line: {header}");
        assert!(header.contains("commit_hard_error_injected"), "header line: {header}");
        // One buffered stream.request event per request committed before the
        // injected failure at k = 7.
        assert_eq!(lines.count(), 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_cache_repeated_requests_hit_and_never_overcommit() {
        use mecnet::vnf::VnfTypeId;
        // One identical single-function request repeated far past saturation.
        // The same plan key recurs every time, so the run walks the whole
        // cache lifecycle: insert → epoch-skip hits → validation failure when
        // the plan stops fitting → full-scan rejection → watermark gate. A
        // single-function chain makes the endgame deterministic: admission
        // rejects exactly when every residual drops below the function's
        // demand, which is also exactly when the gate starts firing.
        let (net, cat) = setup();
        let reqs: Vec<SfcRequest> = (0..100)
            .map(|i| SfcRequest::new(i, vec![VnfTypeId(1)], 0.99, NodeId(3), NodeId(12)))
            .collect();
        let cfg = StreamConfig { plan_cache: 16, ..Default::default() };
        let (out, ob) = process_stream_seeded(&net, &cat, &reqs, &cfg, 41, &mut Recorder::noop());
        let report = ob.plan_cache.expect("cache report present when enabled");
        assert!(report.hits > 0, "identical requests must hit: {report:?}");
        assert_eq!(
            report.epoch_skips, report.hits,
            "single-writer identical stream: every hit takes the epoch fast path"
        );
        assert!(
            report.validation_failures >= 1,
            "saturation must eventually invalidate the cached plan: {report:?}"
        );
        assert!(
            report.reject_hits > 0,
            "the watermark gate must take over after the first full-scan rejection: {report:?}"
        );
        // Every request was either gate-rejected, a hit, or a probe miss.
        assert_eq!(report.hits + report.reject_hits + report.misses, reqs.len() as u64);
        // No overcommit, ever: residuals stay within [0, capacity].
        for (&r, v) in out.final_residual.iter().zip(net.graph().nodes()) {
            assert!(r >= -1e-9, "node {v:?} residual went negative: {r}");
            assert!(r <= net.capacity(v) + 1e-9);
        }
        assert_eq!(out.records.len(), reqs.len());
        // Ledger == admissions: the shard-0 counters agree with the records.
        assert_eq!(ob.pipeline.counter("admitted"), out.admitted() as u64);
        assert_eq!(ob.pipeline.counter("requests"), reqs.len() as u64);
    }

    #[test]
    fn plan_cache_hits_revalidate_reliability_against_live_expectation() {
        use mecnet::vnf::VnfTypeId;
        // Two key-equal requests (same 1e-6 threshold bucket) where the
        // *exact* expectations differ within the bucket: a cached plan that
        // clears the first must still be re-checked against the second's
        // live expectation, never trusted from the stored flag.
        let (net, cat) = setup();
        // 0.99 and 0.99 + 4e-7 land in the same bucket (round to 990000).
        let reqs = vec![
            SfcRequest::new(0, vec![VnfTypeId(1)], 0.99, NodeId(3), NodeId(12)),
            SfcRequest::new(1, vec![VnfTypeId(1)], 0.990_000_4, NodeId(3), NodeId(12)),
        ];
        assert_eq!(
            crate::plancache::PlanKey::for_request(&reqs[0], 1),
            crate::plancache::PlanKey::for_request(&reqs[1], 1),
            "fixture requests must share a plan key"
        );
        let cfg = StreamConfig { plan_cache: 16, ..Default::default() };
        let (out, ob) = process_stream_seeded(&net, &cat, &reqs, &cfg, 43, &mut Recorder::noop());
        // Whatever path each request took, an admitted record that claims
        // `met_expectation` must actually clear that request's expectation.
        for (r, req) in out.records.iter().zip(&reqs) {
            if r.admitted && r.met_expectation {
                assert!(
                    r.achieved_reliability >= req.expectation - 1e-12,
                    "request {} claims met_expectation at {} < {}",
                    r.id,
                    r.achieved_reliability,
                    req.expectation
                );
            }
        }
        let report = ob.plan_cache.expect("cache report present");
        assert_eq!(report.hits + report.reject_hits + report.misses, reqs.len() as u64);
    }

    #[test]
    #[should_panic(expected = "plan cache is incompatible with share_backups")]
    fn plan_cache_rejects_share_backups() {
        let (net, cat) = setup();
        let reqs = make_requests(2, &cat, net.num_nodes(), 50);
        let cfg = StreamConfig { plan_cache: 8, share_backups: true, ..Default::default() };
        let _ = run(&net, &cat, &reqs, &cfg, 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let (net, cat) = setup();
        let reqs = make_requests(10, &cat, net.num_nodes(), 11);
        let a = run(&net, &cat, &reqs, &StreamConfig::default(), 6);
        let b = run(&net, &cat, &reqs, &StreamConfig::default(), 6);
        assert_eq!(a, b);
    }
}
