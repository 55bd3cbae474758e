//! End-to-end stream-processing integration tests over the public facade:
//! admission, augmentation, capacity accounting, and the sharing extension
//! interacting across crates — plus the seeded pipeline's invariants on the
//! tight-capacity, sharing and ILP inputs.

use mec_sfc_reliability::mecnet::graph::NodeId;
use mec_sfc_reliability::mecnet::request::SfcRequest;
use mec_sfc_reliability::mecnet::topology;
use mec_sfc_reliability::mecnet::vnf::{VnfCatalog, VnfType};
use mec_sfc_reliability::mecnet::workload::{generate_catalog, generate_network, WorkloadConfig};
use mec_sfc_reliability::mecnet::MecNetwork;
use mec_sfc_reliability::obs::Recorder;
use mec_sfc_reliability::relaug::stream::{
    process_stream_seeded, Algorithm, StreamConfig, StreamObservation, StreamOutcome,
};
use mec_sfc_reliability::scen::{RequestStream, ScenarioSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup(seed: u64) -> (MecNetwork, VnfCatalog, Vec<SfcRequest>) {
    let wl = WorkloadConfig { nodes: 60, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(seed);
    let network = generate_network(&wl, &mut rng);
    let catalog = generate_catalog(&wl, &mut rng);
    let requests: Vec<SfcRequest> = (0..60)
        .map(|i| SfcRequest::random(i, &catalog, (3, 5), 0.99, wl.nodes, &mut rng))
        .collect();
    (network, catalog, requests)
}

fn run(
    network: &MecNetwork,
    catalog: &VnfCatalog,
    requests: &[SfcRequest],
    cfg: &StreamConfig,
    seed: u64,
) -> StreamOutcome {
    process_stream_seeded(network, catalog, requests, cfg, seed, &mut Recorder::noop()).0
}

#[test]
fn capacity_is_conserved_across_the_stream() {
    let (network, catalog, requests) = setup(1);
    let out = run(&network, &catalog, &requests, &StreamConfig::default(), 2);
    // Total consumption = initial - final, must equal primaries + secondaries
    // placed (all demands are positive; heuristic never overcommits).
    let initial: f64 = network.total_capacity();
    let fin: f64 = out.final_residual.iter().sum();
    assert!(fin <= initial + 1e-6);
    assert!(fin >= 0.0);
    // Admitted + rejected partition the stream.
    assert_eq!(out.admitted() + out.rejected(), requests.len());
}

#[test]
fn admission_rate_grows_with_capacity() {
    let (network, catalog, requests) = setup(3);
    let admitted = |fraction: f64| {
        let cfg = StreamConfig { initial_capacity_fraction: fraction, ..Default::default() };
        run(&network, &catalog, &requests, &cfg, 4).admitted()
    };
    let low = admitted(0.25);
    let high = admitted(1.0);
    assert!(high >= low, "more capacity cannot admit fewer: {high} vs {low}");
    assert!(high > 0);
}

#[test]
fn sharing_never_reduces_slo_rate_materially() {
    let (network, catalog, requests) = setup(5);
    let shared_run = |share: bool| {
        let cfg = StreamConfig { share_backups: share, ..Default::default() };
        run(&network, &catalog, &requests, &cfg, 6)
    };
    let plain = shared_run(false);
    let shared = shared_run(true);
    let rate = |o: &StreamOutcome| o.expectation_rate().unwrap_or(0.0);
    assert!(rate(&shared) >= rate(&plain) - 0.1, "sharing should not hurt SLO rate");
    let secs = |o: &StreamOutcome| -> usize { o.records.iter().map(|r| r.secondaries).sum() };
    // Sharing shifts which bins each solve sees, so individual requests may
    // round differently; allow the same kind of small slack as the SLO-rate
    // check above rather than demanding instance-count dominance per seed.
    assert!(
        secs(&shared) <= secs(&plain) + 1 + secs(&plain) / 20,
        "sharing should not deploy materially more instances: {} vs {}",
        secs(&shared),
        secs(&plain)
    );
}

#[test]
fn traced_stream_logs_every_request_with_reasons() {
    let (network, catalog, requests) = setup(9);
    // Shrink capacity so the stream produces both admissions and rejections.
    let cfg =
        StreamConfig { share_backups: true, initial_capacity_fraction: 0.3, ..Default::default() };
    let mut rec = Recorder::memory();
    let (out, ob) = process_stream_seeded(&network, &catalog, &requests, &cfg, 10, &mut rec);

    // Exactly one stream.request event per request, in arrival order.
    let events: Vec<_> = rec.events().iter().filter(|e| e.kind == "stream.request").collect();
    assert_eq!(events.len(), requests.len());
    for (event, record) in events.iter().zip(&out.records) {
        assert_eq!(event.field("id").unwrap().as_u64(), Some(record.id as u64));
        assert_eq!(event.field("admitted").unwrap().as_bool(), Some(record.admitted));
        if record.admitted {
            assert_eq!(
                event.field("secondaries").unwrap().as_u64(),
                Some(record.secondaries as u64)
            );
        } else {
            // Every rejection carries a machine-readable reason.
            assert_eq!(event.field("reason").unwrap().as_str(), Some("no_primary_placement"));
        }
        // Residual snapshots never go negative: commits are clamped, so the
        // stream can never exceed the network's residual capacity.
        assert!(event.field("residual_min").unwrap().as_f64().unwrap() >= 0.0);
        assert!(event.field("residual_total").unwrap().as_f64().unwrap() >= 0.0);
    }
    assert!(out.rejected() > 0, "capacity squeeze should reject something");
    assert!(out.admitted() > 0, "capacity squeeze should still admit something");
    assert_eq!(rec.summary().counter("stream.admitted"), out.admitted() as u64);
    assert_eq!(rec.summary().counter("stream.rejected"), out.rejected() as u64);
    // Every admitted request was solved, and its solve time recorded.
    let solve_ns = ob.pipeline.hist("solve_ns").expect("solve histogram");
    assert_eq!(solve_ns.count(), out.admitted() as u64);
    assert!(out.final_residual.iter().all(|&r| r >= 0.0));
}

#[test]
fn all_algorithms_complete_a_stream() {
    let (network, catalog, requests) = setup(7);
    for algorithm in [
        Algorithm::Ilp(Default::default()),
        Algorithm::Randomized(Default::default()),
        Algorithm::Heuristic(Default::default()),
        Algorithm::Greedy(Default::default()),
    ] {
        let cfg = StreamConfig { algorithm, ..Default::default() };
        let out = run(&network, &catalog, &requests[..20], &cfg, 8);
        assert_eq!(out.records.len(), 20);
        for r in out.records.iter().filter(|r| r.admitted) {
            assert!(r.achieved_reliability >= r.base_reliability - 1e-9);
            assert!(r.achieved_reliability <= 1.0 + 1e-12);
        }
    }
}

// ---------------------------------------------------------------------------
// Pipeline invariants on small grid networks: every residual in [0, cap],
// records complete and in id order, requests = admitted + rejected.
// ---------------------------------------------------------------------------

fn grid_setup(net_seed: u64, cloudlets: usize) -> (MecNetwork, VnfCatalog) {
    let g = topology::grid(5, 5);
    let mut rng = StdRng::seed_from_u64(net_seed);
    let net = MecNetwork::with_random_cloudlets(g, cloudlets, (2000.0, 4000.0), &mut rng);
    let mut cat = VnfCatalog::new();
    cat.add(VnfType { name: "fw".into(), demand_mhz: 300.0, reliability: 0.85 });
    cat.add(VnfType { name: "nat".into(), demand_mhz: 400.0, reliability: 0.9 });
    cat.add(VnfType { name: "ids".into(), demand_mhz: 250.0, reliability: 0.8 });
    (net, cat)
}

fn grid_requests(n: usize, cat: &VnfCatalog, nodes: usize, seed: u64) -> Vec<SfcRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|i| SfcRequest::random(i, cat, (2, 4), 0.99, nodes, &mut rng)).collect()
}

fn assert_stream_invariants(
    net: &MecNetwork,
    reqs: &[SfcRequest],
    out: &StreamOutcome,
    ob: &StreamObservation,
) {
    for (v, &r) in out.final_residual.iter().enumerate() {
        let cap = net.capacity(NodeId(v));
        assert!((0.0..=cap).contains(&r), "node {v}: residual {r} outside [0, {cap}]");
    }
    assert_eq!(out.records.len(), reqs.len(), "one record per request");
    for (record, req) in out.records.iter().zip(reqs) {
        assert_eq!(record.id, req.id, "records in id order");
    }
    let p = &ob.pipeline;
    assert_eq!(p.counter("requests"), reqs.len() as u64);
    assert_eq!(p.counter("admitted"), out.admitted() as u64);
    assert_eq!(p.counter("rejected.no_primary_placement"), out.rejected() as u64);
    assert_eq!(
        p.counter("requests"),
        p.counter("admitted") + p.counter("rejected.no_primary_placement")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Random grids, capacity fractions, sharing and algorithms — the inputs
    /// the deleted parallel-engine equivalence suites swept.
    #[test]
    fn seeded_stream_keeps_invariants(
        (net_seed, req_seed, pipeline_seed) in (0u64..10_000, 0u64..10_000, 0u64..10_000),
        n_requests in 8usize..=36,
        capacity_fraction in prop_oneof![Just(0.3), Just(0.6), Just(1.0)],
        share_backups in any::<bool>(),
        algorithm in prop_oneof![
            Just(Algorithm::Heuristic(Default::default())),
            Just(Algorithm::Greedy(Default::default())),
            Just(Algorithm::Randomized(Default::default())),
        ],
    ) {
        let (net, cat) = grid_setup(net_seed, 6);
        let reqs = grid_requests(n_requests, &cat, net.num_nodes(), req_seed);
        let cfg = StreamConfig {
            algorithm,
            initial_capacity_fraction: capacity_fraction,
            share_backups,
            ..Default::default()
        };
        let (out, ob) =
            process_stream_seeded(&net, &cat, &reqs, &cfg, pipeline_seed, &mut Recorder::noop());
        assert_stream_invariants(&net, &reqs, &out, &ob);
        // Deterministic per seed.
        let (again, _) =
            process_stream_seeded(&net, &cat, &reqs, &cfg, pipeline_seed, &mut Recorder::noop());
        prop_assert_eq!(&again, &out);
    }
}

/// The heuristic's function-level matching on zoo substrates: complete,
/// id-ordered records and every residual within `[0, cap]`.
#[test]
fn heuristic_zoo_streams_keep_invariants() {
    for preset in ["waxman-100", "fattree-16"] {
        let built = ScenarioSpec::preset(preset).expect("known preset").build();
        let reqs: Vec<SfcRequest> = RequestStream::new(&built, 1500).collect();
        let cfg = StreamConfig {
            algorithm: Algorithm::Heuristic(Default::default()),
            ..Default::default()
        };
        let (out, ob) = process_stream_seeded(
            &built.network,
            &built.catalog,
            &reqs,
            &cfg,
            built.spec.seed,
            &mut Recorder::noop(),
        );
        assert!(out.admitted() > 0, "{preset}: nothing admitted");
        assert_stream_invariants(&built.network, &reqs, &out, &ob);
    }
}

/// Randomized rounding at tight capacity overcommits bins; the commit step
/// must fall back to clamp-at-zero (counted as `commit.overcommit_clamped`)
/// and never leave a residual outside `[0, cap]`.
#[test]
fn randomized_overcommit_is_clamped_at_tight_capacity() {
    let mut clamped = 0;
    for seed in 0..8u64 {
        let (net, cat) = grid_setup(seed, 6);
        let reqs = grid_requests(36, &cat, net.num_nodes(), seed + 100);
        let cfg = StreamConfig {
            algorithm: Algorithm::Randomized(Default::default()),
            initial_capacity_fraction: 0.3,
            ..Default::default()
        };
        let (out, ob) = process_stream_seeded(&net, &cat, &reqs, &cfg, seed, &mut Recorder::noop());
        assert_stream_invariants(&net, &reqs, &out, &ob);
        clamped += ob.pipeline.counter("commit.overcommit_clamped");
    }
    assert!(clamped > 0, "no case exercised the overcommit clamp");
}

/// Backup sharing on a tight network: the deployed-instance ledger changes
/// what each solve sees, never the accounting.
#[test]
fn shared_backups_stream_keeps_invariants() {
    for seed in 0..4u64 {
        let (net, cat) = grid_setup(seed, 6);
        let reqs = grid_requests(24, &cat, net.num_nodes(), seed + 200);
        let cfg = StreamConfig {
            share_backups: true,
            initial_capacity_fraction: 0.4,
            ..Default::default()
        };
        let (out, ob) = process_stream_seeded(&net, &cat, &reqs, &cfg, seed, &mut Recorder::noop());
        assert_stream_invariants(&net, &reqs, &out, &ob);
        assert!(out.admitted() > 0);
    }
}

/// The ILP is the most stateful solver (warm starts, branch-and-bound
/// telemetry); its stream must keep the same invariants, and its traced run
/// must produce the same records as the untraced one.
#[test]
fn ilp_stream_keeps_invariants() {
    let (net, cat) = grid_setup(3, 5);
    let reqs = grid_requests(10, &cat, net.num_nodes(), 4);
    let cfg = StreamConfig { algorithm: Algorithm::Ilp(Default::default()), ..Default::default() };
    let (out, ob) = process_stream_seeded(&net, &cat, &reqs, &cfg, 9, &mut Recorder::noop());
    assert_stream_invariants(&net, &reqs, &out, &ob);
    let (traced, _) = process_stream_seeded(&net, &cat, &reqs, &cfg, 9, &mut Recorder::memory());
    assert_eq!(traced, out);
}
