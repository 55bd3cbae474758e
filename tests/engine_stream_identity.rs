//! End-to-end byte-identity of the incremental matching engine: a full
//! admission stream over zoo scenarios must produce exactly the same
//! `RequestRecord`s — and the same final residuals, bit for bit — whether the
//! heuristic solves its rounds with the incremental engine (default) or the
//! historical full-rebuild path. This is the stream-level pin behind the
//! record-hash equality the `stream_exp` harness reports.

use mec_sfc_reliability::obs::Recorder;
use mec_sfc_reliability::relaug::heuristic::{HeuristicConfig, MatchEngine};
use mec_sfc_reliability::relaug::stream::{process_stream_seeded, Algorithm, StreamConfig};
use mec_sfc_reliability::scen::{RequestStream, ScenarioSpec};

fn outcome(
    preset: &str,
    requests: u64,
    engine: MatchEngine,
) -> mec_sfc_reliability::relaug::stream::StreamOutcome {
    let built = ScenarioSpec::preset(preset).expect("known preset").build();
    let reqs: Vec<_> = RequestStream::new(&built, requests).collect();
    let cfg = StreamConfig {
        algorithm: Algorithm::Heuristic(HeuristicConfig { engine, ..Default::default() }),
        ..Default::default()
    };
    process_stream_seeded(
        &built.network,
        &built.catalog,
        &reqs,
        &cfg,
        built.spec.seed,
        &mut Recorder::noop(),
    )
    .0
}

#[test]
fn incremental_engine_stream_is_byte_identical_on_zoo_scenarios() {
    for preset in ["waxman-100", "fattree-16"] {
        let inc = outcome(preset, 1500, MatchEngine::Incremental);
        let reb = outcome(preset, 1500, MatchEngine::Rebuild);
        assert_eq!(
            inc.records, reb.records,
            "{preset}: request records diverge between incremental and rebuild engines"
        );
        assert_eq!(inc.final_residual.len(), reb.final_residual.len());
        for (v, (a, b)) in inc.final_residual.iter().zip(&reb.final_residual).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{preset}: node {v} residual bits diverge ({a} vs {b})"
            );
        }
    }
}

#[test]
fn warm_engine_stream_stays_feasible_on_zoo_scenarios() {
    // Warm starts trade the byte-identity guarantee for price reuse; the
    // stream must still be complete (one record per request) and feasible.
    let built = ScenarioSpec::preset("waxman-100").expect("known preset").build();
    let reqs: Vec<_> = RequestStream::new(&built, 1500).collect();
    let cfg = StreamConfig {
        algorithm: Algorithm::Heuristic(HeuristicConfig {
            engine: MatchEngine::IncrementalWarm,
            ..Default::default()
        }),
        ..Default::default()
    };
    let (out, _) = process_stream_seeded(
        &built.network,
        &built.catalog,
        &reqs,
        &cfg,
        built.spec.seed,
        &mut Recorder::noop(),
    );
    assert_eq!(out.records.len(), reqs.len());
    let initial = built.network.residual_capacities(1.0);
    for (v, (&res, &init)) in out.final_residual.iter().zip(&initial).enumerate() {
        assert!(
            (-1e-9..=init + 1e-9).contains(&res),
            "node {v} residual {res} outside [0, {init}]"
        );
    }
    assert!(out.admitted() > 0, "warm stream admitted nothing");
}
