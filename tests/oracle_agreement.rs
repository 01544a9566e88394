//! The engine against the reference detector on generated traces.
//!
//! `dengraph_tests::oracle` recounts user sets from the raw window, scores
//! edges by exact Jaccard, clusters the whole AKG with
//! `scp_clusters_global` and ranks every cluster from scratch.  With
//! `min_sketch_size = Δ·w` every window sketch is a whole user set, so the
//! engine's estimate is exact and each quantum must report what the
//! oracle reports: the same keyword sets, rank bits and support (cluster
//! ids depend on history and are not compared).  The dense profile's
//! pulsing families are torn out of the AKG by stale removal, so its
//! quanta also carry the deletion repairs that split clusters.
//!
//! Five seeded Small traces (about 50 quanta each) run at the nominal
//! configuration, and three of them again with a six-quantum window; all
//! of it takes a few seconds in a debug build.

use dengraph_core::{DetectorBuilder, DetectorConfig};
use dengraph_stream::generator::profiles::{dense_profile, es_profile, tw_profile, ProfileScale};
use dengraph_stream::{Message, StreamGenerator, StreamProfile};
use dengraph_tests::oracle::Oracle;
use dengraph_text::KeywordId;

/// `config` with exact edges (a sketch of width Δ·w) and no noun filter.
fn exact(config: DetectorConfig) -> DetectorConfig {
    DetectorConfig {
        min_sketch_size: config.quantum_size * config.window_quanta,
        require_noun: false,
        ..config
    }
}

/// An event as (keywords, rank bits, support).
type Report = (Vec<KeywordId>, u64, usize);

/// Runs `profile`'s trace through a session and through the oracle, and
/// compares every quantum; returns the number of events the engine
/// reported.
fn agree(name: &str, profile: StreamProfile, config: DetectorConfig) -> usize {
    let config = exact(config);
    let trace = StreamGenerator::new(profile).generate();
    let messages: &[Message] = &trace.messages;
    let mut session = DetectorBuilder::from_config(config.clone())
        .interner(trace.interner.clone())
        .build()
        .expect("a valid configuration");
    let expected = Oracle::run(&config, messages);
    let mut events = 0;
    for (quantum, (chunk, expected)) in messages
        .chunks(config.quantum_size)
        .zip(&expected)
        .enumerate()
    {
        let summary = session.process_quantum(chunk);
        let mut engine: Vec<Report> = summary
            .events
            .iter()
            .map(|e| (e.keywords.clone(), e.rank.to_bits(), e.support))
            .collect();
        engine.sort();
        let oracle: Vec<Report> = expected
            .iter()
            .map(|e| (e.keywords.clone(), e.rank.to_bits(), e.support))
            .collect();
        assert_eq!(engine, oracle, "{name}: quantum {quantum}");
        events += engine.len();
    }
    session
        .validate_invariants()
        .expect("invariants hold after the trace");
    eprintln!(
        "{name}: {} quanta, {events} events, engine ≡ oracle",
        expected.len()
    );
    events
}

#[test]
fn tw_traces_report_what_the_oracle_reports() {
    for seed in [2012, 7] {
        let profile = tw_profile(seed, ProfileScale::Small);
        assert!(agree(&format!("tw {seed}"), profile, DetectorConfig::nominal()) > 0);
    }
}

#[test]
fn es_traces_report_what_the_oracle_reports() {
    for seed in [2013, 8] {
        let profile = es_profile(seed, ProfileScale::Small);
        assert!(agree(&format!("es {seed}"), profile, DetectorConfig::nominal()) > 0);
    }
}

#[test]
fn the_dense_trace_reports_what_the_oracle_reports() {
    let profile = dense_profile(7, ProfileScale::Small);
    assert!(agree("dense 7", profile, DetectorConfig::nominal()) > 0);
}

/// A six-quantum window: keywords go stale and clusters lose members to
/// the window's wrap-around many times over.
#[test]
fn a_short_window_reports_what_the_oracle_reports() {
    let short = DetectorConfig::nominal().with_window_quanta(6);
    for (name, profile) in [
        ("tw 2012, w 6", tw_profile(2012, ProfileScale::Small)),
        ("es 2013, w 6", es_profile(2013, ProfileScale::Small)),
        ("dense 7, w 6", dense_profile(7, ProfileScale::Small)),
    ] {
        assert!(agree(name, profile, short.clone()) > 0, "{name}");
    }
}
