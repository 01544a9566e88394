//! Pinned outputs of the serial pipeline.  Each input runs once and must
//! reproduce, bit for bit, the summaries and final cluster state (ids
//! included) recorded for it: the FNV-1a-64 digest of every
//! `QuantumSummary`'s `Debug` form plus the sorted cluster list.  `Debug`
//! covers every summary field, including the full f64 rank values (Rust's
//! float formatting is shortest-round-trip, so two ranks print identically
//! iff they are bit-identical), so any drift in window aggregation, edge
//! scoring, cluster maintenance or ranking changes a digest.
//!
//! A digest moves only when a change means to move the output; re-pin it
//! then, and say so.

use dengraph_core::{DetectorBuilder, DetectorConfig, QuantumSummary};
use dengraph_stream::generator::profiles::{dense_profile, es_profile, tw_profile, ProfileScale};
use dengraph_stream::{Message, StreamGenerator, Trace};

/// FNV-1a, 64-bit.
fn fnv1a64<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &byte in part.as_bytes().iter().chain(b"\n") {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// What a run reports, as digests: `.0` of the summaries plus the sorted
/// `id|nodes|born` cluster list, `.1` of the long-term event records.
fn run(builder: DetectorBuilder, messages: &[Message]) -> (u64, u64) {
    let mut session = builder.build().expect("valid config");
    let summaries: Vec<QuantumSummary> = session.run(messages);
    // Under `--features invariants` every quantum boundary already
    // deep-checked; this end-state pass also covers default builds.
    session
        .validate_invariants()
        .expect("structural invariants must hold after the full trace");
    let mut clusters: Vec<String> = session
        .clusters()
        .clusters()
        .map(|c| format!("{:?}|{:?}|{:?}", c.id, c.sorted_nodes(), c.born_quantum))
        .collect();
    assert!(
        !clusters.is_empty(),
        "a pinned run must end with live clusters"
    );
    clusters.sort();
    let summaries = format!("{summaries:#?}");
    let output =
        fnv1a64(std::iter::once(summaries.as_str()).chain(clusters.iter().map(String::as_str)));
    let records = format!("{:#?}", session.event_records());
    (output, fnv1a64([records.as_str()]))
}

fn run_trace(trace: &Trace, config: DetectorConfig) -> (u64, u64) {
    let builder = DetectorBuilder::from_config(config).interner(trace.interner.clone());
    run(builder, &trace.messages)
}

#[test]
fn tw_profile_output_is_pinned() {
    let trace = StreamGenerator::new(tw_profile(31, ProfileScale::Small)).generate();
    let (output, records) = run_trace(&trace, DetectorConfig::nominal().with_window_quanta(20));
    assert_eq!(
        output, 3_371_652_193_141_545_651,
        "tw summaries and clusters"
    );
    assert_eq!(
        records, 239_734_591_490_471_080,
        "tw long-term event records"
    );
}

/// The long-term event records of a second tw trace, which are built from
/// the cluster history rather than read off the summaries.
#[test]
fn event_records_output_is_pinned() {
    let trace = StreamGenerator::new(tw_profile(35, ProfileScale::Small)).generate();
    let (_, records) = run_trace(&trace, DetectorConfig::nominal().with_window_quanta(20));
    assert_eq!(
        records, 7_672_905_180_222_409_546,
        "tw long-term event records"
    );
}

#[test]
fn es_profile_output_is_pinned() {
    let trace = StreamGenerator::new(es_profile(32, ProfileScale::Small)).generate();
    let (output, _) = run_trace(&trace, DetectorConfig::nominal().with_window_quanta(20));
    assert_eq!(
        output, 3_528_512_295_646_234_833,
        "es summaries and clusters"
    );
}

/// Exact edge correlations: a sketch of width Δ·w holds every window
/// user of a keyword.  Its events and event records are those the
/// retired exact mode reported on this trace; only the summaries' AKG
/// statistics differ (the join scores fewer pairs than the cross
/// product did).
#[test]
fn exact_edge_correlation_output_is_pinned() {
    let trace = StreamGenerator::new(tw_profile(33, ProfileScale::Small)).generate();
    let nominal = DetectorConfig::nominal().with_window_quanta(20);
    let config = DetectorConfig {
        min_sketch_size: nominal.quantum_size * nominal.window_quanta,
        ..nominal
    };
    let (output, _) = run_trace(&trace, config);
    assert_eq!(
        output, 1_262_175_259_444_707_987,
        "exact-ec summaries and clusters"
    );
}

#[test]
fn non_nominal_thresholds_output_is_pinned() {
    let trace = StreamGenerator::new(es_profile(34, ProfileScale::Small)).generate();
    let config = DetectorConfig::nominal()
        .with_quantum_size(120)
        .with_edge_correlation_threshold(0.1)
        .with_high_state_threshold(3)
        .with_window_quanta(12);
    let (output, _) = run_trace(&trace, config);
    assert_eq!(
        output, 2_784_052_021_493_444_671,
        "thresholds summaries and clusters"
    );
}

/// The dense pulsing trace: its mortal families are periodically torn
/// out of the AKG by stale removal, so its quanta carry deletion repairs
/// that split clusters and components.
#[test]
fn dense_profile_output_is_pinned() {
    let trace = StreamGenerator::new(dense_profile(36, ProfileScale::Small)).generate();
    let (output, _) = run_trace(&trace, DetectorConfig::nominal().with_window_quanta(24));
    assert_eq!(
        output, 6_655_935_356_003_240_206,
        "dense summaries and clusters"
    );
}

/// Every quantum carries several simultaneous correlated bursts in
/// *disjoint* keyword families, so cluster maintenance sees
/// multi-component delta batches; clusters keep forming, pausing and
/// dissolving independently.
#[test]
fn multi_component_cluster_maintenance_output_is_pinned() {
    use dengraph_stream::UserId;
    use dengraph_text::KeywordId;

    let quantum_size = 60usize;
    let mut messages: Vec<Message> = Vec::new();
    for q in 0..40u64 {
        let mut batch: Vec<Message> = Vec::new();
        // Six families; family f is active on quanta where (q + f) % 3 != 0.
        for family in 0..6u32 {
            if (q + family as u64).is_multiple_of(3) {
                continue;
            }
            let base_kw = family * 50;
            let rotate = (q % 4) as u32;
            let keywords: Vec<KeywordId> = (0..4)
                .map(|i| KeywordId(base_kw + ((i + rotate) % 6)))
                .collect();
            for u in 0..5u64 {
                batch.push(Message::new(
                    UserId(1_000 * family as u64 + 10 * q + u),
                    q * 1_000 + u,
                    keywords.clone(),
                ));
            }
        }
        // Filler chatter: unique users, unique keywords, never bursty.
        let mut filler = 500_000 + q * 1_000;
        while batch.len() < quantum_size {
            batch.push(Message::new(
                UserId(filler),
                q * 1_000 + filler,
                vec![KeywordId(10_000 + filler as u32)],
            ));
            filler += 1;
        }
        messages.extend(batch);
    }

    let config = DetectorConfig::nominal()
        .with_quantum_size(quantum_size)
        .with_high_state_threshold(4)
        .with_window_quanta(6);
    let (output, _) = run(DetectorBuilder::from_config(config), &messages);
    assert_eq!(
        output, 12_459_613_363_216_089_841,
        "multi-component summaries and clusters"
    );
}

/// The length and FNV-1a-64 digest of the detector's raw binary body —
/// `EventDetector::to_bin`, before the block codec packs it — at the end
/// of a run.  The packed checkpoint sizes the benchmark gates move with
/// the block codec's parse as well as with the format; these move only
/// with the format (or with the state it describes).
fn raw_body(trace: &Trace, config: DetectorConfig) -> (usize, u64) {
    let mut session = DetectorBuilder::from_config(config)
        .interner(trace.interner.clone())
        .build()
        .expect("valid config");
    session.run(&trace.messages);
    let mut w = dengraph_json::BinWriter::new();
    session.detector().to_bin(&mut w);
    let body = w.as_slice();
    let digest = body.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    (body.len(), digest)
}

#[test]
fn raw_checkpoint_body_is_pinned() {
    let es = StreamGenerator::new(es_profile(32, ProfileScale::Small)).generate();
    let dense = StreamGenerator::new(dense_profile(36, ProfileScale::Small)).generate();
    let bodies = [
        raw_body(&es, DetectorConfig::nominal().with_window_quanta(20)),
        raw_body(&dense, DetectorConfig::nominal().with_window_quanta(24)),
    ];
    assert_eq!(
        bodies,
        [
            (49_083, 18_022_107_929_469_125_591),
            (208_912, 8_041_545_169_315_673_774)
        ],
        "es and dense raw bodies"
    );
}
