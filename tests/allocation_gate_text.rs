//! Allocation gate for the real path: raw line → `dengraph_json::parse` →
//! `KeywordPipeline::process_post` → … → `JsonLinesSink`.
//!
//! The other two gates start from pre-interned `Message`s, which is how
//! the three layers in front of and behind the detector came to spend ~49
//! allocations per post (an owned `String` per token, per fold and per
//! stem; a `Value` tree and a `format!` per sink line) without any gate
//! noticing.  This one pins what each of those layers may allocate in
//! steady state:
//!
//! * `process_post` on a warmed vocabulary — the returned `Vec` and
//!   nothing else;
//! * `parse` of a three-field input line — what its `Value` tree holds
//!   (three keys, two strings, one map node);
//! * a `JsonLinesSink` quantum batch — nothing, once its line buffer has
//!   grown to fit an earlier batch of the same shape.
//!
//! The binary contains exactly one test so no concurrent test thread can
//! pollute the counter.

use dengraph_core::session::QuantumNotifications;
use dengraph_core::{
    ClusterId, DetectedEvent, EventRecord, EventSink, JsonLinesSink, QuantumSummary,
};
use dengraph_text::{KeywordId, KeywordPipeline};

// `steady_quantum` is the other two gates'.
#[allow(dead_code)]
#[path = "support/alloc_gate.rs"]
mod alloc_gate;
use alloc_gate::count_allocations;

/// ASCII posts in the shapes the text layer special-cases: mixed case,
/// plurals and possessives (stemmed in place), stop words, sigils, a URL,
/// numbers, punctuation runs, duplicates.
const POSTS: &[(&str, &str)] = &[
    (
        "u1",
        "Massive EARTHQUAKE strikes eastern Turkey, magnitude 5.9!!!",
    ),
    (
        "u2",
        "@cnn the #earthquakes in turkey's east: stories, crashes & boxes",
    ),
    (
        "u1",
        "RT via http://t.co/abc123 worker's rights... pro-democracy parties",
    ),
    (
        "u3",
        "quake quake QUAKE quakes 1.2.3 150. www.example.org x.com/y",
    ),
    ("u4", "the a of and"),
    ("u5", ""),
];

/// A batch shaped like a busy quantum: `events` reported events, each
/// with a long rank history behind it.  `salt` varies every number while
/// keeping its digit count, so two batches serialise to the same length.
fn batch(events: u64, salt: u64) -> (QuantumSummary, Vec<EventRecord>) {
    let keywords = |e: u64| -> Vec<KeywordId> {
        (0..4)
            .map(|k| KeywordId((100 + 10 * e + k + salt) as u32))
            .collect()
    };
    let records: Vec<EventRecord> = (0..events)
        .map(|e| EventRecord {
            cluster_id: ClusterId(10 + e),
            first_seen: 100,
            last_seen: 140 + salt,
            keywords: keywords(e),
            all_keywords: keywords(e),
            rank_history: (0..40).map(|q| (100 + q, 10.5 + q as f64)).collect(),
            peak_rank: 55.25,
            peak_support: 30 + salt as usize,
            initial_size: 3,
        })
        .collect();
    let summary = QuantumSummary {
        quantum: 140 + salt,
        messages: 160,
        events: records
            .iter()
            .map(|r| DetectedEvent {
                cluster_id: r.cluster_id,
                quantum: r.last_seen,
                keywords: r.keywords.clone(),
                rank: 49.5,
                support: 20 + salt as usize,
            })
            .collect(),
        akg_stats: Default::default(),
        maintenance_stats: Default::default(),
        live_clusters: events as usize,
        akg_nodes: 40 + salt as usize,
        akg_edges: 60 + salt as usize,
        evicted_quantum: Some(110 + salt),
    };
    (summary, records)
}

#[test]
fn text_parse_and_sink_layers_allocate_only_what_they_return() {
    // --- text: one allocation per post, the returned id list ------------
    let mut pipeline = KeywordPipeline::new();
    for (author, text) in POSTS {
        pipeline.process_post(author, text);
    }
    for (author, text) in POSTS {
        let ((_, keywords), count) = count_allocations(|| pipeline.process_post(author, text));
        assert!(keywords.len() <= 8, "gate posts fit the initial capacity");
        assert!(
            count <= 1 && (count == 1 || keywords.is_empty()),
            "process_post({text:?}) performed {count} heap allocations for {} keywords — \
             the text layer allocates per token again",
            keywords.len()
        );
    }

    // --- parse: what the value tree of an input line holds --------------
    let line =
        r#"{"user":"u12345","time":1319500000,"text":"Massive earthquake strikes eastern Turkey"}"#;
    let (value, count) = count_allocations(|| dengraph_json::parse(line));
    let value = value.expect("the gate line parses");
    assert_eq!(
        value.get("time").and_then(|t| t.as_u64()),
        Ok(1_319_500_000)
    );
    assert!(
        count <= 6,
        "parsing a three-field line performed {count} heap allocations (budget 6: \
         three keys, two strings, one map node)"
    );

    // --- sink: nothing, once the line buffer fits the batch -------------
    let mut sink = JsonLinesSink::new(std::io::sink());
    let mut deliver = |salt: u64| {
        let (summary, records) = batch(5, salt);
        let records: Vec<&EventRecord> = records.iter().collect();
        let notifications = QuantumNotifications {
            summary: &summary,
            records: &records,
            evicted_quantum: summary.evicted_quantum,
            window_quanta: 30,
        };
        count_allocations(|| sink.on_quantum_batch(&notifications)).1
    };
    deliver(0);
    let count = deliver(1);
    assert_eq!(
        count, 0,
        "a JsonLinesSink batch of 5 events performed {count} heap allocations after an \
         equal batch had sized its line buffer — the sink builds a tree or formats \
         through temporaries again"
    );
    assert!(sink.close().is_ok());
}
