//! The codec contract, per state struct.
//!
//! Every serialisable state struct supports two wire formats behind the
//! [`Encode`]/[`Decode`] traits: JSON (for debugging) and the compact
//! binary format.  For each struct a
//! ChaCha8-seeded property loop gates the full equivalence triangle over
//! randomly built instances:
//!
//! ```text
//! from_json(to_json(x)) == x == from_bin(to_bin(x))
//! ```
//!
//! plus the size motivation (binary never larger than JSON) and — for the
//! binary decoder specifically — rejection of corrupted and truncated
//! documents: flipped magic bytes, bumped versions, truncation at every
//! byte offset, absurd length prefixes.  Corruption must fail with a
//! typed error, never a panic or a runaway allocation.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use dengraph_core::cluster::ClusterId;
use dengraph_core::cluster::{edge_addition, edge_deletion, ClusterMaintainer, ClusterRegistry};
use dengraph_core::keyword_state::{QuantumRecord, WindowState};
use dengraph_core::wal::{JournalFrameEvent, JournalReader};
use dengraph_core::{
    DeltaRecord, DetectedEvent, DetectorBuilder, DetectorConfig, DetectorSession, EventTracker,
    GraphDelta, RestoreError, WireFormat,
};
use dengraph_graph::{DynamicGraph, NodeId};
use dengraph_json::{BinWriter, Decode, Encode};
use dengraph_minhash::UserHasher;
use dengraph_stream::generator::profiles::{tw_profile, ProfileScale};
use dengraph_stream::{Message, StreamGenerator, UserId};
use dengraph_text::{KeywordId, KeywordInterner};

#[path = "support/temp_dir.rs"]
mod temp_dir;

/// Asserts the equivalence triangle for one instance and returns the
/// `(json_bytes, binary_bytes)` sizes.
fn assert_codecs_agree<T>(x: &T, label: &str) -> (usize, usize)
where
    T: Encode + Decode + PartialEq + std::fmt::Debug,
{
    let json = x.encode(WireFormat::Json);
    let binary = x.encode(WireFormat::Binary);
    let from_json = T::decode(&json, WireFormat::Json)
        .unwrap_or_else(|e| panic!("{label}: json decode failed: {e}"));
    let from_bin = T::decode(&binary, WireFormat::Binary)
        .unwrap_or_else(|e| panic!("{label}: binary decode failed: {e}"));
    assert_eq!(&from_json, x, "{label}: json round trip diverged");
    assert_eq!(&from_bin, x, "{label}: binary round trip diverged");
    assert!(
        binary.len() <= json.len(),
        "{label}: binary ({}) larger than json ({})",
        binary.len(),
        json.len()
    );
    (json.len(), binary.len())
}

fn random_messages(rng: &mut ChaCha8Rng, quantum: u64) -> Vec<Message> {
    let count = if rng.gen_range(0..5u32) == 0 {
        0
    } else {
        rng.gen_range(1..40usize)
    };
    (0..count)
        .map(|m| {
            let user = UserId(rng.gen_range(0..15u64));
            let keywords: Vec<KeywordId> = (0..rng.gen_range(1..4u32))
                .map(|_| KeywordId(rng.gen_range(0..10u32)))
                .collect();
            Message::new(user, quantum * 1000 + m as u64, keywords)
        })
        .collect()
}

#[test]
fn dynamic_graph_codecs_agree() {
    for case in 0..32u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0DEC_2000 + case);
        let mut graph = DynamicGraph::new();
        for _ in 0..rng.gen_range(0..120u32) {
            let a = NodeId(rng.gen_range(0..25u32));
            let b = NodeId(rng.gen_range(0..25u32));
            if a == b {
                continue;
            }
            match rng.gen_range(0..5u32) {
                0 => {
                    graph.remove_edge(a, b);
                }
                1 => {
                    graph.remove_node(a);
                }
                2 => {
                    graph.add_node(a);
                }
                _ => {
                    graph.add_edge(a, b, rng.gen_range(0.0..1.0f64));
                }
            }
        }
        // The graph decoders take an admission for node ids (their slots
        // are sized by the largest); here every id is admitted.
        let label = format!("graph case {case}");
        let json = graph.encode(WireFormat::Json);
        let binary = graph.encode(WireFormat::Binary);
        let text = std::str::from_utf8(&json).expect("JSON is UTF-8");
        let from_json = DynamicGraph::from_json_admitting(
            &dengraph_json::parse(text).unwrap(),
            Ok::<_, String>,
        )
        .unwrap_or_else(|e| panic!("{label}: json decode failed: {e}"));
        let mut r = dengraph_json::BinReader::new(&binary);
        let from_bin = DynamicGraph::from_bin_admitting(&mut r, Ok::<_, String>)
            .unwrap_or_else(|e| panic!("{label}: binary decode failed: {e}"));
        r.expect_end().unwrap();
        assert_eq!(from_json, graph, "{label}: json round trip diverged");
        assert_eq!(from_bin, graph, "{label}: binary round trip diverged");
        assert!(
            binary.len() <= json.len(),
            "{label}: binary larger than json"
        );
    }
}

#[test]
fn quantum_record_codecs_agree() {
    for case in 0..32u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0DEC_3000 + case);
        let messages = random_messages(&mut rng, case);
        let record = QuantumRecord::from_messages(case, &messages);
        assert_codecs_agree(&record, &format!("record case {case}"));
    }
}

#[test]
fn window_state_codecs_agree() {
    for case in 0..16u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0DEC_4000 + case);
        let capacity = rng.gen_range(1..8usize);
        let sketch_size = rng.gen_range(2..20usize);
        let mut window = WindowState::new(capacity, sketch_size, UserHasher::new(0xBEEF));
        for q in 0..rng.gen_range(1..16u64) {
            window.push(QuantumRecord::from_messages(
                q,
                &random_messages(&mut rng, q),
            ));
        }
        assert_codecs_agree(&window, &format!("window case {case}"));
    }
}

#[test]
fn cluster_registry_codecs_agree() {
    for case in 0..24u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0DEC_6000 + case);
        let mut graph = DynamicGraph::new();
        let mut registry = ClusterRegistry::new();
        // A maintainer fed the same mutations as single-delta quanta.
        let mut maintainer = ClusterMaintainer::new();
        for step in 0..rng.gen_range(5..60u32) {
            let a = NodeId(rng.gen_range(0..12u32));
            let b = NodeId(rng.gen_range(0..12u32));
            if a == b {
                continue;
            }
            if rng.gen_range(0..4u32) == 0 {
                if graph.remove_edge(a, b).is_some() {
                    edge_deletion(&mut registry, a, b, 1);
                    maintainer.apply_deltas(
                        &graph,
                        &[GraphDelta::EdgeRemoved { a, b }],
                        step.into(),
                    );
                }
            } else if graph.add_edge(a, b, 1.0) {
                edge_addition(&graph, &mut registry, a, b, 0);
                let added = GraphDelta::EdgeAdded { a, b, weight: 1.0 };
                maintainer.apply_deltas(&graph, &[added], step.into());
            }
        }
        assert_codecs_agree(&registry, &format!("registry case {case}"));
        assert_codecs_agree(&maintainer, &format!("maintainer case {case}"));
        assert_codecs_agree(
            &maintainer.last_stats(),
            &format!("maintenance stats case {case}"),
        );
        for cluster in registry.clusters() {
            assert_codecs_agree(cluster, &format!("cluster case {case}"));
        }
    }
}

#[test]
fn event_tracker_codecs_agree() {
    for case in 0..24u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0DEC_7000 + case);
        let mut tracker = EventTracker::new();
        for q in 0..rng.gen_range(1..20u64) {
            for c in 0..rng.gen_range(0..4u64) {
                let mut keywords: Vec<KeywordId> = (0..rng.gen_range(1..6u32))
                    .map(|_| KeywordId(rng.gen_range(0..50u32)))
                    .collect();
                keywords.sort_unstable();
                keywords.dedup();
                let event = DetectedEvent {
                    cluster_id: ClusterId(c),
                    quantum: q,
                    rank: rng.gen_range(0.0..40.0f64),
                    support: rng.gen_range(0..200usize),
                    keywords,
                };
                assert_codecs_agree(&event, &format!("event case {case} q{q} c{c}"));
                tracker.observe(&event);
            }
        }
        assert_codecs_agree(&tracker, &format!("tracker case {case}"));
        for record in tracker.records() {
            assert_codecs_agree(record, &format!("event record case {case}"));
        }
    }
}

#[test]
fn detector_config_codecs_agree() {
    for config in [
        DetectorConfig::nominal(),
        DetectorConfig::ground_truth_study(),
        DetectorConfig {
            hysteresis: false,
            require_noun: false,
            rank_threshold_factor: 1.25,
            ..DetectorConfig::nominal()
        },
    ] {
        assert_codecs_agree(&config, "config");
    }
}

// ---------------------------------------------------------------------------
// Whole-detector checkpoints and corruption rejection
// ---------------------------------------------------------------------------

/// Runs a real trace into a session and returns it (with interner, so the
/// checkpoint exercises the noun filter section too).
fn loaded_session() -> DetectorSession {
    let trace = StreamGenerator::new(tw_profile(71, ProfileScale::Small)).generate();
    let mut session = DetectorBuilder::from_config(DetectorConfig::nominal().with_window_quanta(8))
        .interner(trace.interner.clone())
        .build()
        .expect("valid config");
    session.run(&trace.messages);
    session
}

/// Both checkpoint wire formats restore to the same detector: the
/// restored sessions re-encode to byte-identical JSON checkpoints.
#[test]
fn binary_and_json_checkpoints_restore_identically() {
    let session = loaded_session();
    let json = session.checkpoint_bytes(WireFormat::Json);
    let binary = session.checkpoint_bytes(WireFormat::Binary);
    assert!(
        binary.len() * 2 <= json.len(),
        "binary checkpoint ({}) must be at most half the json one ({})",
        binary.len(),
        json.len()
    );
    let from_json = DetectorSession::restore_bytes(&json).expect("json restores");
    let from_bin = DetectorSession::restore_bytes(&binary).expect("binary restores");
    assert_eq!(
        String::from_utf8(from_json.checkpoint_bytes(WireFormat::Json)).unwrap(),
        String::from_utf8(from_bin.checkpoint_bytes(WireFormat::Json)).unwrap(),
        "the two formats decoded to different detectors"
    );
    assert_eq!(from_bin.quanta_processed(), session.quanta_processed());
    assert_eq!(from_bin.total_messages(), session.total_messages());
}

/// A vocabulary of `n` long words, every third one a non-noun; the first
/// `n` words of any two such vocabularies agree.
fn long_word_vocabulary(n: usize) -> KeywordInterner {
    let mut vocabulary = KeywordInterner::new();
    for i in 0..n {
        let suffix = if i % 3 == 0 { "ing" } else { "" };
        vocabulary.intern(&format!("{LONG_WORD_PREFIX}{i:06}{suffix}"));
    }
    vocabulary
}

const LONG_WORD_PREFIX: &str = "longvocabularyword";

/// A checkpoint carries one verdict bit per vocabulary word, not the
/// words.  Two sessions fed the same stream, whose keywords all lie in
/// the first 1 000 ids, over vocabularies of 1 000 and 20 000 long words
/// (the same first 1 000): their detector bodies differ by exactly the
/// varint of the vocabulary size and the ⌈n/8⌉ verdict bytes, and no word
/// appears in a checkpoint that wraps the body unpacked.
#[test]
fn a_checkpoint_grows_one_bit_per_vocabulary_word() {
    const SMALL: usize = 1_000;
    const LARGE: usize = 20_000;
    let trace = StreamGenerator::new(tw_profile(71, ProfileScale::Small)).generate();
    let messages: Vec<Message> = trace
        .messages
        .iter()
        .map(|m| {
            let mut keywords: Vec<KeywordId> = m
                .keywords
                .iter()
                .map(|k| KeywordId(k.0 % SMALL as u32))
                .collect();
            keywords.sort_unstable();
            keywords.dedup();
            Message::new(m.user, m.time, keywords)
        })
        .collect();
    let body = |n: usize| {
        let mut session =
            DetectorBuilder::from_config(DetectorConfig::nominal().with_window_quanta(8))
                .interner(long_word_vocabulary(n))
                .build()
                .expect("valid config");
        session.run(&messages);
        assert!(
            session.event_records().len() > 1,
            "the stream must report events"
        );
        let mut body = BinWriter::new();
        session.detector().to_bin(&mut body);
        (session, body.into_bytes())
    };
    let (small_session, small) = body(SMALL);
    let (large_session, large) = body(LARGE);
    assert_eq!(
        large_session.checkpoint_bytes(WireFormat::Json).len()
            - small_session.checkpoint_bytes(WireFormat::Json).len(),
        LARGE.to_string().len() - SMALL.to_string().len()
            + 2 * (LARGE.div_ceil(8) - SMALL.div_ceil(8)),
        "JSON: the digits of len, and two hex digits per verdict byte"
    );
    let varint_len = |n: usize| {
        let mut w = BinWriter::new();
        w.usize(n);
        w.len()
    };
    assert_eq!(
        large.len() - small.len(),
        varint_len(LARGE) - varint_len(SMALL) + LARGE.div_ceil(8) - SMALL.div_ceil(8)
    );

    // A raw container (magic, version, method 0) around the large body.
    let mut raw = large_session.checkpoint_bytes(WireFormat::Binary)[..5].to_vec();
    raw.push(0);
    raw.extend_from_slice(&large);
    let restored = DetectorSession::restore_bytes(&raw).expect("the raw container restores");
    assert!(
        restored.checkpoint_bytes(WireFormat::Binary)
            == large_session.checkpoint_bytes(WireFormat::Binary)
    );
    let prefix = LONG_WORD_PREFIX.as_bytes();
    assert!(
        !raw.windows(prefix.len()).any(|w| w == prefix),
        "a vocabulary word is in the checkpoint"
    );
}

#[test]
fn binary_checkpoint_rejects_corrupted_and_truncated_headers() {
    let session = loaded_session();
    let bytes = session.checkpoint_bytes(WireFormat::Binary);

    // Flipped magic bytes (all four positions).
    for i in 0..4 {
        let mut bad = bytes.clone();
        bad[i] ^= 0xFF;
        assert!(
            DetectorSession::restore_bytes(&bad).is_err(),
            "magic flip at byte {i} was accepted"
        );
    }
    // Unsupported version.
    let mut bad = bytes.clone();
    bad[4] = 99; // version varint sits right after the 4-byte magic
    assert!(DetectorSession::restore_bytes(&bad).is_err());

    // Truncation at every offset into the header and a sweep of payload
    // offsets: always an error, never a panic.
    for cut in (0..bytes.len().min(64)).chain((64..bytes.len()).step_by(997)) {
        assert!(
            DetectorSession::restore_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} was accepted"
        );
    }

    // Trailing garbage after a valid document.
    let mut bad = bytes.clone();
    bad.push(0);
    assert!(DetectorSession::restore_bytes(&bad).is_err());
}

/// Corrupt size fields must be rejected *before* they can drive a huge
/// allocation or a rebuild at an impossible width.  Keyword ids, which
/// size the window index's id-indexed slots, are held to their bound by
/// `tests/checkpoint_compat.rs`'s
/// `a_live_list_no_window_can_have_produced_is_an_error`.
#[test]
fn binary_decoders_bound_corrupt_sizes_and_ids() {
    use dengraph_json::BinWriter;

    // A window rebuilds its index while decoding, one head per live
    // keyword: its sketch size is bounded before that.
    let mut w = BinWriter::new();
    w.usize(4); // capacity
    w.u64(1 << 40); // absurd window sketch size
    w.u64(7); // hasher seed
    w.usize(0); // no records
    w.usize(1); // materialization threshold
    w.usize(0); // empty live list
    assert!(WindowState::decode(w.as_slice(), WireFormat::Binary).is_err());
}

/// Journal restore must *recover* from damage the CRC framing can
/// detect (torn tails roll back to the last durable quantum) while
/// still rejecting bytes that are not a journal at all.
#[test]
fn journal_restore_recovers_torn_tails_and_rejects_non_journals() {
    let trace = StreamGenerator::new(tw_profile(72, ProfileScale::Small)).generate();
    let dir = temp_dir::scratch_dir("codec-journal");
    let mut session = DetectorBuilder::from_config(DetectorConfig::nominal().with_window_quanta(8))
        .durable_journal(&dir, temp_dir::one_segment(4))
        .build()
        .expect("valid config and writable journal dir");
    for summary in session.run(&trace.messages) {
        assert_codecs_agree(&summary.akg_stats, "akg stats");
    }
    let quanta = session.quanta_processed();
    drop(session);
    let bytes = temp_dir::only_file(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let full = DetectorSession::restore_from_journal(&bytes).expect("clean journal restores");
    assert_eq!(full.quanta_processed(), quanta);
    // Every delta frame the journal holds decodes, and quanta advance.
    let mut reader = JournalReader::new(&bytes).expect("segment header");
    let mut deltas = 0;
    let mut last_quantum = None;
    loop {
        match reader.next_frame() {
            JournalFrameEvent::Delta(payload) => {
                let record = DeltaRecord::decode(payload).expect("delta frame");
                assert!(
                    last_quantum.is_none_or(|q| record.quantum() > q),
                    "delta quantum {} does not advance past {last_quantum:?}",
                    record.quantum()
                );
                last_quantum = Some(record.quantum());
                deltas += 1;
            }
            JournalFrameEvent::Snapshot(_) => {}
            JournalFrameEvent::End => break,
            torn => panic!("clean journal reported {torn:?}"),
        }
    }
    assert!(deltas > 0, "the journal must hold delta frames");

    // The segment header is load-bearing: bytes without it are not a
    // journal, torn or otherwise.
    for i in 0..4 {
        let mut bad = bytes.clone();
        bad[i] ^= 0xFF;
        assert!(
            DetectorSession::restore_from_journal(&bad).is_err(),
            "journal magic flip at byte {i} was accepted"
        );
    }
    // Header-only journal: no snapshot frame to restore from, which is
    // the journal's fault, not a malformed checkpoint's.
    let no_snapshot = |result: Result<DetectorSession, RestoreError>| match result {
        Err(RestoreError::Io(detail)) => detail.contains("no snapshot frame"),
        _ => false,
    };
    assert!(no_snapshot(DetectorSession::restore_from_journal(
        &bytes[..6]
    )));
    // A cut one byte short of the end tears the final frame: recovery
    // rolls back exactly one quantum instead of failing.
    let torn = DetectorSession::restore_from_journal(&bytes[..bytes.len() - 1])
        .expect("torn tail recovers");
    assert_eq!(torn.quanta_processed(), quanta - 1);
    // Arbitrary truncations never panic and never restore *ahead* of the
    // cut; they fail only while the initial snapshot frame is incomplete.
    for cut in (7..bytes.len()).step_by(991) {
        if let Ok(recovered) = DetectorSession::restore_from_journal(&bytes[..cut]) {
            assert!(recovered.quanta_processed() <= quanta, "cut at {cut}");
        }
    }
    // Corrupting the first frame's tag byte breaks its checksum, so the
    // journal has no valid snapshot frame left: rejected.
    let mut bad = bytes.clone();
    let tag_offset = 6; // magic(4) + version(1) + format(1)
    bad[tag_offset] = 9;
    assert!(no_snapshot(DetectorSession::restore_from_journal(&bad)));
}
