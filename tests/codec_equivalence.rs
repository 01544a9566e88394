//! The codec contract, per state struct.
//!
//! Every serialisable state struct supports two wire formats behind the
//! [`Encode`]/[`Decode`] traits: JSON (the debugging / cross-version
//! fallback) and the compact binary format.  For each struct a
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
use dengraph_core::keyword_state::{KeywordStateMachine, QuantumRecord, WindowState};
use dengraph_core::wal::{JournalFrameEvent, JournalReader};
use dengraph_core::{
    CheckpointMode, DeltaRecord, DetectedEvent, DetectorBuilder, DetectorConfig, DetectorSession,
    EventTracker, GraphDelta, Parallelism, WindowIndexMode, WireFormat,
};
use dengraph_graph::{ComponentIndex, DynamicGraph, NodeId};
use dengraph_json::{Decode, Encode};
use dengraph_minhash::{MinHashSketch, UserHasher};
use dengraph_stream::generator::profiles::{tw_profile, ProfileScale};
use dengraph_stream::{Message, StreamGenerator, UserId};
use dengraph_text::KeywordId;

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
fn minhash_sketch_codecs_agree() {
    for case in 0..32u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0DEC_0000 + case);
        let hasher = UserHasher::new(rng.gen());
        let p = rng.gen_range(1..12usize);
        let ids: Vec<u64> = (0..rng.gen_range(0..40u64))
            .map(|_| rng.gen_range(0..1_000u64))
            .collect();
        let sketch = MinHashSketch::from_ids(p, &hasher, ids);
        assert_codecs_agree(&sketch, &format!("sketch case {case}"));
    }
}

#[test]
fn dynamic_graph_codecs_agree() {
    for case in 0..32u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0DEC_2000 + case);
        let mut graph = DynamicGraph::new();
        // The component index grown edge by edge beside the graph, as the
        // AKG maintainer keeps it.
        let mut index = ComponentIndex::new();
        for _ in 0..rng.gen_range(0..120u32) {
            let a = NodeId(rng.gen_range(0..25u32));
            let b = NodeId(rng.gen_range(0..25u32));
            if a == b {
                continue;
            }
            match rng.gen_range(0..5u32) {
                0 => {
                    if graph.remove_edge(a, b).is_some() {
                        index.remove_edge(&graph, a, b);
                    }
                }
                1 => {
                    graph.remove_node(a);
                    index.remove_node(&graph, a);
                }
                2 => {
                    graph.add_node(a);
                    index.add_node(a);
                }
                _ => {
                    if graph.add_edge(a, b, rng.gen_range(0.0..1.0f64)) {
                        index.add_edge(a, b);
                    }
                }
            }
        }
        assert_codecs_agree(&graph, &format!("graph case {case}"));
        assert_codecs_agree(&index, &format!("component index case {case}"));
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
        for mode in [WindowIndexMode::Rebuild, WindowIndexMode::Incremental] {
            let mut window =
                WindowState::with_mode(capacity, sketch_size, UserHasher::new(0xBEEF), mode);
            for q in 0..rng.gen_range(1..16u64) {
                window.push(QuantumRecord::from_messages(
                    q,
                    &random_messages(&mut rng, q),
                ));
            }
            assert_codecs_agree(&window, &format!("window case {case} mode {mode:?}"));
        }
    }
}

#[test]
fn keyword_state_machine_codecs_agree() {
    for case in 0..16u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0DEC_5000 + case);
        let mut machine = KeywordStateMachine::new();
        for _ in 0..rng.gen_range(0..200u32) {
            let k = KeywordId(rng.gen_range(0..400u32));
            if rng.gen_range(0..4u32) == 0 {
                machine.demote(k);
            } else {
                machine.observe(k, rng.gen_range(0..10usize), 4);
            }
        }
        assert_codecs_agree(&machine, &format!("state machine case {case}"));
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
            exact_edge_correlation: true,
            hysteresis: false,
            require_noun: false,
            rank_threshold_factor: 1.25,
            parallelism: Parallelism::Threads(4),
            window_index_mode: WindowIndexMode::Rebuild,
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
/// checkpoint exercises the optional word list too).
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
        from_json.checkpoint().to_json_string(),
        from_bin.checkpoint().to_json_string(),
        "the two formats decoded to different detectors"
    );
    assert_eq!(from_bin.quanta_processed(), session.quanta_processed());
    assert_eq!(from_bin.total_messages(), session.total_messages());
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

/// Corrupt size/id fields must be rejected *before* they can drive a
/// huge allocation: a sketch size near `u64::MAX` used to reach
/// `Vec::with_capacity` (capacity-overflow panic), and a keyword id near
/// `u32::MAX` used to resize an id-indexed column to billions of slots.
#[test]
fn binary_decoders_bound_corrupt_sizes_and_ids() {
    use dengraph_json::BinWriter;

    let mut w = BinWriter::new();
    w.u64(u64::MAX); // absurd sketch size p
    w.usize(0); // empty minima column
    assert!(MinHashSketch::decode(w.as_slice(), WireFormat::Binary).is_err());

    // A window rebuilds its index while decoding, one sketch per live
    // keyword: its sketch size is bounded before that.
    let mut w = BinWriter::new();
    w.usize(4); // capacity
    w.u64(1 << 40); // absurd window sketch size
    w.u64(7); // hasher seed
    w.byte(2); // incremental: a live list follows the records
    w.usize(0); // no records
    w.usize(1); // materialization threshold
    w.usize(0); // empty live list
    assert!(WindowState::decode(w.as_slice(), WireFormat::Binary).is_err());

    let mut w = BinWriter::new();
    w.usize(1); // one High keyword…
    w.u32(u32::MAX); // …with an id far beyond any real vocabulary
    assert!(KeywordStateMachine::decode(w.as_slice(), WireFormat::Binary).is_err());
    // Same guard on the JSON fallback decoder.
    let huge = dengraph_json::parse(&format!("{{\"high\":[{}]}}", u32::MAX)).unwrap();
    assert!(KeywordStateMachine::from_json(&huge).is_err());
}

/// Journal restore must *recover* from damage the CRC framing can
/// detect (torn tails roll back to the last durable quantum) while
/// still rejecting bytes that are not a journal at all.
#[test]
fn journal_restore_recovers_torn_tails_and_rejects_non_journals() {
    let trace = StreamGenerator::new(tw_profile(72, ProfileScale::Small)).generate();
    let mut session = DetectorBuilder::from_config(DetectorConfig::nominal().with_window_quanta(8))
        .build()
        .expect("valid config");
    session.enable_journal(CheckpointMode::Delta { every: 4 });
    for summary in session.run(&trace.messages) {
        assert_codecs_agree(&summary.akg_stats, "akg stats");
    }
    let quanta = session.quanta_processed();
    let bytes = session
        .journal()
        .expect("journal enabled")
        .memory_bytes()
        .expect("in-memory journal")
        .to_vec();
    let full = DetectorSession::restore_from_journal(&bytes).expect("clean journal restores");
    assert_eq!(full.quanta_processed(), quanta);
    // Every delta frame the journal holds decodes to a record both codecs
    // agree on.
    let mut reader = JournalReader::new(&bytes).expect("segment header");
    let mut deltas = 0;
    loop {
        match reader.next_frame() {
            JournalFrameEvent::Delta(payload) => {
                let record = DeltaRecord::decode(payload, reader.format()).expect("delta frame");
                assert_codecs_agree(&record, &format!("delta record {}", record.quantum()));
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
    // Header-only journal: no snapshot frame to restore from.
    assert!(DetectorSession::restore_from_journal(&bytes[..6]).is_err());
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
    assert!(DetectorSession::restore_from_journal(&bad).is_err());
}
