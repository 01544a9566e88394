//! The checkpoint/restore contract, at three levels.
//!
//! **State round-trips** — for every serialised state struct (dynamic
//! graph, sliding-window state incl. the incremental index, cluster
//! registry) a ChaCha8-seeded property loop asserts
//! `from_json(to_json(state)) == state` over randomly built instances
//! (the binary↔JSON equivalence loops live in
//! `tests/codec_equivalence.rs`).
//!
//! **Mid-stream equivalence** — the acceptance criterion of the session
//! API: run N quanta, checkpoint through a *durable wire form* (JSON
//! string, binary bytes, or a delta-checkpoint journal), restore into a
//! fresh session, run M more quanta — and the concatenated
//! `QuantumSummary` stream plus the final long-term event records must be
//! **bit-identical** to an uninterrupted N+M run.  Checked across window
//! sizes × `Parallelism` × `WindowIndexMode` × `CheckpointMode`, with the
//! full-snapshot split placed mid-quantum so the partial message buffer
//! round-trips too (journal restores resume at the last completed
//! quantum boundary and re-feed the partial tail).
//!
//! **Size targets** — the binary full checkpoint must be at most half
//! the JSON one, and steady-state journal delta records at least 10×
//! smaller than a binary full snapshot.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use dengraph_core::cluster::{edge_addition, edge_deletion, ClusterRegistry};
use dengraph_core::keyword_state::{QuantumRecord, WindowState};
use dengraph_core::{
    Checkpoint, CheckpointMode, DetectorBuilder, DetectorConfig, DetectorSession, Parallelism,
    QuantumSummary, VecSink, WindowIndexMode, WireFormat,
};
use dengraph_graph::{DynamicGraph, NodeId};
use dengraph_json::{Decode, Encode};
use dengraph_minhash::UserHasher;
use dengraph_stream::generator::profiles::{es_profile, tw_profile, ProfileScale};
use dengraph_stream::{Message, StreamGenerator, Trace, UserId};
use dengraph_text::KeywordId;

// ---------------------------------------------------------------------------
// State round-trips
// ---------------------------------------------------------------------------

#[test]
fn dynamic_graph_round_trips_under_random_workloads() {
    for case in 0..32u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC4EC_0000 + case);
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
        let back = DynamicGraph::from_json(&graph.to_json()).unwrap();
        assert_eq!(back, graph, "case {case}: graph diverged");
        // And through the string form (the durable representation).
        let text = dengraph_json::to_string(&graph.to_json());
        let back = DynamicGraph::from_json(&dengraph_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, graph, "case {case}: graph diverged via string");
    }
}

/// Builds a pseudo-random message quantum.
fn random_messages(rng: &mut ChaCha8Rng, quantum: u64) -> Vec<Message> {
    let count = if rng.gen_range(0..5u32) == 0 {
        0 // empty quantum: pure slide
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
fn window_state_round_trips_under_random_workloads() {
    for case in 0..24u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x71D0_1000 + case);
        let capacity = rng.gen_range(1..8usize);
        let sketch_size = rng.gen_range(2..20usize);
        for mode in [WindowIndexMode::Rebuild, WindowIndexMode::Incremental] {
            let mut window =
                WindowState::with_mode(capacity, sketch_size, UserHasher::new(0xBEEF), mode);
            let quanta = rng.gen_range(1..16u64);
            for q in 0..quanta {
                let messages = random_messages(&mut rng, q);
                window.push(QuantumRecord::from_messages(q, &messages));
            }
            let text = dengraph_json::to_string(&window.to_json());
            let back = WindowState::from_json(&dengraph_json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, window, "case {case} mode {mode:?}: window diverged");
            // Equality is over what the index serves; its rows — replayed
            // from the records — must also be what the records say.
            back.validate_invariants()
                .unwrap_or_else(|e| panic!("case {case} mode {mode:?}: {e}"));
            // Probe the reads the detector actually issues.
            for kw in (0..10u32).map(KeywordId) {
                assert_eq!(back.window_sketch(kw), window.window_sketch(kw));
                assert_eq!(back.window_user_set(kw), window.window_user_set(kw));
                assert_eq!(back.last_seen(kw), window.last_seen(kw));
            }
        }
    }
}

#[test]
fn cluster_registry_round_trips_under_random_workloads() {
    for case in 0..24u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC105_0000 + case);
        let mut graph = DynamicGraph::new();
        let mut registry = ClusterRegistry::new();
        for _ in 0..rng.gen_range(5..60u32) {
            let a = NodeId(rng.gen_range(0..12u32));
            let b = NodeId(rng.gen_range(0..12u32));
            if a == b {
                continue;
            }
            if rng.gen_range(0..4u32) == 0 {
                if graph.remove_edge(a, b).is_some() {
                    edge_deletion(&mut registry, a, b, 1);
                }
            } else if graph.add_edge(a, b, 1.0) {
                edge_addition(&graph, &mut registry, a, b, 0);
            }
        }
        registry.check_invariants().unwrap();
        let text = dengraph_json::to_string(&registry.to_json());
        let back = ClusterRegistry::from_json(&dengraph_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, registry, "case {case}: registry diverged");
        back.check_invariants().unwrap();
    }
}

// ---------------------------------------------------------------------------
// Mid-stream checkpoint/restore equivalence
// ---------------------------------------------------------------------------

/// Byte-level comparison of everything a summary reports (Debug output
/// covers every field; float formatting is shortest-round-trip, so two
/// ranks print identically iff they are bit-identical).
fn canonical(summaries: &[QuantumSummary]) -> String {
    format!("{summaries:#?}")
}

/// Deep-checks a restored session's persistent component index: it must
/// validate against the restored AKG, equal a from-scratch recompute of
/// that graph (canonical component form), and — since both wire formats
/// serialize the index verbatim — be bit-identical to the index of the
/// uninterrupted reference session.
fn assert_component_index_restored(
    uninterrupted: &DetectorSession,
    resumed: &DetectorSession,
    label: &str,
) {
    use dengraph_graph::ComponentIndex;
    let graph = resumed.detector().akg();
    let index = resumed.detector().component_index();
    index
        .validate_against(graph)
        .unwrap_or_else(|e| panic!("{label}: restored component index invalid: {e}"));
    assert!(
        *index == ComponentIndex::from_graph(graph),
        "{label}: restored component index differs from a from-scratch recompute"
    );
    assert!(
        index == uninterrupted.detector().component_index(),
        "{label}: restored component index differs from the uninterrupted session's"
    );
}

fn build(trace: &Trace, config: &DetectorConfig) -> DetectorSession {
    DetectorBuilder::from_config(config.clone())
        .interner(trace.interner.clone())
        .build()
        .expect("valid config")
}

/// Which durable wire form carries the state across the interruption.
#[derive(Debug, Clone, Copy)]
enum Cut {
    /// The JSON `Checkpoint` string (the debugging / fallback format).
    JsonString,
    /// `checkpoint_bytes(WireFormat::Binary)` → `restore_bytes`.
    BinaryBytes,
    /// A checkpoint journal written per quantum from the start of the
    /// run; restore replays the journal-tail deltas on top of the latest
    /// snapshot and resumes at the last completed quantum boundary.
    Journal(CheckpointMode),
}

/// A snapshot carries the window's records and live keyword ids, not its
/// index: the index a restore replays from them must equal the live one
/// and be what a walk over the records says it is.
fn assert_window_restored(live: &DetectorSession, restored: &DetectorSession) {
    assert!(live.detector().window() == restored.detector().window());
    restored
        .validate_invariants()
        .expect("a restored session's invariants hold");
}

/// Runs `messages[..split]`, carries the state across `cut`, restores a
/// fresh session and finishes the stream on it.  Returns the
/// concatenated summary stream and the restored session.
fn run_with_interruption(
    trace: &Trace,
    config: &DetectorConfig,
    split: usize,
    cut: Cut,
) -> (Vec<QuantumSummary>, DetectorSession) {
    let mut first = build(trace, config);
    if let Cut::Journal(mode) = cut {
        first.enable_journal(mode);
    }
    let mut summaries = Vec::new();
    for message in &trace.messages[..split] {
        summaries.extend(first.push_message(message.clone()));
    }
    let (mut second, resume_at) = match cut {
        Cut::JsonString => {
            let text = first.checkpoint().to_json_string();
            let checkpoint = Checkpoint::from_json_str(&text).expect("checkpoint parses");
            let second = DetectorSession::restore(&checkpoint).expect("checkpoint restores");
            assert_window_restored(&first, &second);
            (second, split)
        }
        Cut::BinaryBytes => {
            let bytes = first.checkpoint_bytes(WireFormat::Binary);
            let second = DetectorSession::restore_bytes(&bytes).expect("binary restores");
            assert_window_restored(&first, &second);
            (second, split)
        }
        Cut::Journal(_) => {
            let bytes = first
                .journal()
                .expect("journal enabled")
                .memory_bytes()
                .expect("in-memory journal")
                .to_vec();
            let second = DetectorSession::restore_from_journal(&bytes).expect("journal restores");
            second
                .validate_invariants()
                .expect("a recovered session's invariants hold");
            // Resume from the restored session's exact stream position:
            // processed messages plus any partial buffer the restored
            // snapshot still carries (the latter must not be re-fed).
            let resume_at = second.total_messages() as usize + second.buffered_messages();
            assert!(resume_at <= split, "journal cannot be ahead of the feed");
            (second, resume_at)
        }
    };
    for message in &trace.messages[resume_at..] {
        summaries.extend(second.push_message(message.clone()));
    }
    summaries.extend(second.flush());
    (summaries, second)
}

#[test]
fn mid_stream_restore_is_bit_identical_across_profiles() {
    let trace = StreamGenerator::new(tw_profile(61, ProfileScale::Small)).generate();
    // Mid-quantum split: the partial message buffer must survive the trip
    // (full-snapshot cuts), and journal restores must rewind to the last
    // quantum boundary correctly.
    let split = trace.messages.len() * 2 / 3 + 7;
    assert!(split < trace.messages.len());

    for window_quanta in [6usize, 12] {
        for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
            for mode in [WindowIndexMode::Rebuild, WindowIndexMode::Incremental] {
                let config = DetectorConfig::nominal()
                    .with_window_quanta(window_quanta)
                    .with_parallelism(parallelism)
                    .with_window_index_mode(mode);

                let mut uninterrupted = build(&trace, &config);
                let full = uninterrupted.run(&trace.messages);

                for cut in [
                    Cut::JsonString,
                    Cut::BinaryBytes,
                    Cut::Journal(CheckpointMode::Delta { every: 3 }),
                    Cut::Journal(CheckpointMode::Full),
                ] {
                    let label = format!("w={window_quanta} {parallelism} {mode:?} {cut:?}");
                    let (stitched, resumed) = run_with_interruption(&trace, &config, split, cut);

                    assert_eq!(
                        canonical(&full),
                        canonical(&stitched),
                        "{label}: summary stream diverged after restore"
                    );
                    assert_eq!(
                        format!("{:#?}", uninterrupted.event_records()),
                        format!("{:#?}", resumed.event_records()),
                        "{label}: long-term event records diverged after restore"
                    );
                    assert_eq!(uninterrupted.total_messages(), resumed.total_messages());
                    assert_eq!(uninterrupted.quanta_processed(), resumed.quanta_processed());
                    assert_component_index_restored(&uninterrupted, &resumed, &label);
                }
            }
        }
    }
}

/// The event-dense ES profile exercises merges, splits and stale removal
/// much harder than TW; one deep profile guards the corner cases.
#[test]
fn mid_stream_restore_is_bit_identical_on_event_dense_streams() {
    let trace = StreamGenerator::new(es_profile(62, ProfileScale::Small)).generate();
    let config = DetectorConfig::nominal().with_window_quanta(8);
    for fraction in [1, 2, 3] {
        let split = trace.messages.len() * fraction / 4 + 3;
        let mut uninterrupted = build(&trace, &config);
        let full = uninterrupted.run(&trace.messages);
        for cut in [
            Cut::JsonString,
            Cut::BinaryBytes,
            Cut::Journal(CheckpointMode::Delta { every: 5 }),
        ] {
            let (stitched, resumed) = run_with_interruption(&trace, &config, split, cut);
            assert_eq!(
                canonical(&full),
                canonical(&stitched),
                "split at {split} via {cut:?}: summary stream diverged"
            );
            assert_eq!(
                format!("{:#?}", uninterrupted.event_records()),
                format!("{:#?}", resumed.event_records()),
                "split at {split} via {cut:?}: event records diverged"
            );
            assert_component_index_restored(
                &uninterrupted,
                &resumed,
                &format!("split at {split} via {cut:?}"),
            );
        }
    }
}

/// A journal enabled *mid-quantum* opens with a snapshot that still
/// carries the partial message buffer.  Restoring from that journal
/// before any delta frame lands must not double-process the buffered
/// messages: the resume position is `total_messages() +
/// buffered_messages()`, and continuing from there is bit-identical to
/// the uninterrupted run.
#[test]
fn journal_enabled_mid_quantum_restores_without_double_processing() {
    let trace = StreamGenerator::new(tw_profile(65, ProfileScale::Small)).generate();
    let config = DetectorConfig::nominal().with_window_quanta(6);
    let quantum = config.quantum_size;
    // Stop mid-quantum with nothing journaled after the initial snapshot.
    let split = quantum * 3 + quantum / 2;

    let mut uninterrupted = build(&trace, &config);
    let full = uninterrupted.run(&trace.messages);

    let mut first = build(&trace, &config);
    let mut summaries = Vec::new();
    for message in &trace.messages[..split] {
        summaries.extend(first.push_message(message.clone()));
    }
    // Journaling starts here — mid-quantum, buffer half full.
    first.enable_journal(CheckpointMode::Delta { every: 4 });
    let bytes = first.journal().unwrap().memory_bytes().unwrap().to_vec();
    drop(first);

    let mut second = DetectorSession::restore_from_journal(&bytes).expect("journal restores");
    assert_eq!(second.buffered_messages(), quantum / 2, "buffer survives");
    let resume_at = second.total_messages() as usize + second.buffered_messages();
    assert_eq!(resume_at, split, "no message may be dropped or re-fed");
    for message in &trace.messages[resume_at..] {
        summaries.extend(second.push_message(message.clone()));
    }
    summaries.extend(second.flush());
    assert_eq!(
        canonical(&full),
        canonical(&summaries),
        "mid-quantum journal restore diverged"
    );
}

/// The size acceptance criteria of the codec layer: a binary full
/// checkpoint at most half the JSON one, and steady-state delta records
/// at least 10× smaller than a binary full snapshot.
#[test]
fn binary_and_delta_checkpoints_meet_size_targets() {
    let trace = StreamGenerator::new(tw_profile(64, ProfileScale::Small)).generate();
    let config = DetectorConfig::nominal().with_window_quanta(12);
    let mut session = DetectorBuilder::from_config(config)
        .interner(trace.interner.clone())
        .build()
        .expect("valid config");
    // A rebase interval beyond the run length keeps every steady-state
    // entry a delta record.
    session.enable_journal(CheckpointMode::Delta { every: 10_000 });
    session.run(&trace.messages);

    let json = session.checkpoint_bytes(WireFormat::Json);
    let binary = session.checkpoint_bytes(WireFormat::Binary);
    assert_eq!(
        json.len(),
        session.checkpoint().to_json_string().len(),
        "json bytes form must match the Checkpoint string form"
    );
    assert!(
        binary.len() * 2 <= json.len(),
        "binary checkpoint {} exceeds half the json checkpoint {}",
        binary.len(),
        json.len()
    );

    let journal = session.journal().expect("journal enabled");
    assert_eq!(journal.snapshot_frames(), 1, "initial rebase only");
    assert!(journal.delta_frames() >= 10, "trace too short to judge");
    let mean_delta = journal.mean_delta_bytes();
    assert!(
        mean_delta * 10.0 <= binary.len() as f64,
        "mean delta record ({mean_delta:.0} bytes) is not 10x smaller than a \
         binary full snapshot ({} bytes)",
        binary.len()
    );
}

/// A restored session pushes to freshly attached sinks exactly what the
/// uninterrupted session pushes over the same suffix.
#[test]
fn restored_sessions_feed_sinks_identically() {
    use std::sync::{Arc, Mutex};

    let trace = StreamGenerator::new(tw_profile(63, ProfileScale::Small)).generate();
    let config = DetectorConfig::nominal().with_window_quanta(6);
    let split = trace.messages.len() / 2 + 5;

    // Uninterrupted session with a sink attached from the start.
    let mut full = build(&trace, &config);
    let full_sink = Arc::new(Mutex::new(VecSink::new()));
    full.attach_sink(Box::new(Arc::clone(&full_sink)));
    full.run(&trace.messages);

    // Interrupted twin: the sink is re-attached after restore.
    let mut first = build(&trace, &config);
    for message in &trace.messages[..split] {
        first.push_message(message.clone());
    }
    let checkpoint = first.checkpoint();
    let mut second = DetectorSession::restore(&checkpoint).unwrap();
    let resumed_sink = Arc::new(Mutex::new(VecSink::new()));
    second.attach_sink(Box::new(Arc::clone(&resumed_sink)));
    for message in &trace.messages[split..] {
        second.push_message(message.clone());
    }
    second.flush();

    let full_sink = full_sink.lock().unwrap();
    let resumed_sink = resumed_sink.lock().unwrap();
    let suffix_start = full_sink.summaries().len() - resumed_sink.summaries().len();
    assert!(
        !resumed_sink.summaries().is_empty(),
        "the suffix must process at least one quantum"
    );
    assert_eq!(
        canonical(&full_sink.summaries()[suffix_start..]),
        canonical(resumed_sink.summaries()),
        "sink-delivered summaries diverged after restore"
    );
}
