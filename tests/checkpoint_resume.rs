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
//! bytes, binary bytes, or a delta-checkpoint journal), restore into a
//! fresh session, run M more quanta — and the concatenated
//! `QuantumSummary` stream, the final long-term event records and the
//! final binary checkpoint must be **bit-identical** to an uninterrupted
//! N+M run.  Checked across window sizes × journal rebase cadences
//! (`rebase_every` 0, 1, 3 and one above the window, the shape of the
//! default 64 against a window of 30; every journal cut rebases at least
//! twice before the split), with the full-snapshot split placed
//! mid-quantum so the partial message buffer round-trips too (journal
//! restores resume at the last completed quantum boundary and re-feed the
//! partial tail).
//!
//! **Snapshot bytes** — a journal rebase copies the window records its
//! delta frames already encoded and packs the snapshot over the quanta
//! that follow; every snapshot frame it writes must still be exactly
//! `checkpoint_bytes(WireFormat::Binary)` of the state at its rebase, at
//! cadences below, at and above the window and right after a restore,
//! and must sit in the log behind the delta of the quantum its packing
//! ends at.
//!
//! **Size targets** — the binary full checkpoint must be at most half
//! the JSON one, and steady-state journal delta records at least 10×
//! smaller than a binary full snapshot.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use dengraph_core::cluster::{edge_addition, edge_deletion, ClusterRegistry};
use dengraph_core::keyword_state::{QuantumRecord, WindowState};
use dengraph_core::wal::{JournalFrameEvent, JournalReader};
use dengraph_core::{
    DeltaRecord, DetectorBuilder, DetectorConfig, DetectorSession, QuantumSummary, VecSink,
    WireFormat,
};
use dengraph_graph::{DynamicGraph, NodeId};
use dengraph_json::{Decode, Encode};
use dengraph_minhash::UserHasher;
use dengraph_stream::generator::profiles::{es_profile, tw_profile, ProfileScale};
use dengraph_stream::{Message, StreamGenerator, Trace, UserId};
use dengraph_tests::window::WindowReference;
use dengraph_text::KeywordId;

#[path = "support/temp_dir.rs"]
mod temp_dir;

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
        let back = DynamicGraph::from_json_admitting(&graph.to_json(), Ok::<_, String>).unwrap();
        assert_eq!(back, graph, "case {case}: graph diverged");
        // And through the string form (the durable representation).
        let text = dengraph_json::to_string(&graph.to_json());
        let back = DynamicGraph::from_json_admitting(
            &dengraph_json::parse(&text).unwrap(),
            Ok::<_, String>,
        )
        .unwrap();
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
        let mut window = WindowState::new(capacity, sketch_size, UserHasher::new(0xBEEF));
        let mut reference = WindowReference::new(capacity, sketch_size, UserHasher::new(0xBEEF), 1);
        let quanta = rng.gen_range(1..16u64);
        for q in 0..quanta {
            let messages = random_messages(&mut rng, q);
            window.push(QuantumRecord::from_messages(q, &messages));
            reference.push(q, &messages);
        }
        let text = dengraph_json::to_string(&window.to_json());
        let back = WindowState::from_json(&dengraph_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, window, "case {case}: window diverged");
        // Equality is over what the index serves; its rows — replayed
        // from the records — must also be what the records say.
        back.validate_invariants()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        // Probe the reads the detector actually issues.
        for (label, window) in [("original", &window), ("restored", &back)] {
            reference
                .check(window, (0..10u32).map(KeywordId))
                .unwrap_or_else(|e| panic!("case {case}, {label}: {e}"));
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

/// After the stream ends, the resumed session holds exactly the state of
/// the uninterrupted one — graph, registry, tracker, window and buffer —
/// byte for byte in the binary wire form.
fn assert_same_final_state(
    uninterrupted: &DetectorSession,
    resumed: &DetectorSession,
    label: &str,
) {
    assert!(
        uninterrupted.checkpoint_bytes(WireFormat::Binary)
            == resumed.checkpoint_bytes(WireFormat::Binary),
        "{label}: the resumed session's final state differs from the uninterrupted one's"
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
    /// `checkpoint_bytes(WireFormat::Json)` → `restore_bytes` (the
    /// debugging / fallback format).
    JsonBytes,
    /// `checkpoint_bytes(WireFormat::Binary)` → `restore_bytes`.
    BinaryBytes,
    /// A checkpoint journal written per quantum from the start of the
    /// run, with a rebase after every `rebase_every` quanta; restore
    /// replays the deltas after the latest written snapshot on top of it
    /// and resumes at the last completed quantum boundary.
    Journal(u32),
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
    let dir = temp_dir::scratch_dir("resume");
    if let Cut::Journal(rebase_every) = cut {
        first
            .enable_durable_journal(&dir, temp_dir::one_segment(rebase_every))
            .expect("journal opens");
    }
    let mut summaries = Vec::new();
    for message in &trace.messages[..split] {
        summaries.extend(first.push_message(message.clone()));
    }
    if let Some(journal) = first.journal() {
        assert!(
            journal.snapshot_frames() >= 3,
            "{cut:?}: only {} snapshots in the {} quanta before the cut",
            journal.snapshot_frames(),
            first.quanta_processed()
        );
    }
    let (mut second, resume_at) = match cut {
        Cut::JsonBytes | Cut::BinaryBytes => {
            let format = match cut {
                Cut::JsonBytes => WireFormat::Json,
                _ => WireFormat::Binary,
            };
            let bytes = first.checkpoint_bytes(format);
            let second = DetectorSession::restore_bytes(&bytes).expect("checkpoint restores");
            assert_window_restored(&first, &second);
            (second, split)
        }
        Cut::Journal(_) => {
            let second = DetectorSession::restore_from_dir(&dir).expect("journal restores");
            let _ = std::fs::remove_dir_all(&dir);
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
    // quantum boundary correctly.  After 34 quanta every journal cadence
    // below has written two rebase snapshots, and those of `Journal(1)`,
    // `Journal(0)` and `Journal(7)` (the window of 6 plus one) are
    // packing a third: their restores replay from the snapshot before it.
    let split = 34 * DetectorConfig::nominal().quantum_size + 7;
    assert!(split < trace.messages.len());

    for window_quanta in [6usize, 12] {
        let config = DetectorConfig::nominal().with_window_quanta(window_quanta);

        let mut uninterrupted = build(&trace, &config);
        let full = uninterrupted.run(&trace.messages);

        // `Journal(1)` snapshots after every delta; `Journal(0)` pins the
        // documented clamp to 1.  A cadence above the window is the only
        // shape in which a rebase finds every window record but its own
        // already encoded by a delta frame.
        for cut in [
            Cut::JsonBytes,
            Cut::BinaryBytes,
            Cut::Journal(3),
            Cut::Journal(1),
            Cut::Journal(0),
            Cut::Journal(window_quanta as u32 + 1),
        ] {
            let label = format!("w={window_quanta} {cut:?}");
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
            assert_same_final_state(&uninterrupted, &resumed, &label);
        }
    }
}

/// The event-dense ES profile exercises merges, splits and stale removal
/// much harder than TW; one deep profile guards the corner cases.
#[test]
fn mid_stream_restore_is_bit_identical_on_event_dense_streams() {
    let trace = StreamGenerator::new(es_profile(62, ProfileScale::Small)).generate();
    let window_quanta = 8;
    let config = DetectorConfig::nominal().with_window_quanta(window_quanta);
    // Splits a few messages into quantum 15, 25 and 37 of 50: each
    // journal has written two rebase snapshots by then, and at the last
    // two `Journal(5)` is packing another.
    for quanta in [15, 25, 37] {
        let split = quanta * config.quantum_size + 3;
        let mut uninterrupted = build(&trace, &config);
        let full = uninterrupted.run(&trace.messages);
        let mut cuts = vec![Cut::JsonBytes, Cut::BinaryBytes, Cut::Journal(5)];
        // The first split comes before a cadence above the window has
        // rebased twice.
        if quanta > 15 {
            cuts.push(Cut::Journal(window_quanta as u32 + 1));
        }
        for cut in cuts {
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
            assert_same_final_state(
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
    let dir = temp_dir::scratch_dir("mid-quantum");
    first
        .enable_durable_journal(&dir, temp_dir::one_segment(4))
        .expect("journal opens");
    drop(first);

    let mut second = DetectorSession::restore_from_dir(&dir).expect("journal restores");
    let _ = std::fs::remove_dir_all(&dir);
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

/// Streams `messages` into a `session` journaled at `rebase_every` and
/// appends, after every quantum that began a rebase (every
/// `rebase_every + 1`-th delta frame: it encodes a snapshot, whose frame
/// is written a few quanta later), the session's standalone binary
/// checkpoint of that state to `expected`.  Then syncs the journal,
/// which writes the snapshot frame of a rebase still packing.
fn feed_collecting_rebases(
    session: &mut DetectorSession,
    messages: &[Message],
    rebase_every: u32,
    expected: &mut Vec<Vec<u8>>,
) {
    let frames = |s: &DetectorSession| {
        let journal = s.journal().expect("journal enabled");
        (journal.delta_frames(), journal.snapshot_frames())
    };
    for message in messages {
        if session.push_message(message.clone()).is_some()
            && frames(session).0.is_multiple_of(rebase_every as usize + 1)
        {
            expected.push(session.checkpoint_bytes(WireFormat::Binary));
        }
    }
    session.sync_journal().expect("the journal syncs");
    assert_eq!(
        frames(session).1,
        expected.len(),
        "a sync writes the pending snapshot"
    );
}

/// The payloads of the snapshot frames in the one segment under `dir`,
/// in the order they were written.
fn snapshot_payloads(dir: &std::path::Path) -> Vec<Vec<u8>> {
    let bytes = temp_dir::only_file(dir);
    let mut reader = JournalReader::new(&bytes).expect("the segment header parses");
    let mut payloads = Vec::new();
    loop {
        match reader.next_frame() {
            JournalFrameEvent::Snapshot(payload) => payloads.push(payload.to_vec()),
            JournalFrameEvent::Delta(_) => {}
            JournalFrameEvent::End => return payloads,
            JournalFrameEvent::Torn { offset, reason } => {
                panic!("torn frame at byte {offset}: {reason}")
            }
        }
    }
}

/// A rebase writes each window record its delta frame already encoded by
/// copying those bytes, and encodes only the rest: its own record and
/// any from before the journal opened.  Whatever the mix, every snapshot
/// frame must be byte for byte the standalone checkpoint of the same
/// state — at cadences below, at and above the window, and for the first
/// rebases of a journal re-enabled after `restore_from_dir`, whose ring
/// starts empty under a full window.
#[test]
fn every_journal_snapshot_is_the_sessions_binary_checkpoint() {
    let trace = StreamGenerator::new(es_profile(66, ProfileScale::Small)).generate();
    let window_quanta = 6usize;
    let config = DetectorConfig::nominal().with_window_quanta(window_quanta);
    let split = trace.messages.len() * 2 / 3;
    let w = window_quanta as u32;
    for rebase_every in [2, w, 2 * w + 1] {
        let label = format!("rebase_every {rebase_every}, window {window_quanta}");
        let dir = temp_dir::scratch_dir("snapshot-bytes");
        let mut first = build(&trace, &config);
        first
            .enable_durable_journal(&dir, temp_dir::one_segment(rebase_every))
            .expect("journal opens");
        let mut expected = vec![first.checkpoint_bytes(WireFormat::Binary)];
        feed_collecting_rebases(
            &mut first,
            &trace.messages[..split],
            rebase_every,
            &mut expected,
        );
        assert!(
            expected.len() >= 3,
            "{label}: {} snapshots in {} quanta",
            expected.len(),
            first.quanta_processed()
        );
        assert!(
            snapshot_payloads(&dir) == expected,
            "{label}: a snapshot frame differs from the checkpoint of its state"
        );

        let mut second = DetectorSession::restore_from_dir(&dir).expect("journal restores");
        drop(first);
        let _ = std::fs::remove_dir_all(&dir);
        let resume_at = second.total_messages() as usize + second.buffered_messages();
        let dir = temp_dir::scratch_dir("snapshot-bytes-restored");
        second
            .enable_durable_journal(&dir, temp_dir::one_segment(rebase_every))
            .expect("journal reopens");
        let mut expected = vec![second.checkpoint_bytes(WireFormat::Binary)];
        feed_collecting_rebases(
            &mut second,
            &trace.messages[resume_at..],
            rebase_every,
            &mut expected,
        );
        assert!(
            expected.len() >= 2,
            "{label}, restored: {} snapshots",
            expected.len()
        );
        assert!(
            snapshot_payloads(&dir) == expected,
            "{label}, restored: a snapshot frame differs from the checkpoint of its state"
        );
        drop(second);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The frame layout of a rebase whose snapshot is packed over several
/// quanta, read back from the log: every quantum appends its own delta
/// frame, in quantum order; the snapshot of the rebase at quantum `Q`
/// (every `rebase_every + 1`-th quantum) is written right behind the
/// delta of `Q + spread`, where `spread` is `rebase_every / 2` capped at
/// 8; and its payload is `checkpoint_bytes(WireFormat::Binary)` taken
/// at the end of `Q`.
#[test]
fn a_rebase_writes_its_snapshot_behind_the_delta_spread_quanta_later() {
    const REBASE_EVERY: u64 = 16;
    const SPREAD: u64 = 8;
    let trace = StreamGenerator::new(es_profile(67, ProfileScale::Small)).generate();
    let config = DetectorConfig::nominal().with_window_quanta(6);
    let dir = temp_dir::scratch_dir("snapshot-layout");
    let mut session = build(&trace, &config);
    session
        .enable_durable_journal(&dir, temp_dir::one_segment(REBASE_EVERY as u32))
        .expect("journal opens");
    // `checkpoints[n]`: the state after `n` quanta.
    let mut checkpoints = vec![session.checkpoint_bytes(WireFormat::Binary)];
    for message in &trace.messages {
        if session.push_message(message.clone()).is_some() {
            checkpoints.push(session.checkpoint_bytes(WireFormat::Binary));
        }
    }
    let quanta = session.quanta_processed();
    drop(session);
    let bytes = temp_dir::only_file(&dir);
    let _ = std::fs::remove_dir_all(&dir);

    let mut reader = JournalReader::new(&bytes).expect("the segment header parses");
    // Delta frames read so far: the log holds quanta `0..deltas`.
    let (mut deltas, mut snapshots) = (0u64, 0u64);
    loop {
        match reader.next_frame() {
            JournalFrameEvent::Delta(payload) => {
                let record = DeltaRecord::decode(payload).expect("a delta frame decodes");
                assert_eq!(record.quantum(), deltas, "one delta frame per quantum");
                deltas += 1;
            }
            JournalFrameEvent::Snapshot(payload) => {
                // The opening snapshot precedes every delta; the k-th
                // rebase's state is that after k·(rebase_every + 1)
                // quanta, and its frame follows `SPREAD` more deltas.
                let state = snapshots * (REBASE_EVERY + 1);
                let behind = if snapshots == 0 { 0 } else { state + SPREAD };
                assert_eq!(
                    deltas, behind,
                    "snapshot {snapshots} follows the wrong delta"
                );
                assert!(
                    payload == checkpoints[state as usize],
                    "snapshot {snapshots} is not the checkpoint after {state} quanta"
                );
                snapshots += 1;
            }
            JournalFrameEvent::End => break,
            JournalFrameEvent::Torn { offset, reason } => {
                panic!("torn frame at byte {offset}: {reason}")
            }
        }
    }
    assert_eq!(deltas, quanta, "every quantum's delta is in the log");
    assert!(
        snapshots >= 3,
        "{snapshots} snapshots in {quanta} quanta: the run must rebase twice"
    );
}

/// The size acceptance criteria of the codec layer: a binary full
/// checkpoint at most half the JSON one, and steady-state delta records
/// at least 10× smaller than a binary full snapshot.
#[test]
fn binary_and_delta_checkpoints_meet_size_targets() {
    let trace = StreamGenerator::new(tw_profile(64, ProfileScale::Small)).generate();
    let config = DetectorConfig::nominal().with_window_quanta(12);
    // A rebase interval beyond the run length keeps every steady-state
    // entry a delta record.
    let dir = temp_dir::scratch_dir("size-targets");
    let mut session = DetectorBuilder::from_config(config)
        .interner(trace.interner.clone())
        .durable_journal(&dir, temp_dir::one_segment(10_000))
        .build()
        .expect("valid config and writable journal dir");
    session.run(&trace.messages);

    let json = session.checkpoint_bytes(WireFormat::Json);
    let binary = session.checkpoint_bytes(WireFormat::Binary);
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
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);
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
    let bytes = first.checkpoint_bytes(WireFormat::Json);
    let mut second = DetectorSession::restore_bytes(&bytes).unwrap();
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
