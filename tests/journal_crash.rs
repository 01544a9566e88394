//! Kill-at-any-byte crash recovery for the durable WAL.
//!
//! The central property: for a journal written under a real workload,
//! truncate the on-disk segment chain at **every frame boundary** plus a
//! ChaCha8-seeded sample of mid-frame offsets, and after each cut
//! [`DetectorSession::restore_from_dir`] must recover to the last fully
//! durable quantum — never panicking, never erroring on a torn tail, and
//! never silently dropping a frame that survived the cut.  Resuming the
//! recovered session over the remaining stream must then be
//! **bit-identical** to the uninterrupted run (summary stream and final
//! binary checkpoint), across `Parallelism` × `WindowIndexMode`.
//!
//! When a cut case fails, the truncated journal directory is copied to
//! `target/journal-crash-repro/<case>/` before the panic propagates, so
//! CI can upload the exact reproducer as a workflow artifact.
//!
//! Around the central property: rotation edge cases (threshold exactly at
//! a frame boundary, one-frame segments, empty trailing segments),
//! startup, rebase-time and explicit-sync compaction, and
//! durable-vs-in-memory restore equivalence.

use std::fs;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use dengraph_core::{
    CheckpointMode, DetectorBuilder, DetectorConfig, DetectorSession, DurableJournalConfig,
    FsyncPolicy, JournalFrameEvent, JournalReader, Parallelism, QuantumSummary, WindowIndexMode,
    WireFormat,
};
use dengraph_stream::generator::profiles::{tw_profile, ProfileScale};
use dengraph_stream::{Message, StreamGenerator, Trace};

// ---------------------------------------------------------------------------
// Scratch directories and journal surgery
// ---------------------------------------------------------------------------

/// A fresh (removed-if-present) scratch directory under the OS temp dir,
/// unique per test process and label.
fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dengraph-journal-crash-{}-{label}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The journal's segment files under `dir`, in sequence order.
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("journal directory exists")
        .map(|entry| entry.expect("directory entry reads").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "dgj"))
        .collect();
    files.sort();
    files
}

/// Copies every regular file in `src` into a fresh `dst`.
fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).expect("scratch copy dir creates");
    for entry in fs::read_dir(src).expect("source dir reads") {
        let path = entry.expect("directory entry reads").path();
        if path.is_file() {
            fs::copy(&path, dst.join(path.file_name().expect("file name")))
                .expect("segment copies");
        }
    }
}

/// Simulates a crash at global byte offset `cut` of the segment chain:
/// the segment containing the offset is truncated mid-file and every
/// later segment is deleted (a killed process never wrote them).
fn truncate_at(dir: &Path, cut: u64) {
    let mut base = 0u64;
    let mut kill_rest = false;
    for path in segment_files(dir) {
        if kill_rest {
            fs::remove_file(&path).expect("later segment removes");
            continue;
        }
        let len = fs::metadata(&path).expect("segment metadata").len();
        if cut <= base {
            fs::remove_file(&path).expect("segment at cut removes");
            kill_rest = true;
        } else if cut < base + len {
            fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .expect("segment opens for truncation")
                .set_len(cut - base)
                .expect("segment truncates");
            kill_rest = true;
        }
        base += len;
    }
}

/// One frame's byte range in the global (concatenated-segments) offset
/// space. Segment headers fall between `end` of one span and `start` of
/// the next.
#[derive(Debug, Clone, Copy)]
struct FrameSpan {
    start: u64,
    end: u64,
    is_snapshot: bool,
}

/// Walks the segment chain with [`JournalReader`] and returns every
/// frame's global byte span plus the total chain length.  Panics on any
/// torn frame: the reference journal must be clean.
fn layout(dir: &Path) -> (Vec<FrameSpan>, u64) {
    let mut spans = Vec::new();
    let mut base = 0u64;
    for path in segment_files(dir) {
        let bytes = fs::read(&path).expect("segment reads");
        let mut reader = JournalReader::new(&bytes).expect("segment header parses");
        let mut prev = reader.pos() as u64;
        loop {
            let is_snapshot = match reader.next_frame() {
                JournalFrameEvent::Snapshot(_) => true,
                JournalFrameEvent::Delta(_) => false,
                JournalFrameEvent::End => break,
                JournalFrameEvent::Torn { offset, reason } => {
                    panic!("reference journal torn at {offset} in {path:?}: {reason}")
                }
            };
            let end = reader.pos() as u64;
            spans.push(FrameSpan {
                start: base + prev,
                end: base + end,
                is_snapshot,
            });
            prev = end;
        }
        base += bytes.len() as u64;
    }
    (spans, base)
}

// ---------------------------------------------------------------------------
// Reference runs
// ---------------------------------------------------------------------------

/// Byte-level comparison of everything a summary reports (Debug output
/// covers every field; float formatting is shortest-round-trip, so two
/// ranks print identically iff they are bit-identical).
fn canonical(summaries: &[QuantumSummary]) -> String {
    format!("{summaries:#?}")
}

struct Reference {
    summaries: Vec<QuantumSummary>,
    final_checkpoint: Vec<u8>,
    quanta: u64,
}

/// Runs `messages` through a durably journaled session writing into
/// `dir`, returning the per-quantum summary stream and the final binary
/// checkpoint as the bit-identity reference.  The journal is left
/// un-synced: `sync_journal` compacts, and the kill matrix needs every
/// frame since the initial snapshot (reads go through the page cache, so
/// nothing here depends on the sync).
fn run_journaled(
    trace: &Trace,
    messages: &[Message],
    config: &DetectorConfig,
    dir: &Path,
    durable: DurableJournalConfig,
) -> Reference {
    let mut session = DetectorBuilder::from_config(config.clone())
        .interner(trace.interner.clone())
        .durable_journal(dir, durable)
        .build()
        .expect("valid config and writable journal dir");
    let mut summaries = Vec::new();
    for message in messages {
        summaries.extend(session.push_message(message.clone()));
    }
    assert!(
        session.journal_io_error().is_none(),
        "journal append failed: {:?}",
        session.journal_io_error()
    );
    // Deep-check the detector state and re-read the whole segment chain
    // (headers, CRCs, delta quantum ordering) before using it as the
    // crash-matrix reference.
    session
        .validate_invariants()
        .expect("reference session and journal must be structurally sound");
    Reference {
        summaries,
        final_checkpoint: session.checkpoint_bytes(WireFormat::Binary),
        quanta: session.quanta_processed(),
    }
}

/// Where failing-case reproducers are stashed for the CI artifact upload.
fn repro_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/journal-crash-repro")
}

// ---------------------------------------------------------------------------
// The kill-at-any-byte matrix
// ---------------------------------------------------------------------------

const QUANTA: usize = 12;

fn crash_matrix_config(parallelism: Parallelism, mode: WindowIndexMode) -> DetectorConfig {
    DetectorConfig::nominal()
        .with_window_quanta(6)
        .with_parallelism(parallelism)
        .with_window_index_mode(mode)
}

/// Restores from the truncated journal at `case_dir` and checks the full
/// recovery contract for a cut at global offset `cut`.
fn check_cut(
    case_dir: &Path,
    cut: u64,
    spans: &[FrameSpan],
    trace: &Trace,
    messages: &[Message],
    config: &DetectorConfig,
    reference: &Reference,
) {
    let quantum = config.quantum_size;
    // Frames wholly before the cut survive; everything else is gone.
    let durable_frames = spans.iter().filter(|span| span.end <= cut).count();
    if durable_frames == 0 {
        // Nothing recoverable: no complete snapshot frame (or not even a
        // complete first-segment header) is a hard error, not a silent
        // empty detector.
        assert!(
            DetectorSession::restore_from_dir(case_dir).is_err(),
            "cut at {cut}: restore succeeded with no durable snapshot"
        );
        return;
    }

    let (mut resumed, report) = DetectorSession::restore_from_dir_with_report(case_dir)
        .unwrap_or_else(|e| panic!("cut at {cut}: restore failed: {e}"));
    // Frame 1 is the initial snapshot (quantum 0); every later frame
    // records exactly one quantum, whether as a delta or a rebase
    // snapshot.
    let expect_quanta = durable_frames as u64 - 1;
    assert_eq!(
        resumed.quanta_processed(),
        expect_quanta,
        "cut at {cut}: recovered to the wrong quantum"
    );
    assert_eq!(report.recovered_quantum, expect_quanta);
    assert_eq!(report.frames_recovered, durable_frames);
    // A cut on a frame boundary is indistinguishable from a clean stop;
    // a cut inside a frame must be reported as a torn write.
    let mid_frame = spans.iter().any(|span| span.start < cut && cut < span.end);
    assert_eq!(
        report.torn.is_some(),
        mid_frame,
        "cut at {cut}: torn-write report mismatch ({:?})",
        report.torn
    );

    // Resume over the rest of the stream: bit-identical to the
    // uninterrupted run from the recovered quantum onwards.
    let resume_at = resumed.total_messages() as usize + resumed.buffered_messages();
    assert_eq!(
        resume_at,
        expect_quanta as usize * quantum,
        "cut at {cut}: recovery resumed mid-quantum"
    );
    let mut tail = Vec::new();
    for message in &messages[resume_at..] {
        tail.extend(resumed.push_message(message.clone()));
    }
    assert_eq!(
        canonical(&reference.summaries[expect_quanta as usize..]),
        canonical(&tail),
        "cut at {cut}: resumed summary stream diverged"
    );
    assert_eq!(
        reference.final_checkpoint,
        resumed.checkpoint_bytes(WireFormat::Binary),
        "cut at {cut}: final checkpoint not bit-identical after resume"
    );
    resumed
        .validate_invariants()
        .unwrap_or_else(|e| panic!("cut at {cut}: resumed state violates invariants: {e}"));
    let _ = trace; // interner lives in the restored checkpoint
}

#[test]
fn kill_at_any_byte_recovers_to_last_durable_quantum() {
    let trace = StreamGenerator::new(tw_profile(71, ProfileScale::Small)).generate();
    let durable = DurableJournalConfig {
        mode: CheckpointMode::Delta { every: 4 },
        format: WireFormat::Binary,
        fsync: FsyncPolicy::Never,
        segment_bytes: 16 * 1024,
    };

    for (case, (parallelism, mode)) in [
        (Parallelism::Serial, WindowIndexMode::Incremental),
        (Parallelism::Serial, WindowIndexMode::Rebuild),
        (Parallelism::Threads(4), WindowIndexMode::Incremental),
        (Parallelism::Threads(4), WindowIndexMode::Rebuild),
    ]
    .into_iter()
    .enumerate()
    {
        let config = crash_matrix_config(parallelism, mode);
        let messages = &trace.messages[..QUANTA * config.quantum_size];
        let label = format!("{parallelism}-{mode:?}").to_lowercase();
        let dir = scratch_dir(&format!("kill-{label}"));
        let reference = run_journaled(&trace, messages, &config, &dir, durable);
        assert_eq!(reference.quanta, QUANTA as u64);

        let (spans, total) = layout(&dir);
        assert_eq!(
            spans.len(),
            QUANTA + 1,
            "{label}: initial snapshot + one frame per quantum"
        );
        assert!(
            segment_files(&dir).len() > 1,
            "{label}: workload must span multiple segments to exercise rotation"
        );
        assert_eq!(spans.last().expect("frames exist").end, total);

        // Every frame boundary, the pre-snapshot prefix, and a seeded
        // mid-frame sample (including mid-header offsets of frame 1).
        let mut rng = ChaCha8Rng::seed_from_u64(0xC8A5_0000 + case as u64);
        let mut cuts: Vec<u64> = vec![0, 3, spans[0].start];
        cuts.extend(spans.iter().map(|span| span.end));
        for span in spans.iter() {
            if span.end - span.start > 2 {
                cuts.push(rng.gen_range(span.start + 1..span.end));
            }
        }

        for cut in cuts {
            let case_dir = scratch_dir(&format!("kill-{label}-cut{cut}"));
            copy_dir(&dir, &case_dir);
            truncate_at(&case_dir, cut);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                check_cut(
                    &case_dir, cut, &spans, &trace, messages, &config, &reference,
                );
            }));
            if let Err(panic) = outcome {
                // Stash the exact truncated journal for the CI artifact
                // upload, then let the failure propagate.
                let repro = repro_root().join(format!("{label}-cut{cut}"));
                let _ = fs::remove_dir_all(&repro);
                copy_dir(&case_dir, &repro);
                eprintln!("reproducer saved to {}", repro.display());
                resume_unwind(panic);
            }
            let _ = fs::remove_dir_all(&case_dir);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Rotation and compaction edge cases
// ---------------------------------------------------------------------------

fn edge_config() -> DetectorConfig {
    DetectorConfig::nominal().with_window_quanta(6)
}

#[test]
fn degenerate_threshold_yields_one_frame_per_segment() {
    let trace = StreamGenerator::new(tw_profile(72, ProfileScale::Small)).generate();
    let config = edge_config();
    let messages = &trace.messages[..8 * config.quantum_size];
    let dir = scratch_dir("one-frame-segments");
    let durable = DurableJournalConfig {
        mode: CheckpointMode::Delta { every: 100 },
        fsync: FsyncPolicy::Never,
        segment_bytes: 1,
        ..DurableJournalConfig::default()
    };
    let reference = run_journaled(&trace, messages, &config, &dir, durable);

    // Initial snapshot + 8 delta frames, each in its own segment.
    assert_eq!(segment_files(&dir).len(), 9);
    let (spans, _) = layout(&dir);
    assert_eq!(spans.len(), 9);

    let resumed = DetectorSession::restore_from_dir(&dir).expect("chain of 9 segments restores");
    assert_eq!(resumed.quanta_processed(), reference.quanta);
    assert_eq!(
        resumed.checkpoint_bytes(WireFormat::Binary),
        reference.final_checkpoint
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn rotation_exactly_at_frame_boundary() {
    let trace = StreamGenerator::new(tw_profile(73, ProfileScale::Small)).generate();
    let config = edge_config();
    let messages = &trace.messages[..6 * config.quantum_size];

    // Pass 1: one huge segment, to measure where frame 1 (the initial
    // snapshot) ends.
    let probe_dir = scratch_dir("rotation-probe");
    let durable = DurableJournalConfig {
        mode: CheckpointMode::Delta { every: 100 },
        fsync: FsyncPolicy::Never,
        ..DurableJournalConfig::default()
    };
    run_journaled(&trace, messages, &config, &probe_dir, durable);
    let (probe_spans, _) = layout(&probe_dir);
    let snapshot_end = probe_spans[0].end;
    let _ = fs::remove_dir_all(&probe_dir);

    // Pass 2: the threshold lands exactly on that frame boundary, so the
    // first rotation must trigger on the very next append — segment 1
    // holds exactly the snapshot, segment 2 starts with the quantum-1
    // delta, and no byte is ever split across segments.
    let dir = scratch_dir("rotation-exact");
    let reference = run_journaled(
        &trace,
        messages,
        &config,
        &dir,
        DurableJournalConfig {
            segment_bytes: snapshot_end,
            ..durable
        },
    );
    let files = segment_files(&dir);
    assert!(files.len() > 1, "threshold at frame boundary must rotate");
    let first = fs::read(&files[0]).expect("first segment reads");
    assert_eq!(first.len() as u64, snapshot_end);
    let mut reader = JournalReader::new(&first).expect("header parses");
    assert!(matches!(
        reader.next_frame(),
        JournalFrameEvent::Snapshot(_)
    ));
    assert!(matches!(reader.next_frame(), JournalFrameEvent::End));

    let resumed = DetectorSession::restore_from_dir(&dir).expect("rotated journal restores");
    assert_eq!(resumed.quanta_processed(), reference.quanta);
    assert_eq!(
        resumed.checkpoint_bytes(WireFormat::Binary),
        reference.final_checkpoint
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn empty_trailing_segments_recover_cleanly() {
    let trace = StreamGenerator::new(tw_profile(74, ProfileScale::Small)).generate();
    let config = edge_config();
    let messages = &trace.messages[..4 * config.quantum_size];
    let dir = scratch_dir("empty-trailing");
    let reference = run_journaled(
        &trace,
        messages,
        &config,
        &dir,
        DurableJournalConfig {
            fsync: FsyncPolicy::Never,
            ..DurableJournalConfig::default()
        },
    );
    let files = segment_files(&dir);
    let last_seq: u64 = files
        .last()
        .and_then(|p| p.file_stem()?.to_str()?.strip_prefix("seg-")?.parse().ok())
        .expect("segment names parse");

    // A header-only trailing segment (crash right after rotation wrote
    // the 6-byte segment header): scans to a clean end, zero frames, no
    // torn write.
    let header: Vec<u8> = fs::read(&files[0]).expect("segment reads")[..6].to_vec();
    fs::write(dir.join(format!("seg-{:08}.dgj", last_seq + 1)), &header)
        .expect("header-only segment writes");
    let (resumed, report) =
        DetectorSession::restore_from_dir_with_report(&dir).expect("header-only tail restores");
    assert_eq!(resumed.quanta_processed(), reference.quanta);
    assert!(report.torn.is_none(), "{:?}", report.torn);

    // A zero-byte trailing segment (crash between `create_new` and the
    // header write): reported as a torn tail, recovery still complete.
    fs::write(dir.join(format!("seg-{:08}.dgj", last_seq + 2)), b"")
        .expect("zero-byte segment writes");
    let (resumed, report) =
        DetectorSession::restore_from_dir_with_report(&dir).expect("zero-byte tail restores");
    assert_eq!(resumed.quanta_processed(), reference.quanta);
    assert!(report.torn.is_some(), "zero-byte tail must report as torn");
    assert_eq!(
        resumed.checkpoint_bytes(WireFormat::Binary),
        reference.final_checkpoint
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn startup_compaction_drops_segments_behind_the_fresh_snapshot() {
    let trace = StreamGenerator::new(tw_profile(75, ProfileScale::Small)).generate();
    let config = edge_config();
    let messages = &trace.messages[..6 * config.quantum_size];
    let dir = scratch_dir("startup-compaction");
    let reference = run_journaled(
        &trace,
        messages,
        &config,
        &dir,
        DurableJournalConfig {
            mode: CheckpointMode::Delta { every: 100 },
            fsync: FsyncPolicy::Never,
            segment_bytes: 1,
            ..DurableJournalConfig::default()
        },
    );
    assert_eq!(segment_files(&dir).len(), 7);

    // Re-opening the directory durably snapshots the restored state into
    // a fresh segment and drops every segment behind it.
    let mut resumed = DetectorSession::restore_from_dir(&dir).expect("restores before re-open");
    assert_eq!(resumed.quanta_processed(), reference.quanta);
    resumed
        .enable_durable_journal(
            &dir,
            DurableJournalConfig {
                fsync: FsyncPolicy::EveryFrame,
                ..DurableJournalConfig::default()
            },
        )
        .expect("re-opens durably");
    let files = segment_files(&dir);
    assert_eq!(
        files.len(),
        1,
        "startup compaction must drop stale segments"
    );

    // The surviving chain still restores, including quanta appended after
    // the re-open.
    for message in &trace.messages[messages.len()..8 * config.quantum_size] {
        resumed.push_message(message.clone());
    }
    assert!(resumed.journal_io_error().is_none());
    drop(resumed);
    let again = DetectorSession::restore_from_dir(&dir).expect("compacted journal restores");
    assert_eq!(again.quanta_processed(), 8);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn rebase_compaction_leaves_a_restorable_snapshot_with_zero_trailing_deltas() {
    let trace = StreamGenerator::new(tw_profile(76, ProfileScale::Small)).generate();
    let config = edge_config();
    // Delta{every:2}: quanta 1-2 are deltas, quantum 3 rebases.  Stop
    // exactly there: the rebase snapshot is the final frame, zero deltas
    // past it, and (fsync != Never) rebase-time compaction has pruned the
    // chain.
    let messages = &trace.messages[..3 * config.quantum_size];
    let dir = scratch_dir("rebase-compaction");
    let reference = run_journaled(
        &trace,
        messages,
        &config,
        &dir,
        DurableJournalConfig {
            mode: CheckpointMode::Delta { every: 2 },
            fsync: FsyncPolicy::EveryFrame,
            segment_bytes: 1,
            ..DurableJournalConfig::default()
        },
    );

    let (spans, _) = layout(&dir);
    let last = spans.last().expect("frames exist");
    assert!(last.is_snapshot, "final frame must be the rebase snapshot");
    assert!(
        spans.iter().all(|span| span.is_snapshot),
        "rebase-time compaction must drop every pre-rebase segment \
         (found {} frames)",
        spans.len()
    );

    let (resumed, report) =
        DetectorSession::restore_from_dir_with_report(&dir).expect("compacted journal restores");
    assert_eq!(resumed.quanta_processed(), reference.quanta);
    assert_eq!(report.deltas_replayed, 0);
    assert_eq!(
        resumed.checkpoint_bytes(WireFormat::Binary),
        reference.final_checkpoint
    );
    let _ = fs::remove_dir_all(&dir);
}

/// `FsyncPolicy::Never` skips the sync (and so the compaction) at every
/// rebase and at every rotation; `sync_journal` is its documented
/// explicit sync point and must shed the dead segments itself — it used
/// to leave every one of them in place until the next start-up.
#[test]
fn explicit_sync_compacts_a_never_journal_behind_its_latest_snapshot() {
    let trace = StreamGenerator::new(tw_profile(79, ProfileScale::Small)).generate();
    let config = edge_config();
    let split = 11 * config.quantum_size;
    let dir = scratch_dir("never-sync-compaction");
    // Delta{every:4}: rebases at quanta 5 and 10; a small threshold
    // rotates several times between them and once more after the last.
    let mut session = DetectorBuilder::from_config(config.clone())
        .interner(trace.interner.clone())
        .durable_journal(
            &dir,
            DurableJournalConfig {
                mode: CheckpointMode::Delta { every: 4 },
                fsync: FsyncPolicy::Never,
                segment_bytes: 4 * 1024,
                ..DurableJournalConfig::default()
            },
        )
        .build()
        .expect("valid config and writable journal dir");
    for message in &trace.messages[..split] {
        session.push_message(message.clone());
    }
    assert!(session.journal_io_error().is_none());
    let (before, _) = layout(&dir);
    assert_eq!(before.len(), 12, "initial snapshot + one frame per quantum");
    let segments_before = segment_files(&dir).len();
    assert!(segments_before >= 4, "the journal must have rotated");

    session.sync_journal().expect("journal syncs and compacts");
    session
        .validate_invariants()
        .expect("compacted journal is structurally sound");

    // Everything behind the quantum-10 rebase is gone: the chain now
    // opens with that snapshot and holds only the delta after it.
    let (after, _) = layout(&dir);
    assert!(segment_files(&dir).len() < segments_before);
    assert!(after[0].is_snapshot, "the chain must open with the rebase");
    assert_eq!(
        after.iter().filter(|span| span.is_snapshot).count(),
        1,
        "only the latest snapshot survives"
    );
    assert_eq!(
        after.len(),
        2,
        "the rebase snapshot and the quantum-11 delta"
    );

    // What survives restores to the live state and continues identically.
    let (mut resumed, report) =
        DetectorSession::restore_from_dir_with_report(&dir).expect("compacted journal restores");
    assert!(report.torn.is_none(), "{:?}", report.torn);
    assert_eq!(report.deltas_replayed, 1);
    assert_eq!(resumed.quanta_processed(), session.quanta_processed());
    assert_eq!(
        resumed.checkpoint_bytes(WireFormat::Binary),
        session.checkpoint_bytes(WireFormat::Binary)
    );
    let (mut live_tail, mut resumed_tail) = (Vec::new(), Vec::new());
    for message in &trace.messages[split..split + 4 * config.quantum_size] {
        live_tail.extend(session.push_message(message.clone()));
        resumed_tail.extend(resumed.push_message(message.clone()));
    }
    assert_eq!(live_tail.len(), 4);
    assert_eq!(canonical(&live_tail), canonical(&resumed_tail));
    assert_eq!(
        resumed.checkpoint_bytes(WireFormat::Binary),
        session.checkpoint_bytes(WireFormat::Binary),
        "continuation not bit-identical"
    );

    // The live journal keeps appending to the compacted chain.
    assert!(session.journal_io_error().is_none());
    let again = DetectorSession::restore_from_dir(&dir).expect("extended journal restores");
    assert_eq!(again.quanta_processed(), session.quanta_processed());
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Policy smoke and durable/in-memory equivalence
// ---------------------------------------------------------------------------

#[test]
fn every_fsync_policy_produces_a_restorable_journal() {
    let trace = StreamGenerator::new(tw_profile(77, ProfileScale::Small)).generate();
    let config = edge_config();
    let messages = &trace.messages[..4 * config.quantum_size];
    for (idx, fsync) in [
        FsyncPolicy::Never,
        FsyncPolicy::EveryFrame,
        FsyncPolicy::EveryN { n: 3 },
    ]
    .into_iter()
    .enumerate()
    {
        let dir = scratch_dir(&format!("fsync-{idx}"));
        let reference = run_journaled(
            &trace,
            messages,
            &config,
            &dir,
            DurableJournalConfig {
                fsync,
                ..DurableJournalConfig::default()
            },
        );
        let resumed = DetectorSession::restore_from_dir(&dir)
            .unwrap_or_else(|e| panic!("{fsync:?}: restore failed: {e}"));
        assert_eq!(resumed.quanta_processed(), reference.quanta, "{fsync:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn durable_restore_matches_in_memory_journal_restore() {
    let trace = StreamGenerator::new(tw_profile(78, ProfileScale::Small)).generate();
    let config = edge_config();
    let messages = &trace.messages[..6 * config.quantum_size];
    let mode = CheckpointMode::Delta { every: 3 };

    let mut memory = DetectorBuilder::from_config(config.clone())
        .interner(trace.interner.clone())
        .journal(mode)
        .build()
        .expect("valid config");
    for message in messages {
        memory.push_message(message.clone());
    }
    let bytes = memory
        .journal()
        .expect("journal enabled")
        .memory_bytes()
        .expect("in-memory journal")
        .to_vec();
    let from_memory = DetectorSession::restore_from_journal(&bytes).expect("memory restores");

    let dir = scratch_dir("durable-vs-memory");
    run_journaled(
        &trace,
        messages,
        &config,
        &dir,
        DurableJournalConfig {
            mode,
            fsync: FsyncPolicy::Never,
            segment_bytes: 4 * 1024,
            ..DurableJournalConfig::default()
        },
    );
    let from_disk = DetectorSession::restore_from_dir(&dir).expect("durable restores");

    assert_eq!(from_memory.quanta_processed(), from_disk.quanta_processed());
    assert_eq!(
        from_memory.checkpoint_bytes(WireFormat::Binary),
        from_disk.checkpoint_bytes(WireFormat::Binary),
        "durable and in-memory journals must restore bit-identical state"
    );
    let _ = fs::remove_dir_all(&dir);
}
