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
//! binary checkpoint).
//!
//! When a cut case fails, the truncated journal directory is copied to
//! `target/journal-crash-repro/<case>/` before the panic propagates, so
//! CI can upload the exact reproducer as a workflow artifact.
//!
//! The matrix's journal rebases twice, and each rebase packs its snapshot
//! over the two quanta after it, so its frame trails their deltas: cuts
//! fall between a rebase and its frame, where recovery replays the
//! rebase's quanta from the snapshot before.
//!
//! Around the central property: rotation edge cases (threshold exactly at
//! a frame boundary, one-frame segments, empty trailing segments),
//! startup, rebase-time and explicit-sync compaction (the sync writing a
//! snapshot still being packed first), a crash before the startup
//! compaction (an opening snapshot behind another history's deltas), and
//! the two restore entry points (a segment's bytes, its directory)
//! agreeing.

use std::fs;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use dengraph_core::{
    DeltaRecord, DetectorBuilder, DetectorConfig, DetectorSession, DurableJournalConfig,
    FsyncPolicy, JournalFrameEvent, JournalReader, QuantumSummary, WireFormat,
};
use dengraph_stream::generator::profiles::{tw_profile, ProfileScale};
use dengraph_stream::{Message, StreamGenerator, Trace};

#[path = "support/temp_dir.rs"]
mod temp_dir;
use temp_dir::scratch_dir;

// ---------------------------------------------------------------------------
// Journal surgery
// ---------------------------------------------------------------------------

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
    /// The delta frame's quantum; `None` for a snapshot frame.
    delta: Option<u64>,
    /// Index of the frame's segment in sequence order.
    segment: usize,
}

/// Walks the segment chain with [`JournalReader`] and returns every
/// frame's global byte span plus the total chain length.  Panics on any
/// torn frame: the reference journal must be clean.
fn layout(dir: &Path) -> (Vec<FrameSpan>, u64) {
    let mut spans = Vec::new();
    let mut base = 0u64;
    for (segment, path) in segment_files(dir).into_iter().enumerate() {
        let bytes = fs::read(&path).expect("segment reads");
        let mut reader = JournalReader::new(&bytes).expect("segment header parses");
        let mut prev = reader.pos() as u64;
        loop {
            let delta = match reader.next_frame() {
                JournalFrameEvent::Snapshot(_) => None,
                JournalFrameEvent::Delta(payload) => Some(
                    DeltaRecord::decode(payload)
                        .expect("a delta frame decodes")
                        .quantum(),
                ),
                JournalFrameEvent::End => break,
                JournalFrameEvent::Torn { offset, reason } => {
                    panic!("reference journal torn at {offset} in {path:?}: {reason}")
                }
            };
            let end = reader.pos() as u64;
            spans.push(FrameSpan {
                start: base + prev,
                end: base + end,
                delta,
                segment,
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
    // Frame 1 is the initial snapshot (quantum 0); every quantum appends
    // exactly one delta frame, and a rebase snapshot, written some
    // quanta after its own, records none: recovery reaches the quantum of
    // the last durable delta.
    let expect_quanta = spans
        .iter()
        .filter(|span| span.end <= cut && span.delta.is_some())
        .count() as u64;
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
        rebase_every: 4,
        fsync: FsyncPolicy::Never,
        segment_bytes: 16 * 1024,
    };

    let config = edge_config();
    let messages = &trace.messages[..QUANTA * config.quantum_size];
    let dir = scratch_dir("kill");
    let reference = run_journaled(&trace, messages, &config, &dir, durable);
    assert_eq!(reference.quanta, QUANTA as u64);

    // Rebases at quanta 4 and 9, each packing its snapshot over the next
    // two quanta: the frames of both sit behind later deltas (that of 9
    // is the journal's last frame), so cuts fall between a rebase and its
    // frame, where recovery replays the rebase's quanta from the snapshot
    // before.
    let (spans, total) = layout(&dir);
    let deltas: Vec<u64> = spans.iter().filter_map(|span| span.delta).collect();
    assert_eq!(deltas, (0..QUANTA as u64).collect::<Vec<_>>());
    let snapshots_behind: Vec<Option<u64>> = spans
        .windows(2)
        .filter(|pair| pair[1].delta.is_none())
        .map(|pair| pair[0].delta)
        .collect();
    assert_eq!(
        snapshots_behind,
        [Some(6), Some(11)],
        "each rebase snapshot follows the delta two quanta after its own"
    );
    assert!(spans[0].delta.is_none(), "the chain opens with a snapshot");
    assert!(
        segment_files(&dir).len() > 1,
        "workload must span multiple segments to exercise rotation"
    );
    assert_eq!(spans.last().expect("frames exist").end, total);

    // Every frame boundary, the pre-snapshot prefix, and a seeded
    // mid-frame sample (including mid-header offsets of frame 1).
    let mut rng = ChaCha8Rng::seed_from_u64(0xC8A5_0000);
    let mut cuts: Vec<u64> = vec![0, 3, spans[0].start];
    cuts.extend(spans.iter().map(|span| span.end));
    for span in spans.iter() {
        if span.end - span.start > 2 {
            cuts.push(rng.gen_range(span.start + 1..span.end));
        }
    }

    for cut in cuts {
        let case_dir = scratch_dir(&format!("kill-cut{cut}"));
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
            let repro = repro_root().join(format!("cut{cut}"));
            let _ = fs::remove_dir_all(&repro);
            copy_dir(&case_dir, &repro);
            eprintln!("reproducer saved to {}", repro.display());
            resume_unwind(panic);
        }
        let _ = fs::remove_dir_all(&case_dir);
    }
    let _ = fs::remove_dir_all(&dir);
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
        rebase_every: 100,
        fsync: FsyncPolicy::Never,
        segment_bytes: 1,
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
        rebase_every: 100,
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
            rebase_every: 100,
            fsync: FsyncPolicy::Never,
            segment_bytes: 1,
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

/// A journal opened in a directory that still holds another history —
/// here the state of an older checkpoint journaled over that history's
/// own segments — writes its opening snapshot to a fresh segment and
/// then compacts the old ones away.  A crash between the two leaves the
/// old history's deltas in front of the opening snapshot, some of them
/// at the snapshot's quantum and later, so their indices continue it.
/// Recovery must restore the opening snapshot alone: it adopts no delta
/// written before it, unlike a rebase's snapshot, which adopts the
/// deltas of the quanta its packing spanned.
#[test]
fn an_opening_snapshot_adopts_no_delta_of_an_older_history() {
    let trace = StreamGenerator::new(tw_profile(80, ProfileScale::Small)).generate();
    let config = edge_config();
    let dir = scratch_dir("foreign-history");
    // The old history: rebases at quanta 4 and 9, the snapshot of 4
    // written behind the delta of 6, that of 9 still packing at the end.
    let mut old = DetectorBuilder::from_config(config.clone())
        .interner(trace.interner.clone())
        .durable_journal(
            &dir,
            DurableJournalConfig {
                rebase_every: 4,
                fsync: FsyncPolicy::Never,
                ..DurableJournalConfig::default()
            },
        )
        .build()
        .expect("valid config and writable journal dir");
    // `checkpoints[n]`: the state after `n` quanta.
    let mut checkpoints = vec![old.checkpoint_bytes(WireFormat::Binary)];
    for message in &trace.messages[..11 * config.quantum_size] {
        if old.push_message(message.clone()).is_some() {
            checkpoints.push(old.checkpoint_bytes(WireFormat::Binary));
        }
    }
    assert!(old.journal_io_error().is_none());
    drop(old);
    let (spans, _) = layout(&dir);
    let last_snapshot = spans
        .iter()
        .rposition(|span| span.delta.is_none())
        .expect("the old history has a snapshot");
    let quantum = spans[last_snapshot + 1..]
        .first()
        .and_then(|span| span.delta)
        .expect("deltas follow the old history's last snapshot");
    let old_segments = scratch_dir("foreign-history-old");
    copy_dir(&dir, &old_segments);

    // The new history restores the state after `quantum` quanta, so the
    // old history's delta of `quantum` continues it, and opens a journal
    // in the same directory.
    let mut new = DetectorSession::restore_bytes(&checkpoints[quantum as usize])
        .expect("checkpoint restores");
    new.enable_durable_journal(&dir, DurableJournalConfig::default())
        .expect("journal opens");
    assert_eq!(segment_files(&dir).len(), 1, "the opening compacted");
    drop(new);
    // The crash before the compaction's unlinks: the old segments are
    // back in front of the opening snapshot's.
    copy_dir(&old_segments, &dir);
    let _ = fs::remove_dir_all(&old_segments);
    assert!(segment_files(&dir).len() > 1);

    let (restored, report) =
        DetectorSession::restore_from_dir_with_report(&dir).expect("the directory restores");
    assert!(report.torn.is_none(), "{:?}", report.torn);
    assert_eq!(report.deltas_replayed, 0, "no delta of the old history");
    assert_eq!(restored.quanta_processed(), quantum);
    assert!(
        restored.checkpoint_bytes(WireFormat::Binary) == checkpoints[quantum as usize],
        "the opening snapshot restores as written"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn rebase_compaction_leaves_a_restorable_snapshot_with_zero_trailing_deltas() {
    let trace = StreamGenerator::new(tw_profile(76, ProfileScale::Small)).generate();
    let config = edge_config();
    // Every 2: quanta 0 and 1 append deltas, quantum 2 appends its delta
    // and rebases, and quantum 3 appends its delta and packs the snapshot
    // in one slice and writes it.  Stop exactly there: the rebase
    // snapshot is the final frame, zero deltas past it, and (fsync !=
    // Never) compaction has pruned the chain down to the segment holding
    // the delta of quantum 3, the first a restore from the snapshot reads.
    let messages = &trace.messages[..4 * config.quantum_size];
    let dir = scratch_dir("rebase-compaction");
    let reference = run_journaled(
        &trace,
        messages,
        &config,
        &dir,
        DurableJournalConfig {
            rebase_every: 2,
            fsync: FsyncPolicy::EveryFrame,
            segment_bytes: 1,
        },
    );

    let (spans, _) = layout(&dir);
    let frames: Vec<Option<u64>> = spans.iter().map(|span| span.delta).collect();
    assert_eq!(
        frames,
        [Some(3), None],
        "rebase-time compaction must drop every segment before the one holding \
         the delta of quantum 3, and keep that one"
    );

    let (resumed, report) =
        DetectorSession::restore_from_dir_with_report(&dir).expect("compacted journal restores");
    assert_eq!(resumed.quanta_processed(), reference.quanta);
    assert_eq!(
        report.deltas_replayed, 1,
        "the delta in front of the snapshot"
    );
    assert_eq!(
        resumed.checkpoint_bytes(WireFormat::Binary),
        reference.final_checkpoint
    );
    let _ = fs::remove_dir_all(&dir);
}

/// `FsyncPolicy::Never` skips the sync (and so the compaction) at every
/// rebase and at every rotation; `sync_journal` is its documented
/// explicit sync point and must shed the dead segments itself — it used
/// to leave every one of them in place until the next start-up.  With a
/// snapshot still being packed, the sync writes it first, and that is
/// the snapshot the compacted chain restores from.
#[test]
fn explicit_sync_compacts_a_never_journal_behind_its_latest_snapshot() {
    let trace = StreamGenerator::new(tw_profile(79, ProfileScale::Small)).generate();
    let config = edge_config();
    let split = 11 * config.quantum_size;
    let dir = scratch_dir("never-sync-compaction");
    // Every 4: rebases at quanta 4 and 9, each packed over two quanta; a
    // small threshold rotates several times between them.  After eleven
    // quanta the snapshot of 4 is written and that of 9 is still packing.
    let mut session = DetectorBuilder::from_config(config.clone())
        .interner(trace.interner.clone())
        .durable_journal(
            &dir,
            DurableJournalConfig {
                rebase_every: 4,
                fsync: FsyncPolicy::Never,
                segment_bytes: 4 * 1024,
            },
        )
        .build()
        .expect("valid config and writable journal dir");
    for message in &trace.messages[..split] {
        session.push_message(message.clone());
    }
    assert!(session.journal_io_error().is_none());
    let (before, _) = layout(&dir);
    assert_eq!(
        before
            .iter()
            .map(|span| span.delta.is_none())
            .collect::<Vec<_>>(),
        [[true].as_slice(), &[false; 7], &[true], &[false; 4]].concat(),
        "initial snapshot, deltas 0-6, the snapshot of 4, deltas 7-10"
    );
    assert_eq!(
        session
            .journal()
            .expect("journal enabled")
            .snapshot_frames(),
        2,
        "the rebase of 9 is packing"
    );
    let segments_before = segment_files(&dir).len();
    assert!(segments_before >= 4, "the journal must have rotated");

    session.sync_journal().expect("journal syncs and compacts");
    assert_eq!(
        session
            .journal()
            .expect("journal enabled")
            .snapshot_frames(),
        3,
        "the sync wrote the snapshot of 9"
    );
    session
        .validate_invariants()
        .expect("compacted journal is structurally sound");

    // Everything before the segment holding the delta of quantum 10, the
    // first a restore from the snapshot of 9 reads, is gone; that segment
    // survives, and the snapshot the sync wrote is the last frame.
    let (after, _) = layout(&dir);
    assert!(segment_files(&dir).len() < segments_before);
    let first_needed = after
        .iter()
        .find(|span| span.delta == Some(10))
        .expect("the delta after the snapshot's quantum survives");
    assert_eq!(first_needed.segment, 0, "the chain opens with its segment");
    assert_eq!(
        after.iter().filter(|span| span.delta.is_none()).count(),
        1,
        "only the latest snapshot survives"
    );
    assert!(
        after.last().is_some_and(|span| span.delta.is_none()),
        "the snapshot of 9 follows the delta of 10"
    );

    // What survives restores to the live state and continues identically.
    let (mut resumed, report) =
        DetectorSession::restore_from_dir_with_report(&dir).expect("compacted journal restores");
    assert!(report.torn.is_none(), "{:?}", report.torn);
    assert_eq!(report.deltas_replayed, 1, "the delta of quantum 10");
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
// Policy smoke and the two restore entry points
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

/// The two restore entry points are one scan and replay: a journal that
/// never rotated is one segment file, and `restore_from_journal` of its
/// bytes restores what `restore_from_dir` of its directory does, bit for
/// bit.
#[test]
fn one_segment_restores_alike_from_its_bytes_and_its_directory() {
    let trace = StreamGenerator::new(tw_profile(78, ProfileScale::Small)).generate();
    let config = edge_config();
    let messages = &trace.messages[..6 * config.quantum_size];
    let dir = scratch_dir("one-segment");
    let reference = run_journaled(&trace, messages, &config, &dir, temp_dir::one_segment(3));
    let bytes = temp_dir::only_file(&dir);
    let from_bytes = DetectorSession::restore_from_journal(&bytes).expect("segment restores");
    let from_dir = DetectorSession::restore_from_dir(&dir).expect("directory restores");

    assert_eq!(from_bytes.quanta_processed(), reference.quanta);
    assert_eq!(
        from_bytes.checkpoint_bytes(WireFormat::Binary),
        from_dir.checkpoint_bytes(WireFormat::Binary),
        "a segment's bytes and its directory must restore bit-identical state"
    );
    let _ = fs::remove_dir_all(&dir);
}
