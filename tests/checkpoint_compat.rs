//! On-disk compatibility and byte identity across the codec change.
//!
//! Binary checkpoint containers used to carry their state LZSS-packed
//! (payload method 1); they are now written with the block codec
//! (method 2).  `tests/fixtures/` holds a checkpoint and a durable
//! journal directory **written by the commit before the change** from
//! the small seeded session rebuilt below.  Gated here:
//!
//! * both fixtures restore under the current code, and continuing from
//!   them reports exactly what continuing from a current-format
//!   checkpoint or journal of the same session reports;
//! * only the wrapping changed: unpacking a current document yields
//!   `EventDetector::to_bin` of its detector, byte for byte what the old
//!   document's payload unpacks to.
//!
//! The fixtures are data: nothing regenerates them.  Their generator was
//! this file's `fixture_*` functions plus
//! `DetectorBuilder::durable_journal(dir, FIXTURE_JOURNAL)` and
//! `checkpoint_bytes(WireFormat::Binary)`, run at commit `3ac7497`.

use std::fs;
use std::path::{Path, PathBuf};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use dengraph_core::{
    CheckpointMode, DetectorBuilder, DetectorConfig, DetectorSession, DurableJournalConfig,
    FsyncPolicy, JournalFrameEvent, JournalReader, QuantumSummary, WireFormat,
};
use dengraph_json::lz;
use dengraph_json::BinWriter;
use dengraph_stream::{Message, UserId};
use dengraph_text::{KeywordId, KeywordInterner};

/// Payload methods of a binary checkpoint container, and where the
/// method byte sits: magic(4) + version(1).
const METHOD_AT: usize = 5;
const METHOD_LZSS: u8 = 1;
const METHOD_BLOCK: u8 = 2;

/// Quanta the fixture session had closed when it was checkpointed (it
/// was three messages into the next one).
const FIXTURE_QUANTA: usize = 9;
const FIXTURE_BUFFERED: usize = 3;
const CONTINUATION_QUANTA: usize = 6;

const FIXTURE_JOURNAL: DurableJournalConfig = DurableJournalConfig {
    mode: CheckpointMode::Delta { every: 4 },
    format: WireFormat::Binary,
    fsync: FsyncPolicy::Never,
    segment_bytes: 1536,
};

fn fixture_config() -> DetectorConfig {
    DetectorConfig {
        quantum_size: 40,
        high_state_threshold: 3,
        window_quanta: 4,
        ..DetectorConfig::nominal()
    }
}

fn fixture_interner() -> KeywordInterner {
    let mut interner = KeywordInterner::new();
    for word in [
        "earthquake",
        "tsunami",
        "japan",
        "coast",
        "warning",
        "magnitude",
        "tremor",
        "quake",
        "election",
        "ballot",
        "senate",
        "recount",
        "storm",
        "flood",
        "river",
        "evacuate",
    ] {
        interner.intern(word);
    }
    for i in 0..48 {
        interner.intern(&format!("chatter{i}"));
    }
    interner
}

/// The fixture stream: two planted bursts (keywords 0..4 and 8..12) from
/// small user populations — the second fades after quantum 6 — over
/// single-keyword chatter.  One rng, quantum by quantum, so a longer
/// stream extends a shorter one.
fn fixture_messages(quanta: usize) -> Vec<Message> {
    let config = fixture_config();
    let mut rng = ChaCha8Rng::seed_from_u64(0xF1C5_0019);
    let mut out = Vec::new();
    for q in 0..quanta as u64 {
        for m in 0..config.quantum_size as u64 {
            let time = q * 1_000 + m;
            if m < 24 {
                let second = m % 2 == 1 && q < 6;
                let base = if second { 8 } else { 0 };
                let user = UserId(if second { 100 } else { 0 } + rng.gen_range(0..9u64));
                let keywords = (0..rng.gen_range(2..4u32))
                    .map(|_| KeywordId(base + rng.gen_range(0..4u32)))
                    .collect();
                out.push(Message::new(user, time, keywords));
            } else {
                let user = UserId(1_000 + rng.gen_range(0..400u64));
                out.push(Message::new(
                    user,
                    time,
                    vec![KeywordId(16 + rng.gen_range(0..48u32))],
                ));
            }
        }
    }
    out
}

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dengraph-checkpoint-compat-{}-{label}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The fixture session rebuilt under the current code, as it stood when
/// the fixtures were written; journaled into `journal_dir` if given.
fn fixture_session(journal_dir: Option<&Path>) -> (DetectorSession, Vec<Message>) {
    let config = fixture_config();
    let mut builder = DetectorBuilder::from_config(config.clone()).interner(fixture_interner());
    if let Some(dir) = journal_dir {
        builder = builder.durable_journal(dir, FIXTURE_JOURNAL);
    }
    let mut session = builder.build().expect("valid fixture config");
    let messages = fixture_messages(FIXTURE_QUANTA + 1 + CONTINUATION_QUANTA);
    let fed = FIXTURE_QUANTA * config.quantum_size + FIXTURE_BUFFERED;
    let mut events = 0;
    for message in &messages[..fed] {
        if let Some(summary) = session.push_message(message.clone()) {
            events += summary.events.len();
        }
    }
    assert!(events > 0, "the fixture stream must report events");
    assert!(session.journal_io_error().is_none());
    (session, messages)
}

/// Feeds `session` the rest of the fixture stream from wherever it
/// stands and returns what it reports.
fn continuation(session: &mut DetectorSession, messages: &[Message]) -> Vec<QuantumSummary> {
    let resume_at = session.total_messages() as usize + session.buffered_messages();
    let mut out = Vec::new();
    for message in &messages[resume_at..] {
        out.extend(session.push_message(message.clone()));
    }
    out
}

fn canonical(summaries: &[QuantumSummary]) -> String {
    format!("{summaries:#?}")
}

fn state_bytes(session: &DetectorSession) -> Vec<u8> {
    let mut body = BinWriter::new();
    session.detector().to_bin(&mut body);
    body.into_bytes()
}

fn unpack_block(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    lz::decompress_block_into(payload, &mut out).expect("block payload unpacks");
    out
}

#[test]
fn a_parent_checkpoint_restores_and_wraps_the_same_state_bytes() {
    let old_doc = fs::read(fixtures().join("checkpoint_parent_lzss.bin")).expect("fixture reads");
    assert_eq!(old_doc[METHOD_AT], METHOD_LZSS, "the fixture is method 1");

    let (mut live, messages) = fixture_session(None);
    let new_doc = live.checkpoint_bytes(WireFormat::Binary);
    assert_eq!(
        new_doc[METHOD_AT], METHOD_BLOCK,
        "the writer emits method 2"
    );
    assert_eq!(
        old_doc[..METHOD_AT],
        new_doc[..METHOD_AT],
        "container header"
    );

    // The body did not change, only its wrapping.
    let state = state_bytes(&live);
    assert!(unpack_block(&new_doc[METHOD_AT + 1..]) == state);
    let old_state = lz::decompress(&old_doc[METHOD_AT + 1..]).expect("lzss payload unpacks");
    assert!(
        old_state == state,
        "the state bytes inside the parent's checkpoint differ from to_bin today"
    );

    // Both restore, to the same session, and continue as the live one.
    let mut from_old = DetectorSession::restore_bytes(&old_doc).expect("method-1 restores");
    let mut from_new = DetectorSession::restore_bytes(&new_doc).expect("method-2 restores");
    assert_eq!(from_old.quanta_processed(), FIXTURE_QUANTA as u64);
    assert_eq!(from_old.buffered_messages(), FIXTURE_BUFFERED);
    assert!(from_old.checkpoint_bytes(WireFormat::Binary) == new_doc);
    let expected = canonical(&continuation(&mut live, &messages));
    assert_eq!(canonical(&continuation(&mut from_old, &messages)), expected);
    assert_eq!(canonical(&continuation(&mut from_new, &messages)), expected);
    assert_eq!(
        live.quanta_processed() as usize,
        FIXTURE_QUANTA + 1 + CONTINUATION_QUANTA
    );
    assert!(
        from_old.checkpoint_bytes(WireFormat::Binary) == live.checkpoint_bytes(WireFormat::Binary)
    );
}

/// The payload method of every snapshot frame in a journal directory.
fn snapshot_methods(dir: &Path) -> Vec<u8> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("journal directory reads")
        .map(|entry| entry.expect("directory entry reads").path())
        .collect();
    files.sort();
    let mut methods = Vec::new();
    for path in files {
        let bytes = fs::read(&path).expect("segment reads");
        let mut reader = JournalReader::new(&bytes).expect("segment header parses");
        loop {
            match reader.next_frame() {
                JournalFrameEvent::Snapshot(document) => methods.push(document[METHOD_AT]),
                JournalFrameEvent::Delta(_) => {}
                JournalFrameEvent::End => break,
                JournalFrameEvent::Torn { offset, reason } => {
                    panic!("{}: torn at {offset}: {reason}", path.display())
                }
            }
        }
    }
    methods
}

#[test]
fn a_parent_journal_recovers_and_continues_like_a_current_one() {
    let old_dir = fixtures().join("journal_parent_lzss");
    assert_eq!(
        snapshot_methods(&old_dir),
        [METHOD_LZSS, METHOD_LZSS],
        "the fixture's snapshots are method 1"
    );
    let new_dir = scratch_dir("journal");
    let (mut live, messages) = fixture_session(Some(&new_dir));
    assert_eq!(snapshot_methods(&new_dir), [METHOD_BLOCK, METHOD_BLOCK]);

    let (mut from_old, old_report) =
        DetectorSession::restore_from_dir_with_report(&old_dir).expect("parent journal recovers");
    let (mut from_new, new_report) =
        DetectorSession::restore_from_dir_with_report(&new_dir).expect("current journal recovers");
    // Same frames, same replay: only the snapshot payloads differ.
    assert_eq!(old_report, new_report);
    assert!(old_report.torn.is_none());
    assert_eq!(old_report.segments_scanned, 3);
    assert_eq!(old_report.frames_recovered, 1 + FIXTURE_QUANTA);
    assert_eq!(old_report.deltas_replayed, 4);
    assert_eq!(old_report.recovered_quantum, FIXTURE_QUANTA as u64);
    assert!(
        from_old.checkpoint_bytes(WireFormat::Binary)
            == from_new.checkpoint_bytes(WireFormat::Binary)
    );

    // A journal records whole quanta: recovery lands on the boundary
    // behind the three buffered messages, and from there reports what
    // the live session reports.
    assert_eq!(from_old.buffered_messages(), 0);
    let expected = canonical(&continuation(&mut live, &messages));
    assert_eq!(canonical(&continuation(&mut from_old, &messages)), expected);
    assert_eq!(canonical(&continuation(&mut from_new, &messages)), expected);
    assert!(
        from_old.checkpoint_bytes(WireFormat::Binary) == live.checkpoint_bytes(WireFormat::Binary)
    );
    let _ = fs::remove_dir_all(&new_dir);
}
