//! On-disk compatibility across four format changes.
//!
//! `tests/fixtures/` holds documents **written by earlier commits** from
//! the small seeded session rebuilt below:
//!
//! * `checkpoint_parent_lzss.bin`, `journal_parent_lzss/` (commit
//!   `3ac7497`) — binary containers used to carry their state
//!   LZSS-packed (payload method 1); they are now written with the block
//!   codec (method 2);
//! * `checkpoint_parent_index.bin`, `checkpoint_parent_index.json`,
//!   `journal_parent_index/` (commit `93e6cc0`) — the window section
//!   used to carry every index entry's user columns and per-quantum
//!   sub-sketches (window mode byte 1, JSON `"entries"`); it now carries
//!   the live keyword ids only (mode byte 2, JSON `"live"`) and a restore
//!   rebuilds the index from the window's records;
//! * `checkpoint_parent_rebuild.bin`, `checkpoint_parent_rebuild.json`,
//!   `journal_parent_rebuild/` (commit `1fa7546`) — the same session run in
//!   the since-retired rebuild window mode, which kept no index: the
//!   configuration names the mode (binary byte 0, JSON
//!   `"window_index_mode":"rebuild"`) and the window section has no index
//!   (window mode byte 0, JSON `"mode":"rebuild"`, `"index":null`).  A
//!   restore lists every keyword of the window's records live.
//!
//! The checkpoint fixtures of all three generations also carry the retired
//! AKG component index, populated (a non-zero binary component count, JSON
//! `"components":{"components":[{…}]}`); a current document writes a zero
//! count and no JSON key, and a restore drops what an old one holds.
//!
//! And every fixture — all three generations, journals included — carries
//! the noun filter as the vocabulary's word list (binary filter tag 1,
//! JSON `"interner"`).  A current document carries one verdict bit per
//! word instead (tag 2, JSON `"noun_verdicts"`); a restore reaches the
//! verdicts from the words, so an old document and a current one of the
//! same session still restore to the same state bytes.
//!
//! Gated here: every fixture restores under the current code — the first
//! two generations to a detector equal to the one a current-format
//! document of the same session restores to (same state bytes, same
//! rebuilt window index), the third to one whose index holds more
//! entries but serves the same reads — and continuing from any of them
//! reports exactly the same events; and a live list or a window mode byte
//! no window can have produced is an error, never a panic.
//!
//! The fixtures are data: nothing regenerates them.  Their generator was
//! this file's `fixture_*` functions plus
//! `DetectorBuilder::durable_journal(dir, FIXTURE_JOURNAL)` and
//! `checkpoint_bytes(WireFormat::Binary | WireFormat::Json)`, run at the
//! commits named above (at `1fa7546` with the configuration's window mode
//! set to rebuild).

use std::fs;
use std::path::{Path, PathBuf};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use dengraph_core::keyword_state::{QuantumRecord, WindowState};
use dengraph_core::{
    DetectorBuilder, DetectorConfig, DetectorSession, DurableJournalConfig, EventDetector,
    FsyncPolicy, JournalFrameEvent, JournalReader, QuantumSummary, WireFormat,
};
use dengraph_graph::DynamicGraph;
use dengraph_json::lz;
use dengraph_json::{BinReader, BinWriter, Decode, Encode};
use dengraph_minhash::UserHasher;
use dengraph_stream::{Message, UserId};
use dengraph_text::{KeywordId, KeywordInterner};

#[path = "support/temp_dir.rs"]
mod temp_dir;
use temp_dir::scratch_dir;

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
    rebase_every: 4,
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

/// How a JSON document of an earlier version opens a populated component
/// index section inside its AKG.
const POPULATED_COMPONENTS: &str = "\"components\":{\"components\":[{";

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
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

/// Two sessions hold the same detector: the same serialised state and —
/// what a checkpoint no longer carries — the same window index, which
/// must also be what a walk of the window's records says it is.
fn assert_same_detector(a: &DetectorSession, b: &DetectorSession) {
    assert!(state_bytes(a) == state_bytes(b));
    assert!(a.detector().window() == b.detector().window());
    a.validate_invariants().expect("invariants hold");
    b.validate_invariants().expect("invariants hold");
}

/// The component count of the AKG section of a binary detector body, which
/// follows the configuration, the window and the graph.
fn component_count(body: &[u8]) -> usize {
    let mut r = BinReader::new(body);
    DetectorConfig::from_bin(&mut r).expect("configuration");
    WindowState::from_bin(&mut r).expect("window");
    DynamicGraph::from_bin_admitting(&mut r, Ok::<_, String>).expect("graph");
    r.usize().expect("component count")
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

    // A container wraps `to_bin` of its detector.  The old payload is that
    // state in the old layout: it still carries the window index, which
    // the restore below rebuilds instead.
    let state = state_bytes(&live);
    assert!(unpack_block(&new_doc[METHOD_AT + 1..]) == state);
    let old_state = lz::decompress(&old_doc[METHOD_AT + 1..]).expect("lzss payload unpacks");
    assert!(old_state.len() > state.len());
    assert!(component_count(&old_state) > 0 && component_count(&state) == 0);

    // Both restore, to the same session, and continue as the live one.
    let mut from_old = DetectorSession::restore_bytes(&old_doc).expect("method-1 restores");
    let mut from_new = DetectorSession::restore_bytes(&new_doc).expect("method-2 restores");
    assert_eq!(from_old.quanta_processed(), FIXTURE_QUANTA as u64);
    assert_eq!(from_old.buffered_messages(), FIXTURE_BUFFERED);
    assert_same_detector(&from_old, &from_new);
    assert_same_detector(&from_old, &live);
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

/// The two 93e6cc0 checkpoints carry the window index entry by entry
/// (binary mode byte 1, JSON `"entries"`); the current ones carry the
/// live list.  All four restore to the same detector and continue alike,
/// and so does the old JSON with its retired `"parallelism"` key set to
/// 100 000 threads: the key is ignored, whatever it holds.
#[test]
fn parent_checkpoints_with_an_entries_index_restore_in_both_wire_formats() {
    let old_bin = fs::read(fixtures().join("checkpoint_parent_index.bin")).expect("fixture reads");
    let old_json =
        fs::read(fixtures().join("checkpoint_parent_index.json")).expect("fixture reads");
    assert_eq!(old_bin[METHOD_AT], METHOD_BLOCK);
    let old_text = std::str::from_utf8(&old_json).expect("JSON fixture is text");
    assert!(old_text.contains("\"entries\":[[0,{") && !old_text.contains("\"live\""));
    assert!(old_text.contains(POPULATED_COMPONENTS));
    assert!(component_count(&unpack_block(&old_bin[METHOD_AT + 1..])) > 0);

    let (live, messages) = fixture_session(None);
    let new_bin = live.checkpoint_bytes(WireFormat::Binary);
    let new_json = live.checkpoint_bytes(WireFormat::Json);
    let new_text = std::str::from_utf8(&new_json).expect("JSON checkpoint is text");
    assert!(new_text.contains("\"live\":[0,1,2,3,8,9,10,11]") && !new_text.contains("\"entries\""));
    assert!(!new_text.contains("\"components\""));
    assert!(old_text.contains("\"interner\":[\"earthquake\",\"tsunami\","));
    assert!(new_text.contains("\"noun_verdicts\":{\"bits\":\"") && !new_text.contains("interner"));
    assert!(new_bin.len() < old_bin.len() && new_json.len() < old_json.len());
    let threads = old_text.replacen("\"parallelism\":\"serial\"", "\"parallelism\":100000", 1);
    assert_ne!(threads, old_text);
    assert!(!new_text.contains("parallelism"));

    let mut reference = DetectorSession::restore_bytes(&new_bin).expect("restores");
    let expected = canonical(&continuation(&mut reference, &messages));
    for (label, document) in [
        ("old binary", &old_bin),
        ("old JSON", &old_json),
        ("old JSON at 100000 threads", &threads.into_bytes()),
        ("new binary", &new_bin),
        ("new JSON", &new_json),
    ] {
        let mut restored = DetectorSession::restore_bytes(document)
            .unwrap_or_else(|e| panic!("{label} restores: {e}"));
        assert_eq!(restored.buffered_messages(), FIXTURE_BUFFERED, "{label}");
        assert_same_detector(&restored, &live);
        assert!(restored.checkpoint_bytes(WireFormat::Binary) == new_bin);
        assert_eq!(
            canonical(&continuation(&mut restored, &messages)),
            expected,
            "{label}: continuation diverged"
        );
        restored.validate_invariants().expect("invariants hold");
    }
}

#[test]
fn a_parent_journal_recovers_and_continues_like_a_current_one() {
    let new_dir = scratch_dir("journal");
    let (mut live, messages) = fixture_session(Some(&new_dir));
    assert_eq!(snapshot_methods(&new_dir), [METHOD_BLOCK, METHOD_BLOCK]);
    let (mut from_new, new_report) =
        DetectorSession::restore_from_dir_with_report(&new_dir).expect("current journal recovers");
    let expected = canonical(&continuation(&mut live, &messages));
    assert_eq!(canonical(&continuation(&mut from_new, &messages)), expected);

    // Written with LZSS snapshots (and the entries index), and with block
    // snapshots that still carry the entries index.
    for (name, methods) in [
        ("journal_parent_lzss", [METHOD_LZSS, METHOD_LZSS]),
        ("journal_parent_index", [METHOD_BLOCK, METHOD_BLOCK]),
    ] {
        let old_dir = fixtures().join(name);
        assert_eq!(snapshot_methods(&old_dir), methods, "{name}");
        let (mut from_old, old_report) = DetectorSession::restore_from_dir_with_report(&old_dir)
            .unwrap_or_else(|e| panic!("{name} recovers: {e}"));
        // Same frames, same replay.  Only the snapshot payloads differ —
        // a current one is smaller, so the current journal may have
        // rotated its 1.5 KB segments at other frames.
        assert!(old_report.torn.is_none());
        assert_eq!(old_report.segments_scanned, 3);
        assert_eq!(old_report.frames_recovered, 1 + FIXTURE_QUANTA);
        assert_eq!(old_report.deltas_replayed, 4);
        assert_eq!(old_report.recovered_quantum, FIXTURE_QUANTA as u64);
        assert_eq!(
            (old_report.frames_recovered, old_report.deltas_replayed),
            (new_report.frames_recovered, new_report.deltas_replayed)
        );
        assert_eq!(old_report.recovered_quantum, new_report.recovered_quantum);

        // A journal records whole quanta: recovery lands on the boundary
        // behind the three buffered messages, and from there reports what
        // the live session reports.
        assert_eq!(from_old.buffered_messages(), 0);
        assert_eq!(
            canonical(&continuation(&mut from_old, &messages)),
            expected,
            "{name}"
        );
        assert_same_detector(&from_old, &live);
        assert_same_detector(&from_old, &from_new);
    }
    let _ = fs::remove_dir_all(&new_dir);
}

/// The three `1fa7546` rebuild-mode fixtures restore (the configuration's
/// byte or key naming the retired mode is dropped), pass the invariants,
/// and continue exactly as the uninterrupted current session.  The two
/// checkpoints list every keyword of the window's records live, at σ; the
/// journal's snapshot does too, and the deltas replayed on top of it then
/// index from σ like any live push.
#[test]
fn parent_rebuild_mode_documents_restore_with_every_window_keyword_live() {
    let bin = fs::read(fixtures().join("checkpoint_parent_rebuild.bin")).expect("fixture reads");
    let json = fs::read(fixtures().join("checkpoint_parent_rebuild.json")).expect("fixture reads");
    let text = std::str::from_utf8(&json).expect("JSON fixture is text");
    assert!(text.contains("\"window_index_mode\":\"rebuild\""));
    assert!(text.contains("\"mode\":\"rebuild\"") && text.contains("\"index\":null"));
    assert!(text.contains(POPULATED_COMPONENTS));
    assert_eq!(bin[METHOD_AT], METHOD_BLOCK);
    assert!(component_count(&unpack_block(&bin[METHOD_AT + 1..])) > 0);

    let (mut live, messages) = fixture_session(None);
    let sigma = live.config().high_state_threshold as usize;
    let expected = canonical(&continuation(&mut live, &messages));
    let all_live = |session: &DetectorSession, label: &str| {
        session.validate_invariants().expect("invariants hold");
        let window = session.detector().window();
        assert_eq!(window.materialize_threshold(), sigma, "{label}");
        assert!(
            window
                .keywords_in_window()
                .into_iter()
                .all(|k| window.window_minima(k).is_some()),
            "{label}: a window keyword restored without an entry"
        );
    };
    for (label, document) in [("binary", &bin), ("JSON", &json)] {
        let mut restored = DetectorSession::restore_bytes(document)
            .unwrap_or_else(|e| panic!("{label} restores: {e}"));
        assert_eq!(restored.quanta_processed(), FIXTURE_QUANTA as u64);
        assert_eq!(restored.buffered_messages(), FIXTURE_BUFFERED, "{label}");
        all_live(&restored, label);
        assert_eq!(
            canonical(&continuation(&mut restored, &messages)),
            expected,
            "{label}: continuation diverged"
        );
        restored.validate_invariants().expect("invariants hold");
    }

    let (mut recovered, report) =
        DetectorSession::restore_from_dir_with_report(fixtures().join("journal_parent_rebuild"))
            .expect("rebuild-mode journal recovers");
    assert!(report.torn.is_none());
    assert_eq!(report.recovered_quantum, FIXTURE_QUANTA as u64);
    assert_eq!(
        snapshot_methods(&fixtures().join("journal_parent_rebuild")),
        [METHOD_BLOCK, METHOD_BLOCK]
    );
    recovered.validate_invariants().expect("invariants hold");
    assert_eq!(
        canonical(&continuation(&mut recovered, &messages)),
        expected,
        "journal: continuation diverged"
    );
    recovered.validate_invariants().expect("invariants hold");
}

// ---------------------------------------------------------------------------
// The index header is checked, and a hostile live list is an error
// ---------------------------------------------------------------------------

/// Where the window's index section starts inside `to_bin` of a session's
/// detector: behind the configuration and the window's geometry, mode
/// byte and records, all of which a current and a 93e6cc0 body share but
/// for the mode byte.
fn index_section_at(session: &DetectorSession) -> usize {
    let mut config = BinWriter::new();
    session.config().to_bin(&mut config);
    let mut window = BinWriter::new();
    session.detector().window().to_bin(&mut window);
    let mut section = BinWriter::new();
    section.usize(session.config().high_state_threshold as usize);
    section.delta_u32s([0u32, 1, 2, 3, 8, 9, 10, 11].into_iter());
    assert!(window.as_slice().ends_with(section.as_slice()));
    config.len() + window.len() - section.len()
}

/// The index's threshold comes from the document, decides which keywords
/// are indexed, and used to be trusted: a restore now requires it to be
/// the configuration's σ, in current and in 93e6cc0 documents alike.
#[test]
fn an_index_threshold_other_than_sigma_is_rejected_in_both_wire_formats() {
    let (live, _) = fixture_session(None);
    let sigma = live.config().high_state_threshold as u8;
    let at = index_section_at(&live);
    let decode = |body: &[u8]| EventDetector::from_bin(&mut BinReader::new(body));

    let mut body = state_bytes(&live);
    assert_eq!(body[at], sigma);
    assert!(decode(&body).is_ok());
    body[at] = sigma - 1;
    assert!(decode(&body).is_err(), "binary, current layout");

    // The old layout puts its own sketch size in front of the threshold.
    // Nothing reads it any more: the window's is the only one.
    let old_doc = fs::read(fixtures().join("checkpoint_parent_index.bin")).expect("fixture reads");
    let mut body = unpack_block(&old_doc[METHOD_AT + 1..]);
    assert_eq!(body[at..at + 2], [16, sigma]);
    body[at] = 0x7f;
    assert!(decode(&body).is_ok());
    body[at + 1] = sigma + 1;
    assert!(decode(&body).is_err(), "binary, entries layout");

    let needle = format!("\"materialize_threshold\":{sigma}");
    let current = String::from_utf8(live.checkpoint_bytes(WireFormat::Json)).expect("text");
    let old = fs::read_to_string(fixtures().join("checkpoint_parent_index.json")).expect("reads");
    for (label, text) in [("current", current), ("entries layout", old)] {
        assert!(DetectorSession::restore_bytes(text.as_bytes()).is_ok());
        let tampered = text.replace(&needle, "\"materialize_threshold\":1");
        assert_ne!(text, tampered, "the fixture must actually tamper");
        assert!(
            DetectorSession::restore_bytes(tampered.as_bytes()).is_err(),
            "JSON, {label}"
        );
    }
}

const HOSTILE_CAPACITY: usize = 3;
const HOSTILE_THRESHOLD: usize = 3;
const HOSTILE_SEED: u64 = 7;

/// A small window at capacity whose live list is `[1, 2]` of the keywords
/// 1..=4 in it: keyword 1 bursts in every quantum, keyword 2 burst once in
/// a quantum that has since slid out and idles on (its entry outlives the
/// record that materialized it), keyword 3 never reaches the threshold and
/// keyword 4 occurs in the evicted quantum only.
fn hostile_fixture_window() -> WindowState {
    let mut window = WindowState::new(HOSTILE_CAPACITY, 4, UserHasher::new(HOSTILE_SEED))
        .with_materialize_threshold(HOSTILE_THRESHOLD);
    for q in 0..=HOSTILE_CAPACITY as u64 {
        let mut messages: Vec<Message> = (0..3)
            .map(|u| Message::new(UserId(10 * q + u), q, vec![KeywordId(1)]))
            .collect();
        let idlers = if q == 0 { 0..3 } else { 0..1 };
        messages.extend(idlers.map(|u| Message::new(UserId(u), q, vec![KeywordId(2)])));
        messages.push(Message::new(UserId(50 + q), q, vec![KeywordId(3)]));
        if q == 0 {
            messages.push(Message::new(UserId(99), q, vec![KeywordId(4)]));
        }
        window.push(QuantumRecord::from_messages(q, &messages));
    }
    assert!(window.window_minima(KeywordId(2)).is_some());
    assert!(window.window_minima(KeywordId(3)).is_none());
    window
}

/// The binary window with its index section (threshold, then the
/// delta-encoded live list) replaced by `section`.
fn with_index_section(window: &[u8], section: &[u8]) -> Vec<u8> {
    let mut honest = BinWriter::new();
    honest.usize(HOSTILE_THRESHOLD);
    honest.delta_u32s([1u32, 2].into_iter());
    assert!(window.ends_with(honest.as_slice()));
    let mut out = window[..window.len() - honest.len()].to_vec();
    out.extend_from_slice(section);
    out
}

/// A live list written value by value, so that it can say what
/// `delta_u32s` refuses to write.
fn index_section(threshold: usize, first_then_deltas: &[u32]) -> Vec<u8> {
    let mut w = BinWriter::new();
    w.usize(threshold);
    w.usize(first_then_deltas.len());
    for &v in first_then_deltas {
        w.u32(v);
    }
    w.into_bytes()
}

#[test]
fn a_live_list_no_window_can_have_produced_is_an_error() {
    let window = hostile_fixture_window();
    let bytes = window.encode(WireFormat::Binary);
    let decode = |bytes: &[u8]| WindowState::decode(bytes, WireFormat::Binary);
    let back = decode(&bytes).expect("the honest window decodes");
    assert!(back == window);
    back.validate_invariants()
        .expect("and is what its records say");

    let t = HOSTILE_THRESHOLD;
    for (label, section) in [
        ("a duplicate id", index_section(t, &[1, 0])),
        (
            "a duplicate after a valid pair",
            index_section(t, &[1, 1, 0]),
        ),
        (
            "an id above the decoder bound",
            index_section(t, &[1, 1, (1 << 22) - 1]),
        ),
        ("an id at u32::MAX", index_section(t, &[1, u32::MAX - 1])),
        ("ids that overflow u32", index_section(t, &[1, 1, u32::MAX])),
        (
            "an id that slid out of the window",
            index_section(t, &[1, 1, 2]),
        ),
        ("an id that never occurred", index_section(t, &[1, 1, 5])),
        ("a missing bursty id", index_section(t, &[2])),
        ("an empty list", index_section(t, &[])),
        (
            "a threshold the list is too short for",
            index_section(1, &[1, 1]),
        ),
        ("a length the input cannot hold", {
            let mut w = BinWriter::new();
            w.usize(t);
            w.usize(1 << 40);
            w.into_bytes()
        }),
    ] {
        assert!(
            decode(&with_index_section(&bytes, &section)).is_err(),
            "{label} was accepted"
        );
    }

    // The same list in JSON, where it can also run backwards.
    let text = dengraph_json::to_string(&window.to_json());
    assert!(text.contains("\"live\":[1,2]"));
    for hostile in [
        "[2,1]",
        "[1,1,2]",
        "[2]",
        "[1,2,4]",
        "[1,2,4194305]",
        "[1,2.5]",
        "7",
    ] {
        let tampered = text.replace("\"live\":[1,2]", &format!("\"live\":{hostile}"));
        let value = dengraph_json::parse(&tampered).expect("still JSON");
        assert!(
            WindowState::from_json(&value).is_err(),
            "live list {hostile} was accepted"
        );
    }

    // An id that is listed without a bursty record in the window is what
    // keyword 2 already is; listing keyword 3 as well describes a window
    // that indexed it before its burst slid out, and restores.
    let more = decode(&with_index_section(&bytes, &index_section(t, &[1, 1, 1])))
        .expect("a quiet keyword may be live");
    more.validate_invariants().expect("invariants hold");
    assert!(more.window_minima(KeywordId(3)).is_some());
    assert_eq!(
        more.window_sketch(KeywordId(3)),
        window.window_sketch(KeywordId(3))
    );
}

#[test]
fn a_truncated_or_mutated_index_section_never_panics() {
    let window = hostile_fixture_window();
    let bytes = window.encode(WireFormat::Binary);
    let section = index_section(HOSTILE_THRESHOLD, &[1, 1]);
    assert_eq!(with_index_section(&bytes, &section), bytes);
    let start = bytes.len() - section.len();

    for cut in start..bytes.len() {
        assert!(
            WindowState::decode(&bytes[..cut], WireFormat::Binary).is_err(),
            "truncation at byte {cut} was accepted"
        );
    }
    // What a mutation can turn the section into and still decode is another
    // possible window: a higher threshold (at the detector level, anything
    // but σ is rejected), keyword 2 not live, keyword 3 live as well.
    let mut accepted_at_threshold = 0;
    for at in start..bytes.len() {
        for value in 0..=u8::MAX {
            if value == bytes[at] {
                continue;
            }
            let mut mutated = bytes.clone();
            mutated[at] = value;
            if let Ok(decoded) = WindowState::decode(&mutated, WireFormat::Binary) {
                decoded
                    .validate_invariants()
                    .unwrap_or_else(|e| panic!("byte {at} = {value}: {e}"));
                if decoded.materialize_threshold() == HOSTILE_THRESHOLD {
                    accepted_at_threshold += 1;
                }
            }
        }
    }
    assert!(
        (1..8).contains(&accepted_at_threshold),
        "{accepted_at_threshold} mutations accepted at the honest threshold"
    );
}

/// `restored` is the window a retired rebuild-mode document of `honest`'s
/// records decodes to: every keyword of the records live, at threshold 1,
/// serving exactly what `honest` serves.
fn assert_all_live(restored: &WindowState, honest: &WindowState) {
    restored
        .validate_invariants()
        .expect("what its records say");
    assert_eq!(restored.materialize_threshold(), 1);
    let in_window = honest.keywords_in_window();
    for k in (0..=5).map(KeywordId) {
        assert_eq!(
            restored.window_minima(k).is_some(),
            in_window.contains(&k),
            "{k}"
        );
        assert_eq!(restored.window_sketch(k), honest.window_sketch(k), "{k}");
        assert_eq!(restored.window_user_count(k), honest.window_user_count(k));
        assert_eq!(restored.last_seen(k), honest.last_seen(k), "{k}");
    }
}

/// The window's mode byte takes all 256 values, in front of the honest
/// records with and without the index section behind them: `2` with the
/// section is the honest document; `0` without it — the retired rebuild
/// layout — lists every keyword of the records live; `1` reads the
/// section as the entries layout; any other value, or a layout the bytes
/// do not follow, is an error.  Nothing panics.  JSON `"mode":"rebuild"`
/// with `"index":null` decodes like mode byte 0.
#[test]
fn every_window_mode_byte_decodes_to_its_layout_or_errs() {
    let window = hostile_fixture_window();
    let bytes = window.encode(WireFormat::Binary);
    let section = index_section(HOSTILE_THRESHOLD, &[1, 1]);
    let bare = &bytes[..bytes.len() - section.len()];
    let mut prefix = BinWriter::new();
    prefix.usize(HOSTILE_CAPACITY);
    prefix.usize(window.sketch_size());
    prefix.u64(HOSTILE_SEED);
    let at = prefix.len();
    assert_eq!(
        bytes[at], 2,
        "the mode byte follows capacity, sketch size and seed"
    );

    for value in 0..=u8::MAX {
        for (label, body) in [("with the section", &bytes[..]), ("without it", bare)] {
            let mut mutated = body.to_vec();
            mutated[at] = value;
            let decoded = WindowState::decode(&mutated, WireFormat::Binary);
            match (value, body.len() == bytes.len()) {
                (0, false) => assert_all_live(&decoded.expect("mode 0 decodes"), &window),
                (2, true) => assert!(decoded.expect("the honest document decodes") == window),
                (1, true) => {
                    if let Ok(decoded) = decoded {
                        decoded.validate_invariants().expect("a possible window");
                    }
                }
                _ => assert!(decoded.is_err(), "mode byte {value} {label} was accepted"),
            }
        }
    }

    let text = dengraph_json::to_string(&window.to_json());
    let index = dengraph_json::to_string(window.to_json().get("index").expect("an index"));
    let null_index = text.replace(&format!("\"index\":{index}"), "\"index\":null");
    assert_ne!(null_index, text);
    let decode = |text: &str| WindowState::from_json(&dengraph_json::parse(text).expect("JSON"));
    assert!(
        decode(&null_index).is_err(),
        "an incremental window needs its index"
    );
    let rebuild = null_index.replace("\"mode\":\"incremental\"", "\"mode\":\"rebuild\"");
    assert_ne!(rebuild, null_index);
    assert_all_live(&decode(&rebuild).expect("JSON rebuild decodes"), &window);
    let unknown = null_index.replace("\"mode\":\"incremental\"", "\"mode\":\"walk\"");
    assert!(decode(&unknown).is_err());
}
