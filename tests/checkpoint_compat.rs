//! One format epoch, and the checks its window index section needs.
//!
//! Checkpoint containers and JSON documents carry format version 3: the
//! epoch that writes no retired field and reads none (version 2 still
//! carried the configuration's exact-correlation byte).  `tests/fixtures/`
//! keeps documents **written by earlier commits**, from the small seeded
//! session rebuilt below:
//!
//! * `checkpoint_parent_lzss.bin` (commit `3ac7497`, version 1) — a
//!   binary container whose state is LZSS-packed (payload method 1);
//! * `checkpoint_parent_index.json` (commit `93e6cc0`, version 1) — a JSON
//!   document whose window carries every index entry (`"entries"`);
//! * `journal_parent_index/` (commit `93e6cc0`, version 1) — a
//!   three-segment journal directory whose snapshots are block-packed
//!   containers of version 1;
//! * `checkpoint_parent_v2.bin` (commit `230eb3c`, version 2) — a
//!   block-packed binary container of the previous epoch.
//!
//! Gated here: each is refused through its restore entry point with a
//! typed [`RestoreError`] that names its version, never a panic, and so
//! is each version-1 body relabelled as the current version.  And the window's index
//! section — the materialization threshold and the live keyword ids,
//! behind the records — is held to σ, and a live list no window can have
//! produced is an error, never a panic.
//!
//! The fixtures are data: nothing regenerates them.  Their generator was
//! this file's `fixture_*` functions plus
//! `DetectorBuilder::durable_journal(dir, FsyncPolicy::Never, 1.5 KB
//! segments, a snapshot every 4 deltas)` and
//! `checkpoint_bytes(WireFormat::Binary | WireFormat::Json)`, run at the
//! commits named above.

use std::fs;
use std::path::{Path, PathBuf};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use dengraph_core::keyword_state::{QuantumRecord, WindowState};
use dengraph_core::{
    DetectorBuilder, DetectorConfig, DetectorSession, EventDetector, RestoreError, WireFormat,
};
use dengraph_json::{BinReader, BinWriter, Decode, Encode};
use dengraph_minhash::UserHasher;
use dengraph_stream::{Message, UserId};
use dengraph_tests::window::WindowReference;
use dengraph_text::{KeywordId, KeywordInterner};

/// Where the version varint of a binary checkpoint container sits:
/// behind the 4-byte magic.
const VERSION_AT: usize = 4;

/// Quanta the fixture session had closed when it was checkpointed (it
/// was three messages into the next one).
const FIXTURE_QUANTA: usize = 9;
const FIXTURE_BUFFERED: usize = 3;

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

/// The fixture session rebuilt under the current code, as it stood when
/// the fixtures were written.
fn fixture_session() -> DetectorSession {
    let config = fixture_config();
    let mut session = DetectorBuilder::from_config(config.clone())
        .interner(fixture_interner())
        .build()
        .expect("valid fixture config");
    let fed = FIXTURE_QUANTA * config.quantum_size + FIXTURE_BUFFERED;
    let mut events = 0;
    for message in fixture_messages(FIXTURE_QUANTA + 1).into_iter().take(fed) {
        if let Some(summary) = session.push_message(message) {
            events += summary.events.len();
        }
    }
    assert!(events > 0, "the fixture stream must report events");
    session
}

fn state_bytes(session: &DetectorSession) -> Vec<u8> {
    let mut body = BinWriter::new();
    session.detector().to_bin(&mut body);
    body.into_bytes()
}

/// `result` is the typed refusal of a document of format `version`.
fn assert_refused_as_version<T>(version: u8, label: &str, result: Result<T, RestoreError>) {
    let needle = format!("version {version}");
    match result {
        Err(RestoreError::Json(e)) => {
            assert!(
                e.message.contains(&needle),
                "{label}: refused for {e}, not for its version"
            );
            assert!(RestoreError::Json(e).to_string().contains(&needle));
        }
        Err(other) => panic!("{label}: expected a JSON-class error, got {other}"),
        Ok(_) => panic!("{label}: a pre-epoch document restored"),
    }
}

/// Every kept pre-epoch fixture is refused through its entry point, with
/// an error that names its version.  Relabelled as the current version,
/// the version-1 bodies are still refused — for what they hold (LZSS is
/// no payload method, `"entries"` is no index) — and nothing panics.
#[test]
fn every_pre_epoch_fixture_is_refused_naming_its_version() {
    let bin = fs::read(fixtures().join("checkpoint_parent_lzss.bin")).expect("fixture reads");
    let json = fs::read(fixtures().join("checkpoint_parent_index.json")).expect("fixture reads");
    assert_eq!(bin[VERSION_AT], 1, "a version-1 container");
    assert_refused_as_version(1, "binary", DetectorSession::restore_bytes(&bin));
    assert_refused_as_version(1, "JSON", DetectorSession::restore_bytes(&json));
    // The version is checked first, whatever the configuration holds.
    let text = std::str::from_utf8(&json).expect("JSON fixture is text");
    let no_config = text.replacen("\"config\":", "\"retired_config\":", 1);
    assert_ne!(no_config, text);
    assert_refused_as_version(
        1,
        "JSON without a configuration",
        DetectorSession::restore_bytes(no_config.as_bytes()),
    );
    assert_refused_as_version(
        1,
        "journal directory",
        DetectorSession::restore_from_dir(fixtures().join("journal_parent_index")),
    );

    let v2 = fs::read(fixtures().join("checkpoint_parent_v2.bin")).expect("fixture reads");
    assert_eq!(v2[VERSION_AT], 2, "a version-2 container");
    assert_refused_as_version(2, "version-2 binary", DetectorSession::restore_bytes(&v2));

    let current = fixture_session().checkpoint_bytes(WireFormat::Binary);
    assert_eq!(current[..VERSION_AT], bin[..VERSION_AT], "the same magic");
    assert_eq!(current[VERSION_AT], 3, "the epoch writes version 3");
    let mut relabelled = bin.clone();
    relabelled[VERSION_AT] = 3;
    match DetectorSession::restore_bytes(&relabelled) {
        Err(RestoreError::Json(e)) => assert!(e.message.contains("payload method 1"), "{e}"),
        other => panic!("an LZSS payload: {:?}", other.err()),
    }
    let needle = "\"version\":1";
    assert!(text.contains(needle) && text.contains("\"entries\":[[0,{"));
    let relabelled = text.replacen(needle, "\"version\":3", 1);
    match DetectorSession::restore_bytes(relabelled.as_bytes()) {
        Err(RestoreError::Json(e)) => assert!(e.message.contains("'live'"), "{e}"),
        other => panic!("an entries index: {:?}", other.err()),
    }
}

// ---------------------------------------------------------------------------
// The index header is checked, and a hostile live list is an error
// ---------------------------------------------------------------------------

/// Where the window's index section starts inside `to_bin` of a session's
/// detector: behind the configuration and the window's geometry and
/// records.
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
/// are indexed, and used to be trusted: a restore requires it to be the
/// configuration's σ.
#[test]
fn an_index_threshold_other_than_sigma_is_rejected_in_both_wire_formats() {
    let live = fixture_session();
    let sigma = live.config().high_state_threshold as u8;
    let at = index_section_at(&live);
    let decode = |body: &[u8]| EventDetector::from_bin(&mut BinReader::new(body));

    let mut body = state_bytes(&live);
    assert_eq!(body[at], sigma);
    assert!(decode(&body).is_ok());
    body[at] = sigma - 1;
    assert!(decode(&body).is_err(), "binary");

    let needle = format!("\"materialize_threshold\":{sigma}");
    let text = String::from_utf8(live.checkpoint_bytes(WireFormat::Json)).expect("text");
    assert!(DetectorSession::restore_bytes(text.as_bytes()).is_ok());
    let tampered = text.replace(&needle, "\"materialize_threshold\":1");
    assert_ne!(text, tampered, "the document must actually tamper");
    assert!(
        DetectorSession::restore_bytes(tampered.as_bytes()).is_err(),
        "JSON"
    );
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
    for (q, messages) in hostile_fixture_quanta().iter().enumerate() {
        window.push(QuantumRecord::from_messages(q as u64, messages));
    }
    assert!(window.window_minima(KeywordId(2)).is_some());
    assert!(window.window_minima(KeywordId(3)).is_none());
    window
}

/// The quanta of [`hostile_fixture_window`].
fn hostile_fixture_quanta() -> Vec<Vec<Message>> {
    (0..=HOSTILE_CAPACITY as u64)
        .map(|q| {
            let mut messages: Vec<Message> = (0..3)
                .map(|u| Message::new(UserId(10 * q + u), q, vec![KeywordId(1)]))
                .collect();
            let idlers = if q == 0 { 0..3 } else { 0..1 };
            messages.extend(idlers.map(|u| Message::new(UserId(u), q, vec![KeywordId(2)])));
            messages.push(Message::new(UserId(50 + q), q, vec![KeywordId(3)]));
            if q == 0 {
                messages.push(Message::new(UserId(99), q, vec![KeywordId(4)]));
            }
            messages
        })
        .collect()
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
    // The section is the index's, in full: without it, or without its
    // threshold, no window of this epoch is described.
    let index = dengraph_json::to_string(window.to_json().get("index").expect("an index"));
    for (label, tampered) in [
        (
            "a null index",
            text.replace(&format!("\"index\":{index}"), "\"index\":null"),
        ),
        ("no index", text.replace(&format!(",\"index\":{index}"), "")),
        (
            "no threshold",
            text.replace(
                &format!(",\"materialize_threshold\":{HOSTILE_THRESHOLD}"),
                "",
            ),
        ),
    ] {
        assert_ne!(tampered, text, "{label}: the document must actually tamper");
        let value = dengraph_json::parse(&tampered).expect("still JSON");
        assert!(
            WindowState::from_json(&value).is_err(),
            "{label} was accepted"
        );
    }

    // An id that is listed without a bursty record in the window is what
    // keyword 2 already is; listing keyword 3 as well describes a window
    // that indexed it before its burst slid out, and restores.
    let more = decode(&with_index_section(&bytes, &index_section(t, &[1, 1, 1])))
        .expect("a quiet keyword may be live");
    more.validate_invariants().expect("invariants hold");
    let mut reference = WindowReference::new(
        HOSTILE_CAPACITY,
        4,
        UserHasher::new(HOSTILE_SEED),
        HOSTILE_THRESHOLD,
    );
    for (q, messages) in hostile_fixture_quanta().iter().enumerate() {
        reference.push(q as u64, messages);
    }
    assert_eq!(
        more.window_minima(KeywordId(3)),
        Some(reference.minima(KeywordId(3)).as_slice())
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
