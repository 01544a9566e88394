//! The decoder mutation sweep: damaged bytes at every restore entry point.
//!
//! A detector is a long-running stream consumer, so what keeps it from
//! crashing or exhausting memory on restart is how its restore paths
//! treat damaged bytes.  One small seeded session, given its trace's
//! vocabulary so that its documents carry the noun filter's verdict bits,
//! supplies the documents, and each is mutated and fed back through its
//! entry point:
//!
//! * the detector body in a **raw** container (method 0), restored with
//!   [`DetectorSession::restore_bytes`], with a varint of `u64::MAX` and
//!   of 2²⁰ spliced in place of the byte at every offset;
//! * the same body **block-packed** (method 2), seeded mutations;
//! * a journal **delta record** (from the session's one-segment journal)
//!   with the every-offset splice, decoded
//!   with [`DeltaRecord::decode`]; each payload it accepts is also
//!   re-framed, with a valid CRC, as the journal's last frame behind the
//!   snapshot it continues (the delta of the quantum after the
//!   snapshot's, which the journal wrote before the snapshot's frame
//!   while it packed the snapshot) and restored with
//!   [`DetectorSession::restore_from_journal`], which replays it (without
//!   the re-framing a mutated frame only tests the checksum);
//! * the same run journaled into a **directory** of at least three
//!   segments, whose newest snapshot frame trails deltas of later quanta
//!   (replayed) behind deltas of earlier ones (skipped on their quantum),
//!   restored with [`DetectorSession::restore_from_dir`], seeded
//!   mutations of one segment at a time;
//! * the **JSON** checkpoint, and [`EventLineReader::push_line`] over the
//!   session's own sink lines, seeded mutations.
//!
//! Seeded mutations set a byte, flip a bit, truncate, or duplicate a run
//! of bytes elsewhere; text documents also get a number replaced by
//! `u64::MAX` or 2²⁰.  The contract, for every mutation:
//!
//! * no panic;
//! * the bytes the decode holds live on the heap peak at most
//!   [`SLACK_PER_INPUT_BYTE`] × the input's length above the honest
//!   document's peak on the same entry point — a corrupt or hostile
//!   document must not pick an allocation size;
//! * every session that restores passes its own checks — the ones its
//!   next quantum makes on purpose: the cluster registry's
//!   (`ClusterRegistry::check_invariants`, which debug builds assert after
//!   every quantum), or under the `invariants` feature the whole state's
//!   (`DetectorSession::validate_invariants`);
//! * it then runs one more quantum without panicking.
//!
//! The binary contains exactly one test so no concurrent test thread can
//! disturb the live-byte counter.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use dengraph_core::{
    DeltaRecord, DetectorBuilder, DetectorConfig, DetectorSession, DurableJournalConfig,
    EventLineReader, FsyncPolicy, JournalFrameEvent, JournalReader, JsonLinesSink, WireFormat,
};
use dengraph_json::frame::encode_frame;
use dengraph_json::BinWriter;
use dengraph_stream::generator::profiles::{tw_profile, ProfileScale};
use dengraph_stream::{Message, StreamGenerator};

#[path = "support/alloc_gate.rs"]
mod alloc_gate;
use alloc_gate::peak_live_bytes;
#[path = "support/temp_dir.rs"]
mod temp_dir;

/// Heap a mutated input may hold beyond the honest document's peak, per
/// byte of input.
const SLACK_PER_INPUT_BYTE: u64 = 64;
/// The values spliced, as varints or decimal numbers.
const SPLICED: [u64; 2] = [u64::MAX, 1 << 20];

const SEED: u64 = 72;
const MESSAGES: usize = 1_500;
const WINDOW_QUANTA: usize = 3;
const DELTAS_PER_SNAPSHOT: u32 = 4;
/// Segment size of the journal directory: small enough that the run
/// spreads its frames over several segments.
const DIRECTORY_SEGMENT_BYTES: u64 = 8 << 10;

/// Seeded mutations per document, and per sink line.
const SEEDED: usize = 600;
const SEEDED_DIRECTORY: usize = 150;
const SEEDED_PER_LINE: usize = 12;

/// The payload method byte of a binary checkpoint container follows the
/// magic (4 bytes) and the version (1).
const METHOD_AT: usize = 5;
const METHOD_RAW: u8 = 0;
const METHOD_BLOCK: u8 = 2;
/// The frame tags of a journal snapshot and of a delta record.
const TAG_SNAPSHOT: u8 = 1;
const TAG_DELTA: u8 = 2;

/// One entry point's tally.
struct Family {
    name: &'static str,
    honest_peak: u64,
    cases: usize,
    accepted: usize,
    worst_peak: u64,
    elapsed: Duration,
}

/// Runs every mutation under the contract and collects what breaks it.
struct Sweep {
    families: Vec<Family>,
    /// The stream's next quantum, which a restored session must process.
    next_quantum: Vec<Message>,
    failures: Vec<String>,
}

impl Sweep {
    /// Opens a family: measures the honest input's peak on the entry
    /// point (the second of two runs, so one-time initialisation does not
    /// count) and returns the family's index.
    fn family<T, E: std::fmt::Debug>(
        &mut self,
        name: &'static str,
        honest: impl Fn() -> Result<T, E>,
    ) -> usize {
        honest().unwrap_or_else(|e| panic!("{name}: the honest input fails: {e:?}"));
        let (result, honest_peak) = peak_live_bytes(&honest);
        drop(result);
        self.open(name, honest_peak)
    }

    /// Opens a family whose honest peak the caller measured.
    fn open(&mut self, name: &'static str, honest_peak: u64) -> usize {
        self.families.push(Family {
            name,
            honest_peak,
            cases: 0,
            accepted: 0,
            worst_peak: 0,
            elapsed: Duration::ZERO,
        });
        self.families.len() - 1
    }

    /// Decodes one mutated input of `input_len` bytes; returns what it
    /// decoded to, if it neither failed nor panicked.
    fn check<T, E>(
        &mut self,
        family: usize,
        label: &str,
        input_len: usize,
        decode: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        let start = Instant::now();
        let (outcome, peak) = peak_live_bytes(|| catch_unwind(AssertUnwindSafe(decode)));
        let f = &mut self.families[family];
        f.elapsed += start.elapsed();
        f.cases += 1;
        f.worst_peak = f.worst_peak.max(peak);
        let bound = f.honest_peak + SLACK_PER_INPUT_BYTE * input_len as u64;
        if peak > bound {
            self.failures.push(format!(
                "{}: {label}: held {peak} B live (honest {} B, bound {bound} B)",
                f.name, f.honest_peak
            ));
        }
        match outcome {
            Ok(Ok(decoded)) => {
                f.accepted += 1;
                Some(decoded)
            }
            Ok(Err(_)) => None,
            Err(_) => {
                self.failures.push(format!("{}: {label}: panicked", f.name));
                None
            }
        }
    }

    /// [`Self::check`] for a restore entry point: a session that restores
    /// must pass the check its next quantum makes (debug assertions
    /// recheck the cluster registry after every quantum, the `invariants`
    /// feature the whole state), then process that quantum.
    fn restore<E>(
        &mut self,
        family: usize,
        label: &str,
        input_len: usize,
        restore: impl FnOnce() -> Result<DetectorSession, E>,
    ) {
        if let Some(mut session) = self.check(family, label, input_len, restore) {
            let start = Instant::now();
            let checked = if cfg!(feature = "invariants") {
                session.validate_invariants()
            } else {
                session.clusters().registry().check_invariants()
            };
            let broken = match checked {
                Err(e) => Some(format!("restored a state that fails its own checks: {e}")),
                Ok(()) => catch_unwind(AssertUnwindSafe(|| session.run(&self.next_quantum)))
                    .is_err()
                    .then(|| "restored, then panicked in the next quantum".to_string()),
            };
            self.families[family].elapsed += start.elapsed();
            if let Some(broken) = broken {
                let name = self.families[family].name;
                self.failures.push(format!("{name}: {label}: {broken}"));
            }
        }
    }
}

/// `doc` with the byte at `at` replaced by the varint of `value`.
fn splice(doc: &[u8], at: usize, value: u64) -> Vec<u8> {
    let mut varint = BinWriter::new();
    varint.u64(value);
    let mut out = Vec::with_capacity(doc.len() + varint.len());
    out.extend_from_slice(&doc[..at]);
    out.extend_from_slice(varint.as_slice());
    out.extend_from_slice(&doc[at + 1..]);
    out
}

/// Every varint splice of `doc`, labelled.
fn splices(doc: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    (0..doc.len()).flat_map(move |at| {
        SPLICED
            .iter()
            .map(move |&v| (format!("varint {v} at byte {at}"), splice(doc, at, v)))
    })
}

/// Bytes a text mutation sets: JSON's punctuation and digits.
const TEXT_BYTES: &[u8] = b"0123456789-.e,:[]{}\"tn ";

/// One seeded mutation of `doc`: a byte set, a bit flipped, a truncation,
/// or a run of up to 64 bytes duplicated elsewhere; a `text` document
/// sets bytes from [`TEXT_BYTES`] instead of flipping bits, and may have
/// a number replaced by one of [`SPLICED`].
fn mutate(rng: &mut ChaCha8Rng, doc: &[u8], text: bool) -> (String, Vec<u8>) {
    let mut out = doc.to_vec();
    let at = rng.gen_range(0..doc.len());
    let label = match rng.gen_range(0..4u32) {
        0 => {
            let value = if text {
                TEXT_BYTES[rng.gen_range(0..TEXT_BYTES.len())]
            } else {
                rng.gen_range(0..=u8::MAX as u32) as u8
            };
            out[at] = value;
            format!("byte {at} := {value}")
        }
        1 if !text => {
            let bit = rng.gen_range(0..8u32);
            out[at] ^= 1 << bit;
            format!("bit {bit} of byte {at} flipped")
        }
        1 => match doc[at..].iter().position(u8::is_ascii_digit) {
            Some(offset) => {
                let start = at + offset;
                let end = start
                    + doc[start..]
                        .iter()
                        .take_while(|b| b.is_ascii_digit())
                        .count();
                let value = SPLICED[rng.gen_range(0..SPLICED.len())];
                out.splice(start..end, value.to_string().into_bytes());
                format!("number at byte {start} := {value}")
            }
            None => "unchanged".to_string(),
        },
        2 => {
            out.truncate(at);
            format!("truncated to {at} bytes")
        }
        _ => {
            let len = rng.gen_range(1..=(doc.len() - at).min(64));
            let to = rng.gen_range(0..=doc.len());
            out.splice(to..to, doc[at..at + len].iter().copied());
            format!("{len} bytes from {at} duplicated at {to}")
        }
    };
    (label, out)
}

/// The payload of the newest snapshot frame in a journal's `segments`
/// (in sequence order), and the payloads of the delta frames before it
/// that a restore from it replays: those of the quantum it continues at
/// and later, which a rebase writes while it packs its snapshot.
fn newest_snapshot<'a>(segments: &[&'a [u8]]) -> (&'a [u8], Vec<&'a [u8]>) {
    // (is a snapshot, payload) of every frame, in log order.
    let mut frames: Vec<(bool, &[u8])> = Vec::new();
    for segment in segments {
        let mut reader = JournalReader::new(segment).expect("the segment has a header");
        loop {
            match reader.next_frame() {
                JournalFrameEvent::Snapshot(payload) => frames.push((true, payload)),
                JournalFrameEvent::Delta(payload) => frames.push((false, payload)),
                JournalFrameEvent::End => break,
                torn => panic!("the honest journal is torn: {torn:?}"),
            }
        }
    }
    let at = frames
        .iter()
        .rposition(|&(is_snapshot, _)| is_snapshot)
        .expect("the journal holds a snapshot frame");
    let snapshot = frames[at].1;
    let next = DetectorSession::restore_bytes(snapshot)
        .expect("the snapshot restores")
        .quanta_processed();
    let later = frames[..at]
        .iter()
        .filter(|&&(is_snapshot, payload)| {
            !is_snapshot
                && DeltaRecord::decode(payload)
                    .expect("an honest delta decodes")
                    .quantum()
                    >= next
        })
        .map(|&(_, payload)| payload)
        .collect();
    (snapshot, later)
}

#[test]
fn every_restore_entry_point_survives_mutated_input_within_an_allocation_bound() {
    let trace = StreamGenerator::new(tw_profile(SEED, ProfileScale::Small)).generate();
    let config = DetectorConfig::nominal().with_window_quanta(WINDOW_QUANTA);
    let quantum_size = config.quantum_size;
    let lines = Arc::new(Mutex::new(JsonLinesSink::new(Vec::new())));
    let journal_dir = temp_dir::scratch_dir("decoder-mutation-journal");
    let mut session = DetectorBuilder::from_config(config.clone())
        .interner(trace.interner.clone())
        .durable_journal(&journal_dir, temp_dir::one_segment(DELTAS_PER_SNAPSHOT))
        .build()
        .expect("valid config and writable journal dir");
    session.attach_sink(Box::new(Arc::clone(&lines)));
    session.run(&trace.messages[..MESSAGES]);

    let block = session.checkpoint_bytes(WireFormat::Binary);
    assert_eq!(block[METHOD_AT], METHOD_BLOCK, "the state packs");
    let mut body = BinWriter::new();
    session.detector().to_bin(&mut body);
    let mut raw = block[..METHOD_AT].to_vec();
    raw.push(METHOD_RAW);
    raw.extend_from_slice(body.as_slice());
    let json = session.checkpoint_bytes(WireFormat::Json);
    drop(session);
    // The same run again, journaled into a directory of segments.
    let dir = temp_dir::scratch_dir("decoder-mutation-directory");
    DetectorBuilder::from_config(config.clone())
        .interner(trace.interner.clone())
        .durable_journal(
            &dir,
            DurableJournalConfig {
                rebase_every: DELTAS_PER_SNAPSHOT,
                fsync: FsyncPolicy::Never,
                segment_bytes: DIRECTORY_SEGMENT_BYTES,
            },
        )
        .build()
        .expect("valid config and writable journal dir")
        .run(&trace.messages[..MESSAGES]);
    let journal = temp_dir::only_file(&journal_dir);
    let _ = fs::remove_dir_all(&journal_dir);
    // The journal cut down to its header and its newest snapshot frame,
    // and the delta that continues the snapshot: re-framed behind the
    // cut, the delta is the journal's last frame, and a restore replays
    // it alone on top of the snapshot.
    let (snapshot, later) = newest_snapshot(&[&journal]);
    let delta = later[0];
    let header = JournalReader::new(&journal)
        .expect("the journal has a header")
        .pos();
    let mut base = journal[..header].to_vec();
    base.extend_from_slice(&encode_frame(TAG_SNAPSHOT, snapshot));
    let reframed = |payload: &[u8]| {
        let mut out = base.clone();
        out.extend_from_slice(&encode_frame(TAG_DELTA, payload));
        out
    };
    let sink_text = Arc::try_unwrap(lines)
        .expect("the session released its sink")
        .into_inner()
        .expect("sink lock")
        .into_inner();
    let sink_lines: Vec<String> = String::from_utf8(sink_text)
        .expect("sink lines are text")
        .lines()
        .map(str::to_string)
        .collect();

    let mut sweep = Sweep {
        families: Vec::new(),
        next_quantum: trace.messages[MESSAGES..MESSAGES + quantum_size].to_vec(),
        failures: Vec::new(),
    };
    let mut rng = ChaCha8Rng::seed_from_u64(0xDEC0_DE72);

    // (a) The raw container, spliced at every offset.
    let family = sweep.family("raw checkpoint", || DetectorSession::restore_bytes(&raw));
    for (label, doc) in splices(&raw) {
        sweep.restore(family, &label, doc.len(), || {
            DetectorSession::restore_bytes(&doc)
        });
    }

    // (b) The same body block-packed.
    let family = sweep.family("block checkpoint", || {
        DetectorSession::restore_bytes(&block)
    });
    for _ in 0..SEEDED {
        let (label, doc) = mutate(&mut rng, &block, false);
        sweep.restore(family, &label, doc.len(), || {
            DetectorSession::restore_bytes(&doc)
        });
    }

    // (c) A delta record, decoded alone and as the journal's last frame.
    let decoded = sweep.family("delta record", || DeltaRecord::decode(delta));
    let honest_journal = reframed(delta);
    let replayed = sweep.family("re-framed delta", || {
        DetectorSession::restore_from_journal(&honest_journal)
    });
    for (label, payload) in splices(delta) {
        // A payload the decoder rejects fails the restore at the same
        // decode, so only the ones it accepts are replayed.
        let accepted = sweep.check(decoded, &label, payload.len(), || {
            DeltaRecord::decode(&payload)
        });
        if accepted.is_some() {
            let doc = reframed(&payload);
            sweep.restore(replayed, &label, doc.len(), || {
                DetectorSession::restore_from_journal(&doc)
            });
        }
    }

    // (d) The journal directory, one segment mutated at a time.
    let mut segments: Vec<(PathBuf, Vec<u8>)> = fs::read_dir(&dir)
        .expect("journal directory reads")
        .map(|entry| {
            let path = entry.expect("directory entry reads").path();
            let bytes = fs::read(&path).expect("segment reads");
            (path, bytes)
        })
        .collect();
    segments.sort();
    assert!(segments.len() >= 3, "{} segments", segments.len());
    // Its newest snapshot frame trails deltas of later quanta, which a
    // restore replays, behind deltas of earlier ones, which it skips.
    let in_order: Vec<&[u8]> = segments.iter().map(|(_, bytes)| bytes.as_slice()).collect();
    let (_, later) = newest_snapshot(&in_order);
    assert!(
        !later.is_empty(),
        "the newest snapshot frame follows no delta it continues with"
    );
    let journal_len: usize = segments.iter().map(|(_, bytes)| bytes.len()).sum();
    let family = sweep.family("journal directory", || {
        DetectorSession::restore_from_dir(&dir)
    });
    for _ in 0..SEEDED_DIRECTORY {
        let (path, bytes) = &segments[rng.gen_range(0..segments.len())];
        let (label, mutated) = mutate(&mut rng, bytes, false);
        fs::write(path, &mutated).expect("segment writes");
        let label = format!("{}: {label}", path.display());
        let len = journal_len - bytes.len() + mutated.len();
        sweep.restore(family, &label, len, || {
            DetectorSession::restore_from_dir(&dir)
        });
        fs::write(path, bytes).expect("segment restores");
    }
    let _ = fs::remove_dir_all(&dir);

    // (e) The JSON checkpoint, and the sink's event lines.
    let family = sweep.family("JSON checkpoint", || DetectorSession::restore_bytes(&json));
    for _ in 0..SEEDED {
        let (label, doc) = mutate(&mut rng, &json, true);
        sweep.restore(family, &label, doc.len(), || {
            DetectorSession::restore_bytes(&doc)
        });
    }
    // A line's honest peak is that of the costliest line of an honest pass.
    let mut reader = EventLineReader::new();
    let honest_peak = sink_lines
        .iter()
        .map(|line| {
            let (folded, peak) = peak_live_bytes(|| reader.push_line(line));
            folded.expect("an honest line folds");
            peak
        })
        .max()
        .expect("the sink wrote lines");
    let family = sweep.open("sink line", honest_peak);
    let mut reader = EventLineReader::new();
    for (index, line) in sink_lines.iter().enumerate() {
        for _ in 0..SEEDED_PER_LINE {
            let (label, mutated) = mutate(&mut rng, line.as_bytes(), true);
            let mutated = String::from_utf8_lossy(&mutated).into_owned();
            let label = format!("line {index}: {label}");
            sweep.check(family, &label, mutated.len(), || reader.push_line(&mutated));
        }
        // Accepted mutations may have changed the records; later honest
        // lines then fail, which is what the reader promises.
        let _ = reader.push_line(line);
    }

    for f in &sweep.families {
        eprintln!(
            "{:<18} {:>6} mutations, {:>5} accepted, worst peak {:>9} B (honest {:>9} B), {:.1?}",
            f.name, f.cases, f.accepted, f.worst_peak, f.honest_peak, f.elapsed
        );
    }
    let cases: usize = sweep.families.iter().map(|f| f.cases).sum();
    assert!(
        sweep.failures.is_empty(),
        "{} of {cases} mutations broke the contract; the first:\n{}",
        sweep.failures.len(),
        sweep.failures[..sweep.failures.len().min(20)].join("\n")
    );
}
