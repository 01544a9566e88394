//! Every small stream, checked: the whole detector in a small scope.
//!
//! A *scope* is (K keywords, U users, Q quanta, window w).  A quantum is
//! U messages, one per user, each carrying any subset of the K keywords,
//! so a scope holds 2^(K·U·Q) streams.  Most defects show up in some
//! small case (Jackson's small-scope hypothesis), so this test runs
//! **every** stream of K3 U2 Q2 w1 — 4 096 of them — through a session
//! with Δ = U, `min_sketch_size(16)` and `require_noun(false)`, under
//! five (σ, τ), in sketch mode and in exact mode, and checks per run:
//!
//! * sketch mode reports what exact mode reports (cluster ids, keywords,
//!   rank bits, support), because p ≥ U: a union of at most p users is
//!   estimated exactly;
//! * in sketch mode, a session restored from
//!   `checkpoint_bytes(WireFormat::Binary)` at every quantum boundary,
//!   then fed the rest of the stream, reports what the uninterrupted
//!   session reports and ends in the same state (the same
//!   `EventDetector::to_bin` bytes);
//! * `validate_invariants()` holds at the end (the cluster registry's
//!   checks and the event tracker's agreement with the clusters among
//!   them).
//!
//! A failure reports how many runs failed and the first stream that did,
//! its messages, and what differed.  Under a second in release, a few in
//! a debug build, where packing a checkpoint costs the most: exact mode
//! therefore takes none.

use dengraph_core::{DetectedEvent, DetectorBuilder, DetectorSession, QuantumSummary, WireFormat};
use dengraph_json::BinWriter;
use dengraph_stream::{Message, UserId};
use dengraph_text::KeywordId;

/// The scope: keywords, users (= messages per quantum), quanta, window.
const KEYWORDS: u32 = 3;
const USERS: u64 = 2;
const QUANTA: u64 = 2;
const WINDOW: usize = 1;
/// Sketch size: at least `USERS`, so every union fits a sketch.
const SKETCH: usize = 16;
/// (σ, τ) pairs: the burstiness threshold and the edge correlation
/// threshold.
const THRESHOLDS: [(u32, f64); 5] = [(1, 0.2), (1, 0.5), (2, 0.2), (2, 0.5), (1, 1.0)];

/// The stream numbered `code`: message `m` (quantum `m / USERS`, user
/// `m % USERS`) carries keyword `k` iff bit `m · KEYWORDS + k` is set.
fn stream(code: u32) -> Vec<Message> {
    (0..QUANTA * USERS)
        .map(|m| {
            let bits = code >> (m as u32 * KEYWORDS);
            let keywords = (0..KEYWORDS)
                .filter(|k| bits >> k & 1 == 1)
                .map(KeywordId)
                .collect();
            Message::new(UserId(m % USERS), m, keywords)
        })
        .collect()
}

/// What a quantum reports, with ranks as bits.
fn reported(event: &DetectedEvent) -> (u64, Vec<KeywordId>, u64, usize) {
    (
        event.cluster_id.0,
        event.keywords.clone(),
        event.rank.to_bits(),
        event.support,
    )
}

/// A run from some quantum on: per quantum its summary and — if asked
/// for — the binary checkpoint after it, and the state it ends in.
struct Run {
    summaries: Vec<QuantumSummary>,
    checkpoints: Vec<Vec<u8>>,
    end: Vec<u8>,
}

/// `EventDetector::to_bin` of the session's detector.
fn state(session: &DetectorSession) -> Vec<u8> {
    let mut body = BinWriter::new();
    session.detector().to_bin(&mut body);
    body.into_bytes()
}

fn session(sigma: u32, tau: f64, exact: bool) -> DetectorSession {
    DetectorBuilder::new()
        .quantum_size(USERS as usize)
        .window_quanta(WINDOW)
        .high_state_threshold(sigma)
        .edge_correlation_threshold(tau)
        .min_sketch_size(SKETCH)
        .require_noun(false)
        .exact_edge_correlation(exact)
        .build()
        .expect("a valid configuration")
}

/// Runs `messages` quantum by quantum from `session`, which has already
/// processed `done` quanta.
fn finish(
    session: &mut DetectorSession,
    messages: &[Message],
    done: usize,
    checkpoint: bool,
) -> Run {
    let mut summaries = Vec::new();
    let mut checkpoints = Vec::new();
    for quantum in messages.chunks(USERS as usize).skip(done) {
        summaries.push(session.process_quantum(quantum));
        if checkpoint {
            checkpoints.push(session.checkpoint_bytes(WireFormat::Binary));
        }
    }
    Run {
        summaries,
        checkpoints,
        end: state(session),
    }
}

/// Checks one stream under one (σ, τ) in both modes; returns whether it
/// reported an event, or what broke.
fn check(messages: &[Message], sigma: u32, tau: f64) -> Result<bool, String> {
    let mut reports = Vec::new();
    for exact in [false, true] {
        let mode = if exact { "exact" } else { "sketch" };
        let mut live = session(sigma, tau, exact);
        let run = finish(&mut live, messages, 0, !exact);
        live.validate_invariants()
            .map_err(|e| format!("{mode}: invariants: {e}"))?;
        for (cut, document) in run.checkpoints.iter().enumerate() {
            let done = cut + 1;
            let mut restored = DetectorSession::restore_bytes(document)
                .map_err(|e| format!("{mode}: restore after quantum {cut}: {e}"))?;
            let rest = finish(&mut restored, messages, done, false);
            if rest.summaries[..] != run.summaries[done..] {
                return Err(format!(
                    "{mode}: restored after quantum {cut}, reported {:?} where the \
                     uninterrupted run reported {:?}",
                    rest.summaries,
                    &run.summaries[done..]
                ));
            }
            if rest.end != run.end {
                return Err(format!(
                    "{mode}: restored after quantum {cut}, ended in another state"
                ));
            }
        }
        let events: Vec<Vec<_>> = run
            .summaries
            .iter()
            .map(|s| s.events.iter().map(reported).collect())
            .collect();
        reports.push(events);
    }
    if reports[0] != reports[1] {
        return Err(format!(
            "sketch mode reported {:?}, exact mode {:?}",
            reports[0], reports[1]
        ));
    }
    Ok(reports[0].iter().any(|events| !events.is_empty()))
}

#[test]
fn every_stream_of_the_small_scope_restores_and_agrees_across_modes() {
    let streams = 1u32 << (KEYWORDS as u64 * USERS * QUANTA);
    assert_eq!(streams, 4_096);
    let mut failures = 0usize;
    let mut first = None;
    let mut with_events = 0usize;
    for code in 0..streams {
        let messages = stream(code);
        for (sigma, tau) in THRESHOLDS {
            match check(&messages, sigma, tau) {
                Ok(reported) => with_events += usize::from(reported),
                Err(e) => {
                    failures += 1;
                    first.get_or_insert_with(|| {
                        format!("stream {code}, σ {sigma}, τ {tau}: {messages:?}\n{e}")
                    });
                }
            }
        }
    }
    eprintln!(
        "{} runs, {with_events} with an event, {failures} failed",
        streams as usize * THRESHOLDS.len()
    );
    assert!(
        failures == 0,
        "{failures} of {} runs failed; the first:\n{}",
        streams as usize * THRESHOLDS.len(),
        first.unwrap_or_default()
    );
}
