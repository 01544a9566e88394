//! Every small stream, checked: the whole detector in a small scope,
//! against the reference detector.
//!
//! A *scope* is (K keywords, U users, Q quanta, window w).  A quantum is
//! U messages, one per user, each carrying any subset of the K keywords,
//! so a scope holds 2^(K·U·Q) streams.  Most defects show up in some
//! small case (Jackson's small-scope hypothesis), so this test runs
//! **every** stream of a scope through a session with Δ = U,
//! `min_sketch_size(16)` and `require_noun(false)`, under five (σ, τ),
//! and checks per run:
//!
//! * each quantum reports what `dengraph_tests::oracle` reports (keywords,
//!   rank bits and support of every event; cluster ids depend on history
//!   and are not compared), because p ≥ U·w: every sketch is a whole user
//!   set, so the engine's estimate is the oracle's exact Jaccard;
//! * a session restored from `checkpoint_bytes(WireFormat::Binary)` at
//!   every quantum boundary, then fed the rest of the stream, reports
//!   what the uninterrupted session reports and ends in the same state
//!   (the same `EventDetector::to_bin` bytes);
//! * `validate_invariants()` holds at the end (the cluster registry's
//!   checks and the event tracker's agreement with the clusters among
//!   them).
//!
//! Tier-1 runs K3 U2 Q2 w1 (4 096 streams, 20 480 runs, a few seconds in
//! a debug build, where packing a checkpoint costs the most).  K3 U2 Q3
//! w2 and K4 U2 Q2 w1 are `#[ignore]`d; run them in release with
//! `cargo test --release -p dengraph-tests --test restore_exhaustive --
//! --ignored`.  A failure reports how many runs failed and, of the
//! failing streams, the one with the fewest keyword bits — every stream
//! with one bit fewer is in the scope and passed, so it is minimal — as a
//! `#[test]` to paste below.

use dengraph_core::{DetectorBuilder, DetectorSession, QuantumSummary, WireFormat};
use dengraph_json::BinWriter;
use dengraph_stream::{Message, UserId};
use dengraph_tests::oracle::Oracle;
use dengraph_text::KeywordId;

/// Keywords, users (= messages per quantum), quanta and window of a scope.
#[derive(Debug, Clone, Copy)]
struct Scope {
    keywords: u32,
    users: u64,
    quanta: u64,
    window: usize,
}

/// Sketch size: at least U·w, so every window user set fits a sketch.
const SKETCH: usize = 16;
/// (σ, τ) pairs: the burstiness threshold and the edge correlation
/// threshold.
const THRESHOLDS: [(u32, f64); 5] = [(1, 0.2), (1, 0.5), (2, 0.2), (2, 0.5), (1, 1.0)];

/// The stream numbered `code`: message `m` (quantum `m / U`, user
/// `m % U`) carries keyword `k` iff bit `m · K + k` is set.
fn stream(scope: Scope, code: u64) -> Vec<Message> {
    (0..scope.quanta * scope.users)
        .map(|m| {
            let bits = code >> (m * u64::from(scope.keywords));
            let keywords = (0..scope.keywords)
                .filter(|k| bits >> k & 1 == 1)
                .map(KeywordId)
                .collect();
            Message::new(UserId(m % scope.users), m, keywords)
        })
        .collect()
}

/// An event as (keywords, rank bits, support).
type Report = (Vec<KeywordId>, u64, usize);

/// What a quantum reports, with ranks as bits, ordered by keywords.
fn report<'a>(events: impl Iterator<Item = (&'a Vec<KeywordId>, f64, usize)>) -> Vec<Report> {
    let mut out: Vec<Report> = events
        .map(|(keywords, rank, support)| (keywords.clone(), rank.to_bits(), support))
        .collect();
    out.sort();
    out
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

fn session(scope: Scope, sigma: u32, tau: f64) -> DetectorSession {
    assert!(SKETCH as u64 >= scope.users * scope.window as u64);
    DetectorBuilder::new()
        .quantum_size(scope.users as usize)
        .window_quanta(scope.window)
        .high_state_threshold(sigma)
        .edge_correlation_threshold(tau)
        .min_sketch_size(SKETCH)
        .require_noun(false)
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
    for quantum in messages.chunks(session.config().quantum_size).skip(done) {
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

/// Checks one stream under one (σ, τ); returns whether it reported an
/// event, or what broke.
fn check(messages: &[Message], scope: Scope, sigma: u32, tau: f64) -> Result<bool, String> {
    let mut live = session(scope, sigma, tau);
    let run = finish(&mut live, messages, 0, true);
    live.validate_invariants()
        .map_err(|e| format!("invariants: {e}"))?;
    for (cut, document) in run.checkpoints.iter().enumerate() {
        let done = cut + 1;
        let mut restored = DetectorSession::restore_bytes(document)
            .map_err(|e| format!("restore after quantum {cut}: {e}"))?;
        let rest = finish(&mut restored, messages, done, false);
        if rest.summaries[..] != run.summaries[done..] {
            return Err(format!(
                "restored after quantum {cut}, reported {:?} where the uninterrupted run \
                 reported {:?}",
                rest.summaries,
                &run.summaries[done..]
            ));
        }
        if rest.end != run.end {
            return Err(format!(
                "restored after quantum {cut}, ended in another state"
            ));
        }
    }
    let oracle = Oracle::run(live.config(), messages);
    let mut any = false;
    for (quantum, (summary, expected)) in run.summaries.iter().zip(&oracle).enumerate() {
        let engine = report(
            summary
                .events
                .iter()
                .map(|e| (&e.keywords, e.rank, e.support)),
        );
        let expected = report(expected.iter().map(|e| (&e.keywords, e.rank, e.support)));
        if engine != expected {
            return Err(format!(
                "quantum {quantum}: the engine reported {engine:?}, the oracle {expected:?}"
            ));
        }
        any |= !engine.is_empty();
    }
    Ok(any)
}

/// `messages` as a `#[test]` named `name` that runs [`check`] on them.
fn as_test(name: &str, messages: &[Message], scope: Scope, sigma: u32, tau: f64) -> String {
    let mut lines = Vec::new();
    for message in messages {
        let keywords: Vec<String> = message
            .keywords
            .iter()
            .map(|k| format!("KeywordId({})", k.0))
            .collect();
        lines.push(format!(
            "        Message::new(UserId({}), {}, vec![{}]),",
            message.user.0,
            message.time,
            keywords.join(", ")
        ));
    }
    let Scope {
        keywords,
        users,
        quanta,
        window,
    } = scope;
    format!(
        "#[test]\nfn {name}() {{\n    let messages = vec![\n{}\n    ];\n    \
         let scope = Scope {{ keywords: {keywords}, users: {users}, quanta: {quanta}, \
         window: {window} }};\n    check(&messages, scope, {sigma}, {tau:?}).unwrap();\n}}",
        lines.join("\n")
    )
}

/// Runs every stream of `scope` under every (σ, τ) and returns the number
/// of runs; panics with the failure count and the smallest failing
/// stream, as a test, if any run fails.
fn check_scope(scope: Scope) -> usize {
    let streams = 1u64 << (u64::from(scope.keywords) * scope.users * scope.quanta);
    let mut failures = 0usize;
    // (keyword bits, code, σ, τ, error) of the failure with fewest bits.
    let mut smallest: Option<(u32, u64, u32, f64, String)> = None;
    let mut with_events = 0usize;
    for code in 0..streams {
        let messages = stream(scope, code);
        for (sigma, tau) in THRESHOLDS {
            match check(&messages, scope, sigma, tau) {
                Ok(reported) => with_events += usize::from(reported),
                Err(e) => {
                    failures += 1;
                    let bits = code.count_ones();
                    if smallest.as_ref().is_none_or(|s| bits < s.0) {
                        smallest = Some((bits, code, sigma, tau, e));
                    }
                }
            }
        }
    }
    let runs = streams as usize * THRESHOLDS.len();
    eprintln!("{scope:?}: {runs} runs, {with_events} with an event, {failures} failed");
    if let Some((bits, code, sigma, tau, e)) = smallest {
        let messages = stream(scope, code);
        panic!(
            "{failures} of {runs} runs failed; the smallest ({bits} keyword bits) is stream \
             {code}, σ {sigma}, τ {tau}:\n{e}\n\n{}",
            as_test(
                &format!("stream_{code}_sigma_{sigma}_tau_{}", (tau * 100.0).round()),
                &messages,
                scope,
                sigma,
                tau
            )
        );
    }
    runs
}

#[test]
fn every_stream_of_k3_u2_q2_w1_restores_and_matches_the_oracle() {
    let runs = check_scope(Scope {
        keywords: 3,
        users: 2,
        quanta: 2,
        window: 1,
    });
    assert_eq!(runs, 20_480);
}

#[test]
#[ignore = "about 20 s in release; CI's analysis job runs it"]
fn every_stream_of_k3_u2_q3_w2_restores_and_matches_the_oracle() {
    check_scope(Scope {
        keywords: 3,
        users: 2,
        quanta: 3,
        window: 2,
    });
}

#[test]
#[ignore = "about 5 s in release; CI's analysis job runs it"]
fn every_stream_of_k4_u2_q2_w1_restores_and_matches_the_oracle() {
    check_scope(Scope {
        keywords: 4,
        users: 2,
        quanta: 2,
        window: 1,
    });
}
