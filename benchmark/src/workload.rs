//! The four benchmark workloads and their set-up.
//!
//! Workload names are permanent: every performance claim in this
//! repository names one of them.  Each workload exists to put a different
//! layer on the critical path (see `why`, repeated in `BENCHMARK.json` and
//! the README), so that an optimisation has one workload that exercises
//! its mechanism and one that bypasses it.

use dengraph_stream::ground_truth::{GroundTruth, GroundTruthEvent, GroundTruthEventKind};
use dengraph_stream::{Message, UserId};
use dengraph_text::{KeywordId, KeywordInterner};

use crate::digest::Digest;
use crate::gen::{self, EventSpec, FamilySpec, Kind, Rng, StreamSpec};

/// The seed `--seed` defaults to; each workload's input digest at this
/// seed is recorded in [`Workload::default_seed_digest`].
pub const DEFAULT_SEED: u64 = 2012;

/// The detector's nominal quantum Δ; generation rounds are one quantum.
pub const QUANTUM: usize = 160;

/// Untimed quanta at the start of every pass: long enough for the
/// 30-quantum window to fill and for one 64-quantum journal rebase.
pub const WARMUP_QUANTA: usize = 100;

/// Quanta of the continuation fed to both the live and the recovered
/// session of a durable workload.
pub const CONTINUATION_QUANTA: usize = 50;

/// Where a workload's stream enters the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// Raw JSON lines through `dengraph_json::parse` →
    /// `KeywordPipeline::process_post` → `push_message` → `JsonLinesSink`.
    RawText,
    /// Pre-interned `Message`s straight into `push_message`, with a
    /// counting `FnSink`.
    Interned,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Permanent name.
    pub name: &'static str,
    /// Why it exists: the layers it puts on, and keeps off, the critical
    /// path.
    pub why: &'static str,
    /// Where the stream enters.
    pub entry: Entry,
    /// Whether the session journals to a durable WAL directory.
    pub durable: bool,
    /// The stream's shape.
    pub spec: fn() -> StreamSpec,
    /// `input_digest` at [`DEFAULT_SEED`]; a mismatch means the generator
    /// drifted and numbers are no longer comparable with earlier commits.
    pub default_seed_digest: u64,
}

/// Chatter shared by the two paper-trace analogues: Zipf-1.1 over 12 000
/// words, 50 000 authors, 3–7 keywords per post.
fn chatter(rounds: usize, events: EventSpec) -> StreamSpec {
    StreamSpec {
        rounds,
        round_size: QUANTUM,
        vocabulary: 12_000,
        zipf_exponent: 1.1,
        authors: 50_000,
        keywords_per_post: (3, 7),
        events,
        families: FamilySpec::none(),
    }
}

/// The Time-Window trace analogue at `tw_profile`-Large event density
/// (80 events per 600 rounds).
fn tw_spec() -> StreamSpec {
    chatter(
        TW_ROUNDS,
        EventSpec {
            per_600_rounds: [32, 24, 16, 8],
            peak: (14, 30),
            duration: (6, 14),
            keyword_prob: 0.75,
        },
    )
}

/// The Event-Specific trace analogue at `es_profile`-Large density: three
/// times the real events, stronger and longer.
fn es_spec() -> StreamSpec {
    chatter(
        ES_ROUNDS + CONTINUATION_QUANTA,
        EventSpec {
            per_600_rounds: [96, 72, 24, 16],
            peak: (20, 40),
            duration: (6, 16),
            keyword_prob: 0.75,
        },
    )
}

/// 250 pulsing six-keyword families over a uniform single-keyword
/// background: the resident keyword graph is large (≈1.4k nodes, 3.6k
/// edges) while each quantum's delta log stays small.
fn dense_spec() -> StreamSpec {
    StreamSpec {
        rounds: DENSE_ROUNDS,
        round_size: QUANTUM,
        vocabulary: 400,
        zipf_exponent: 0.0,
        authors: 50_000,
        keywords_per_post: (1, 1),
        events: EventSpec::none(),
        families: FamilySpec {
            count: 250,
            size: 6,
            period: 10,
            mortal_every: 20,
            pulse: (5, 7),
            keyword_prob: 0.85,
        },
    }
}

const TW_ROUNDS: usize = 1_400;
const DENSE_ROUNDS: usize = 1_100;
const ES_ROUNDS: usize = 1_400;

/// The workloads, in the order they are documented.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tw-text",
        why: "raw JSON-lines posts through parse, text pipeline, session and JsonLinesSink: \
              the real path, where the text, stream-json and sink layers do most of the work",
        entry: Entry::RawText,
        durable: false,
        spec: tw_spec,
        default_seed_digest: 0xB83E_8B1F_9B7A_3BDE,
    },
    Workload {
        name: "tw-ids",
        why: "the same posts pre-interned, counting sink: bypasses text, parse and sink so the \
              window layer dominates; a text or sink optimisation must show no change here",
        entry: Entry::Interned,
        durable: false,
        spec: tw_spec,
        default_seed_digest: 0x17B4_65B6_D7A7_C01D,
    },
    Workload {
        name: "dense-ids",
        why: "250 pulsing keyword families keep ~1.4k nodes resident and ~240 events per \
              quantum: all-pairs akg scoring and ranking dominate, the window layer is minor",
        entry: Entry::Interned,
        durable: false,
        spec: dense_spec,
        default_seed_digest: 0x98CC_9766_C050_1750,
    },
    Workload {
        name: "es-durable",
        why: "3x event density with the durable WAL on (fsync never): codec and journal writes \
              sit beside the pipeline and the 64-quantum snapshot rebase lands in the p99",
        entry: Entry::Interned,
        durable: true,
        spec: es_spec,
        default_seed_digest: 0xE9B0_1181_7B11_E5EA,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A workload's inputs, generated once per set-up and held in memory.
#[derive(Debug)]
pub struct Prepared {
    /// Every post pre-interned, ids assigned in first-occurrence order —
    /// exactly the ids a `KeywordPipeline` fed the rendered lines assigns.
    /// The continuation of a durable workload follows the main stream.
    pub messages: Vec<Message>,
    /// Length of the main stream (`messages[main..]` is the continuation).
    pub main: usize,
    /// The rendered JSON lines (raw-text workloads only).
    pub lines: Vec<String>,
    /// The stream's full vocabulary, handed to every session so the noun
    /// filter is live.
    pub vocabulary: KeywordInterner,
    /// The planted events, for recall and precision.
    pub truth: GroundTruth,
    /// Digest of the posts and (if rendered) the lines.
    pub input_digest: u64,
}

/// Generates, renders and pre-interns a workload's inputs from `seed`.
pub fn prepare(workload: &Workload, seed: u64) -> Prepared {
    let spec = (workload.spec)();
    let stream = gen::generate(&spec, seed);
    let names: Vec<String> = (0..stream.word_count as u32).map(gen::word_name).collect();
    let mut digest = Digest::new();
    digest.u64(stream.digest());

    const UNSEEN: u32 = u32::MAX;
    let mut vocabulary = KeywordInterner::new();
    let mut keyword_of = vec![UNSEEN; stream.word_count];
    let mut user_of = vec![u64::MAX; spec.authors as usize];
    let mut users = 0u64;
    let mut intern = |word: u32, vocabulary: &mut KeywordInterner| {
        let slot = &mut keyword_of[word as usize];
        if *slot == UNSEEN {
            *slot = vocabulary.intern(&names[word as usize]).0;
        }
        KeywordId(*slot)
    };
    let messages: Vec<Message> = stream
        .posts
        .iter()
        .map(|post| {
            let user = &mut user_of[post.author as usize];
            if *user == u64::MAX {
                *user = users;
                users += 1;
            }
            let keywords = post
                .words
                .iter()
                .map(|&w| intern(w, &mut vocabulary))
                .collect();
            Message::new(UserId(*user), post.time, keywords)
        })
        .collect();

    let mut lines = Vec::new();
    if workload.entry == Entry::RawText {
        // Its own stream of randomness: rendering never changes the posts,
        // so `tw-ids` feeds exactly the posts `tw-text` renders.
        let mut rng = Rng::new(seed ^ 0x7E87_11E5);
        let mut line = String::new();
        lines.reserve_exact(stream.posts.len());
        for post in &stream.posts {
            gen::render_line(post, &names, &mut rng, &mut line);
            digest.bytes(line.as_bytes());
            lines.push(line.clone());
        }
    }

    // Planted words no post happened to mention still need ids for the
    // ground truth; interning them last leaves every stream id unchanged.
    let truth = GroundTruth {
        events: stream
            .planted
            .iter()
            .map(|p| {
                let keywords: Vec<KeywordId> = p
                    .words
                    .iter()
                    .map(|&w| intern(w, &mut vocabulary))
                    .collect();
                GroundTruthEvent {
                    id: p.id,
                    name: format!("planted {}", p.id),
                    headline_keywords: keywords[..p.core].to_vec(),
                    keywords,
                    start_round: p.start_round as u64,
                    duration_rounds: p.duration_rounds as u64,
                    peak_messages_per_round: p.peak,
                    kind: match p.kind {
                        Kind::Headline => GroundTruthEventKind::Headline,
                        Kind::LocalOnly => GroundTruthEventKind::LocalOnly,
                        Kind::TooWeak => GroundTruthEventKind::TooWeak,
                        Kind::Spurious => GroundTruthEventKind::Spurious,
                    },
                }
            })
            .collect(),
    };

    let continuation = if workload.durable {
        CONTINUATION_QUANTA * QUANTUM
    } else {
        0
    };
    Prepared {
        main: messages.len() - continuation,
        messages,
        lines,
        vocabulary,
        truth,
        input_digest: digest.value(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dengraph_text::KeywordPipeline;

    /// A raw-text workload small enough for a debug-build test.
    fn small_text() -> Workload {
        Workload {
            name: "small-text",
            why: "test",
            entry: Entry::RawText,
            durable: false,
            spec: || chatter(40, tw_spec().events),
            default_seed_digest: 0,
        }
    }

    #[test]
    fn names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn every_workload_leaves_a_thousand_timed_quanta_for_the_p99() {
        for w in &WORKLOADS {
            let spec = (w.spec)();
            assert_eq!(spec.round_size, QUANTUM);
            let tail = if w.durable { CONTINUATION_QUANTA } else { 0 };
            assert!(spec.rounds - tail >= WARMUP_QUANTA + 1_000, "{}", w.name);
        }
    }

    #[test]
    fn prepare_is_a_function_of_the_seed() {
        let w = small_text();
        let (a, b, c) = (prepare(&w, 1), prepare(&w, 1), prepare(&w, 2));
        assert_eq!(a.input_digest, b.input_digest);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.lines, b.lines);
        assert_ne!(a.input_digest, c.input_digest);
        assert_eq!(a.messages.len(), 40 * QUANTUM);
        assert_eq!(a.main, a.messages.len());
        assert_eq!(a.lines.len(), a.messages.len());
    }

    #[test]
    fn the_text_layer_recovers_exactly_the_planted_ids_from_rendered_lines() {
        let input = prepare(&small_text(), 3);
        let mut pipeline = KeywordPipeline::new();
        for (line, message) in input.lines.iter().zip(&input.messages) {
            let value = dengraph_json::parse(line).expect("rendered line parses");
            let author = value.get("user").unwrap().as_str().unwrap();
            let text = value.get("text").unwrap().as_str().unwrap();
            let (user, keywords) = pipeline.process_post(author, text);
            assert_eq!(user.raw(), message.user.raw(), "{line}");
            assert_eq!(keywords, message.keywords, "{line}");
            assert_eq!(value.get("time").unwrap().as_u64().unwrap(), message.time);
        }
        // Same ids *and* same spellings.
        for (id, word) in pipeline.interner().iter() {
            assert_eq!(input.vocabulary.resolve(id), Some(word));
        }
    }

    #[test]
    fn ground_truth_covers_every_planted_event_with_interned_keywords() {
        let input = prepare(&small_text(), 4);
        assert!(input.truth.detectable_count() > 0);
        for event in &input.truth.events {
            assert_eq!(event.keywords.len(), 6);
            assert!(event
                .keywords
                .iter()
                .all(|&k| input.vocabulary.resolve(k).is_some()));
        }
    }
}
