//! The incremental window index's contract: for any trace, window length
//! and parallelism profile, `WindowIndexMode::Incremental` (per keyword a
//! hash-ordered head of at most `4p` stamped rows whose first `p` are the
//! window sketch, the rows above it in one shared overflow table) emits
//! **bit-identical** output to `WindowIndexMode::Rebuild` (walk all `w`
//! quanta per read).  Identity is checked at three levels: the full
//! `QuantumSummary` stream (events, ranks, AKG delta statistics) through
//! the detector; the raw window reads (sketches, user sets, counts,
//! recency) through `WindowState` itself under seeded ChaCha8 workloads;
//! and, for the churn a head-plus-overflow index has to get right — spill
//! past `4p`, refill below `p`, restamps on either side of the head's last
//! row, pooled entries — both modes against a sketch built from scratch
//! over the users a plain copy of the last `w` quanta holds.

use std::collections::{BTreeSet, VecDeque};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use dengraph_core::keyword_state::{QuantumRecord, WindowState};
use dengraph_core::{
    DetectorBuilder, DetectorConfig, Parallelism, QuantumSummary, WindowIndexMode, WireFormat,
};
use dengraph_json::{Decode, Encode};
use dengraph_minhash::{MinHashSketch, UserHasher};
use dengraph_stream::generator::profiles::{es_profile, tw_profile, ProfileScale};
use dengraph_stream::{Message, StreamGenerator, Trace, UserId};
use dengraph_text::KeywordId;

fn run(trace: &Trace, config: &DetectorConfig) -> Vec<QuantumSummary> {
    let mut detector = DetectorBuilder::from_config(config.clone())
        .interner(trace.interner.clone())
        .build()
        .expect("valid config");
    detector.run(&trace.messages)
}

/// Byte-level comparison of everything a summary reports (Debug output
/// covers every field; float formatting is shortest-round-trip, so two
/// ranks print identically iff they are bit-identical).
fn canonical(summaries: &[QuantumSummary]) -> String {
    format!("{summaries:#?}")
}

#[test]
fn incremental_matches_rebuild_across_window_sizes_and_parallelism() {
    let traces = [
        StreamGenerator::new(tw_profile(41, ProfileScale::Small)).generate(),
        StreamGenerator::new(es_profile(42, ProfileScale::Small)).generate(),
    ];
    for trace in &traces {
        for window_quanta in [4usize, 12, 20] {
            let base = DetectorConfig::nominal().with_window_quanta(window_quanta);
            let rebuild = run(
                trace,
                &base
                    .clone()
                    .with_window_index_mode(WindowIndexMode::Rebuild),
            );
            for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
                let incremental = run(
                    trace,
                    &base
                        .clone()
                        .with_window_index_mode(WindowIndexMode::Incremental)
                        .with_parallelism(parallelism),
                );
                assert_eq!(
                    canonical(&rebuild),
                    canonical(&incremental),
                    "{}: incremental({parallelism}) diverged from rebuild at w={window_quanta}",
                    trace.profile_name
                );
            }
        }
    }
}

#[test]
fn exact_edge_correlation_ablation_matches_across_modes() {
    let trace = StreamGenerator::new(tw_profile(43, ProfileScale::Small)).generate();
    let base = DetectorConfig {
        exact_edge_correlation: true,
        ..DetectorConfig::nominal().with_window_quanta(12)
    };
    let rebuild = run(
        &trace,
        &base
            .clone()
            .with_window_index_mode(WindowIndexMode::Rebuild),
    );
    let incremental = run(
        &trace,
        &base.with_window_index_mode(WindowIndexMode::Incremental),
    );
    assert_eq!(canonical(&rebuild), canonical(&incremental));
}

/// The exact-EC ablation reads user sets, which come from a walk over the
/// records even for indexed keywords: its events are pinned to what the
/// commit before that change (b71e3c4, indexed user columns) reported.
#[test]
fn exact_edge_correlation_events_are_those_of_the_indexed_user_columns() {
    let trace = StreamGenerator::new(es_profile(45, ProfileScale::Small)).generate();
    let config = DetectorConfig {
        exact_edge_correlation: true,
        ..DetectorConfig::nominal().with_window_quanta(12)
    };
    let summaries = run(&trace, &config);
    assert!(summaries.iter().any(|s| !s.events.is_empty()));
    // FNV-1a over everything the summaries report.
    let digest = canonical(&summaries)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(digest, EXACT_EC_DIGEST, "digest {digest:#018x}");
}

const EXACT_EC_DIGEST: u64 = 0x0924_c069_e4a4_771b;

#[test]
fn long_term_event_records_match_across_modes() {
    let trace = StreamGenerator::new(es_profile(44, ProfileScale::Small)).generate();
    let records = |mode: WindowIndexMode| {
        let config = DetectorConfig::nominal()
            .with_window_quanta(12)
            .with_window_index_mode(mode);
        let mut det = DetectorBuilder::from_config(config)
            .interner(trace.interner.clone())
            .build()
            .expect("valid config");
        det.run(&trace.messages);
        format!("{:#?}", det.event_records())
    };
    assert_eq!(
        records(WindowIndexMode::Rebuild),
        records(WindowIndexMode::Incremental),
        "long-term event records diverged between window index modes"
    );
}

/// Raw window reads under random workloads: one window per mode fed the
/// same seeded ChaCha8 record stream, every per-keyword read compared
/// after every slide.  This pins the *sketch* identity directly (the
/// detector-level tests only observe sketches through admitted edges).
#[test]
fn window_reads_are_bit_identical_under_random_workloads() {
    for case in 0..24u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x71D0_0000 + case);
        let capacity = rng.gen_range(1..8usize);
        let sketch_size = rng.gen_range(2..20usize);
        let mut rebuild = WindowState::with_mode(
            capacity,
            sketch_size,
            UserHasher::new(0xBEEF),
            WindowIndexMode::Rebuild,
        );
        let mut incremental = WindowState::with_mode(
            capacity,
            sketch_size,
            UserHasher::new(0xBEEF),
            WindowIndexMode::Incremental,
        );
        let quanta = rng.gen_range(5..20u64);
        for q in 0..quanta {
            // Occasionally an entirely empty quantum: pure slide.
            let message_count = if rng.gen_range(0..5u32) == 0 {
                0
            } else {
                rng.gen_range(1..40usize)
            };
            let messages: Vec<Message> = (0..message_count)
                .map(|m| {
                    let user = UserId(rng.gen_range(0..15u64));
                    let keywords: Vec<KeywordId> = (0..rng.gen_range(1..4u32))
                        .map(|_| KeywordId(rng.gen_range(0..10u32)))
                        .collect();
                    Message::new(user, q * 1000 + m as u64, keywords)
                })
                .collect();
            let record = QuantumRecord::from_messages(q, &messages);
            rebuild.push(record.clone());
            incremental.push(record);

            assert_eq!(
                {
                    let mut k: Vec<KeywordId> = rebuild.keywords_in_window().into_iter().collect();
                    k.sort_unstable();
                    k
                },
                {
                    let mut k: Vec<KeywordId> =
                        incremental.keywords_in_window().into_iter().collect();
                    k.sort_unstable();
                    k
                },
                "case {case}: keyword sets diverged at quantum {q}"
            );
            // Probe every keyword in the universe, including absent ones.
            for kw in (0..10u32).map(KeywordId) {
                assert_eq!(
                    rebuild.window_sketch(kw),
                    incremental.window_sketch(kw),
                    "case {case}: sketch diverged for {kw:?} at quantum {q}"
                );
                assert_eq!(
                    rebuild.window_user_set(kw),
                    incremental.window_user_set(kw),
                    "case {case}: user set diverged for {kw:?} at quantum {q}"
                );
                assert_eq!(
                    rebuild.window_user_count(kw),
                    incremental.window_user_count(kw)
                );
                assert_eq!(rebuild.last_seen(kw), incremental.last_seen(kw));
                assert_eq!(rebuild.is_stale(kw), incremental.is_stale(kw));
            }
            // And the pairwise correlations the AKG consumes.
            for a in (0..10u32).map(KeywordId) {
                for b in (a.0 + 1..10u32).map(KeywordId) {
                    assert!(
                        rebuild.estimated_edge_correlation(a, b)
                            == incremental.estimated_edge_correlation(a, b),
                        "case {case}: estimated EC diverged for ({a:?},{b:?})"
                    );
                    assert!(
                        rebuild.exact_edge_correlation(a, b)
                            == incremental.exact_edge_correlation(a, b),
                        "case {case}: exact EC diverged for ({a:?},{b:?})"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Differential churn: Rebuild vs Incremental vs from scratch
// ---------------------------------------------------------------------------

const CHURN_SEED: u64 = 0xC0DE;

fn churn_hasher() -> UserHasher {
    UserHasher::new(CHURN_SEED)
}

fn post(user: u64, quantum: u64, keywords: &[u32]) -> Message {
    Message::new(
        UserId(user),
        quantum,
        keywords.iter().map(|&k| KeywordId(k)).collect(),
    )
}

/// `users` ordered by their hash: the order of a keyword's column.
fn by_hash(users: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let hasher = churn_hasher();
    let mut users: Vec<u64> = users.into_iter().collect();
    users.sort_unstable_by_key(|&u| hasher.hash(u));
    users
}

/// One window per mode plus a plain copy of the last `w` quanta, fed the
/// same stream and compared after every quantum.
struct Differential {
    sketch_size: usize,
    rebuild: WindowState,
    incremental: WindowState,
    recent: VecDeque<(u64, Vec<Message>)>,
    pushed: u64,
    /// The `QuantumRecord::index` given to the n-th push, when it is not
    /// n.  The detector counts up — and `validate_invariants` holds the
    /// window to that — but the window itself must not care.
    index_of: Option<fn(u64) -> u64>,
}

impl Differential {
    fn new(sketch_size: usize, threshold: usize, w: usize) -> Self {
        let window = |mode| {
            WindowState::with_mode(w, sketch_size, churn_hasher(), mode)
                .with_materialize_threshold(threshold)
        };
        Self {
            sketch_size,
            rebuild: window(WindowIndexMode::Rebuild),
            incremental: window(WindowIndexMode::Incremental),
            recent: VecDeque::new(),
            pushed: 0,
            index_of: None,
        }
    }

    /// The users that mention `keyword` in the copied quanta, and the last
    /// of those quanta it occurs in.
    fn expected(&self, keyword: KeywordId) -> (BTreeSet<UserId>, Option<u64>) {
        let mut users = BTreeSet::new();
        let mut last_seen = None;
        for (quantum, messages) in &self.recent {
            for message in messages.iter().filter(|m| m.keywords.contains(&keyword)) {
                users.insert(message.user);
                last_seen = Some(*quantum);
            }
        }
        (users, last_seen)
    }

    fn push(&mut self, messages: &[Message], keywords: u32, label: &str) {
        let quantum = self
            .index_of
            .map_or(self.pushed, |index_of| index_of(self.pushed));
        let counts_up = self.index_of.is_none();
        self.pushed += 1;
        let record = QuantumRecord::from_messages(quantum, messages);
        self.rebuild.push(record.clone());
        self.incremental.push(record);
        self.recent.push_back((quantum, messages.to_vec()));
        if self.recent.len() > self.incremental.capacity() {
            self.recent.pop_front();
        }

        if counts_up {
            self.incremental
                .validate_invariants()
                .unwrap_or_else(|e| panic!("{label}, quantum {quantum}: {e}"));
        }
        // One keyword past the universe: never in the window.
        for keyword in (0..=keywords).map(KeywordId) {
            let at = format!("{label}, quantum {quantum}, {keyword}");
            let (users, last_seen) = self.expected(keyword);
            let scratch = MinHashSketch::from_ids(
                self.sketch_size,
                &churn_hasher(),
                users.iter().map(|u| u.raw()),
            );
            assert_eq!(self.rebuild.window_sketch(keyword), scratch, "{at}");
            assert_eq!(self.incremental.window_sketch(keyword), scratch, "{at}");
            if let Some(cached) = self.incremental.window_sketch_ref(keyword) {
                assert_eq!(*cached, scratch, "{at}: cached sketch");
            }
            for window in [&self.rebuild, &self.incremental] {
                let set: BTreeSet<UserId> = window.window_user_set(keyword).into_iter().collect();
                assert_eq!(set, users, "{at}");
                assert_eq!(window.window_user_count(keyword), users.len(), "{at}");
                assert_eq!(window.last_seen(keyword), last_seen, "{at}");
            }
        }
        // What a snapshot does not carry comes back from the records.
        for format in [WireFormat::Binary, WireFormat::Json] {
            let back = WindowState::decode(&self.incremental.encode(format), format)
                .unwrap_or_else(|e| panic!("{label}, quantum {quantum}: {format:?} decode: {e}"));
            assert!(
                back == self.incremental,
                "{label}, quantum {quantum}: {format:?}"
            );
            if counts_up {
                back.validate_invariants().unwrap_or_else(|e| {
                    panic!("{label}, quantum {quantum}: restored from {format:?}: {e}")
                });
            }
        }
    }
}

/// A stream built to churn a hash-ordered column, over keywords 0..=5 and a
/// seeded background:
///
/// * keyword 0 — a crowd whose lowest-hash users post in two quanta, then
///   in one, then stop, while the rest keep posting: the head of the column
///   must survive losing one of its quanta and promote the next row when
///   it leaves;
/// * keyword 1 — three users in all: a column shorter than any `p` ≥ 4;
/// * keyword 2 — bursts, falls silent for longer than the window (its entry
///   dies and is pooled), and bursts again with other users;
/// * keyword 3 — first seen right after keyword 2 died, so it is handed the
///   pooled entry;
/// * keyword 4 — fewer than four users a quantum for a whole window, then a
///   burst: materialised late, from a full `past`, when the threshold is 4;
/// * keyword 5 and every other one — one user posts all of them in every
///   second quantum;
/// * user ids above 2³² throughout (the comparison-sort path of the record
///   builder), and an empty quantum every seventh.
fn churn_stream(w: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<Message>> {
    const BIG: u64 = 1 << 32;
    let crowd = by_hash((0..12).map(|u| 100 + u));
    let (heads, rest) = crowd.split_at(2);
    let w = w as u64;
    let quanta = 3 * w + 12;
    (0..quanta)
        .map(|q| {
            if q % 7 == 6 {
                return Vec::new();
            }
            let mut messages = Vec::new();
            // Keyword 0: both heads in quanta 0 and 1, the first in 2 as well.
            for &u in heads.iter().take(match q {
                0 | 1 => 2,
                2 => 1,
                _ => 0,
            }) {
                messages.push(post(u, q, &[0]));
            }
            for _ in 0..4 {
                messages.push(post(rest[rng.gen_range(0..rest.len())], q, &[0]));
            }
            // Keyword 1: the same three users, one or two a quantum.
            for u in 0..rng.gen_range(1..3u64) {
                messages.push(post(BIG + 200 + (q + u) % 3, q, &[1]));
            }
            // Keyword 2: a burst, silence for w + 2 quanta, another burst.
            if q < 2 {
                for u in 0..6 {
                    messages.push(post(300 + u, q, &[2]));
                }
            } else if q >= w + 4 {
                for u in 0..5 {
                    messages.push(post(u64::MAX - u, q, &[2]));
                }
            }
            // Keyword 3: from the quantum after keyword 2's last record left.
            if q >= w + 2 {
                for u in 0..4 + q % 3 {
                    messages.push(post(BIG * 7 + 400 + u, q, &[3]));
                }
            }
            // Keyword 4: a trickle for a window and more, then bursts.
            let trickle = if q <= w + 1 { 1 + q % 3 } else { 4 + q % 4 };
            for u in 0..trickle {
                messages.push(post(500 + (3 * q + u) % 17, q, &[4]));
            }
            if q % 2 == 0 {
                messages.push(post(BIG + 7, q, &[0, 1, 2, 3, 4, 5]));
            }
            for _ in 0..rng.gen_range(0..6u32) {
                let user = 600 + rng.gen_range(0..9u64);
                messages.push(post(user, q, &[rng.gen_range(0..6u32)]));
            }
            messages
        })
        .collect()
}

#[test]
fn churned_columns_match_rebuild_and_from_scratch_sketches() {
    for sketch_size in [1usize, 2, 16, 64] {
        for threshold in [1usize, 4] {
            for w in [1usize, 2, 30] {
                let label = format!("p={sketch_size} threshold={threshold} w={w}");
                let mut rng = ChaCha8Rng::seed_from_u64(CHURN_SEED + w as u64);
                let mut windows = Differential::new(sketch_size, threshold, w);
                for messages in churn_stream(w, &mut rng) {
                    windows.push(&messages, 6, &label);
                }
            }
        }
    }
}

/// The head of a column is its lowest hash.  A head user present in two
/// window quanta keeps the head when one of them slides out, and the next
/// row takes over when the other does.
#[test]
fn the_head_survives_one_eviction_and_promotes_on_the_last() {
    let hasher = churn_hasher();
    let crowd = by_hash(0..10);
    let (head, second, third) = (crowd[0], crowd[1], crowd[2]);
    let k = KeywordId(0);
    for sketch_size in [1usize, 2, 16] {
        let mut windows = Differential::new(sketch_size, 1, 2);
        let label = format!("p={sketch_size}");
        let head_of = |windows: &Differential| {
            windows
                .incremental
                .window_sketch_ref(k)
                .expect("live")
                .minima()[0]
        };
        // The head posts in quanta 0 and 1; the second-lowest only in 1.
        windows.push(&[post(head, 0, &[0]), post(crowd[5], 0, &[0])], 1, &label);
        windows.push(&[post(head, 1, &[0]), post(second, 1, &[0])], 1, &label);
        assert_eq!(head_of(&windows), hasher.hash(head));
        // Quantum 0 leaves: the head loses one of its two quanta.
        windows.push(&[post(third, 2, &[0])], 1, &label);
        assert_eq!(head_of(&windows), hasher.hash(head));
        assert_eq!(windows.incremental.window_user_count(k), 3);
        // Quantum 1 leaves: the head and the second go together.
        windows.push(&[post(crowd[7], 3, &[0])], 1, &label);
        assert_eq!(head_of(&windows), hasher.hash(third));
        assert_eq!(windows.incremental.window_user_count(k), 2);
    }
}

/// An entry whose keyword leaves the window is pooled and handed to the
/// next keyword that materialises: neither the old rows nor the old cached
/// sketch may come with it.
#[test]
fn a_pooled_entry_starts_clean() {
    let hasher = churn_hasher();
    for sketch_size in [2usize, 16] {
        let mut windows = Differential::new(sketch_size, 4, 1);
        let label = format!("p={sketch_size}");
        let first: Vec<u64> = (0..9).collect();
        let second: Vec<u64> = (1 << 33..(1 << 33) + 4).collect();
        let burst = |users: &[u64], q: u64, keyword: u32| -> Vec<Message> {
            users.iter().map(|&u| post(u, q, &[keyword])).collect()
        };
        windows.push(&burst(&first, 0, 0), 2, &label);
        assert_eq!(windows.incremental.window_user_count(KeywordId(0)), 9);
        // w = 1: keyword 0 dies here and keyword 1 takes its entry.
        windows.push(&burst(&second, 1, 1), 2, &label);
        assert!(windows
            .incremental
            .window_sketch_ref(KeywordId(0))
            .is_none());
        let sketch = windows
            .incremental
            .window_sketch_ref(KeywordId(1))
            .expect("live");
        let expected: Vec<u64> = by_hash(second.iter().copied())
            .iter()
            .take(sketch_size)
            .map(|&u| hasher.hash(u))
            .collect();
        assert_eq!(sketch.minima(), expected);
        // And back again, into the entry keyword 1 gives up.
        windows.push(&burst(&first[..5], 2, 0), 2, &label);
        assert_eq!(windows.incremental.window_user_count(KeywordId(0)), 5);
        // An empty quantum empties the window and the index with it.
        windows.push(&[], 2, &label);
        assert!(windows
            .incremental
            .window_sketch_ref(KeywordId(0))
            .is_none());
    }
}

// ---------------------------------------------------------------------------
// The head / overflow boundaries
// ---------------------------------------------------------------------------

/// `n` users in hash order — `crowd(n)[..k]` are the `k` lowest hashes, the
/// rows a head keeps — a third of them with ids above 2³².
fn crowd(n: usize) -> Vec<u64> {
    by_hash((0..n as u64).map(|i| {
        if i % 3 == 0 {
            (1 << 32) + 1000 + i
        } else {
            1000 + i
        }
    }))
}

fn burst(users: &[u64], quantum: u64, keyword: u32) -> Vec<Message> {
    users
        .iter()
        .map(|&u| post(u, quantum, &[keyword]))
        .collect()
}

/// Plays `script` — per quantum, the `[from, to)` ranges of `crowd` that post keyword 0 —
/// and returns the window user count after each quantum.
fn play(
    windows: &mut Differential,
    crowd: &[u64],
    script: &[&[(usize, usize)]],
    label: &str,
) -> Vec<usize> {
    script
        .iter()
        .map(|ranges| {
            let q = windows.pushed;
            let messages: Vec<Message> = ranges
                .iter()
                .flat_map(|&(from, to)| burst(&crowd[from..to], q, 0))
                .collect();
            windows.push(&messages, 1, label);
            windows.incremental.window_user_count(KeywordId(0))
        })
        .collect()
}

/// A keyword gathers more than `4p` window users — the rows past the head
/// spill into the overflow table, in one record and across records — is
/// re-mentioned on both sides of the head's last row, drains to nothing,
/// and its pooled entry serves another keyword, then itself again.
#[test]
fn a_keyword_spills_past_four_p_users_and_drains_to_nothing() {
    for p in [1usize, 2, 16] {
        for threshold in [1usize, 4] {
            for w in [1usize, 2, 5] {
                let label = format!("spill p={p} threshold={threshold} w={w}");
                let c = crowd(10 * p);
                let mut windows = Differential::new(p, threshold, w);
                let k = KeywordId(0);
                // 6p users in one record: 2p rows spill at once.  Then the
                // users around the head's last row (`c[4p - 1]`) again.
                let counts = play(
                    &mut windows,
                    &c,
                    &[&[(0, 6 * p)], &[(3 * p, 9 * p)], &[(0, 1)]],
                    &label,
                );
                assert_eq!(counts[0], 6 * p, "{label}");
                assert_eq!(counts[1], if w == 1 { 6 * p } else { 9 * p }, "{label}");
                // Silence for a window: the keyword leaves with its rows.
                for _ in 0..w {
                    let q = windows.pushed;
                    windows.push(&[post(7, q, &[1])], 2, &label);
                }
                assert!(
                    windows.incremental.window_sketch_ref(k).is_none(),
                    "{label}"
                );
                assert_eq!(windows.incremental.window_user_count(k), 0, "{label}");
                // Keyword 2 takes the pooled entry (the invariants hold it
                // to no stale row, `over == 0` and no table row under the
                // old id), overflows it in turn, and keyword 0 comes back.
                let q = windows.pushed;
                windows.push(&burst(&c[p..6 * p], q, 2), 2, &label);
                assert_eq!(
                    windows.incremental.window_user_count(KeywordId(2)),
                    5 * p,
                    "{label}"
                );
                let q = windows.pushed;
                windows.push(&burst(&c[..5 * p], q, 0), 2, &label);
                assert_eq!(windows.incremental.window_user_count(k), 5 * p, "{label}");
            }
        }
    }
}

/// Evictions take the low end of a spilled head until fewer than `p` rows
/// are left, and the head is refilled from the records.
#[test]
fn a_spilled_head_drained_below_p_is_refilled_from_the_records() {
    for p in [1usize, 2, 16, 64] {
        for threshold in [1usize, 4] {
            let c = crowd(10 * p + 2);
            let top = 4 * p;

            // Drained to exactly p − 1 with 5p rows above: the refill takes
            // the 3p + 1 smallest and leaves the rest in the table.  `c[4p]`
            // is re-mentioned while it is in the table (quantum 2, before
            // the eviction that triggers the refill), after the refill
            // moved it into the head (3), and outlives its older stamps.
            let label = format!("refill p={p} threshold={threshold} w=2");
            let mut windows = Differential::new(p, threshold, 2);
            let counts = play(
                &mut windows,
                &c,
                &[
                    &[(0, 3 * p + 1)],
                    &[(3 * p + 1, 9 * p)],
                    &[(top, top + 1), (9 * p, 9 * p + 1)],
                    &[(top, top + 1), (0, 2)],
                    &[],
                    &[],
                ],
                &label,
            );
            assert_eq!(counts, [3 * p + 1, 9 * p, 6 * p, 4, 3, 0], "{label}");

            // The candidates repeat across quanta (the p + 1 rows above the
            // head post twice) and are fewer than the head has room for:
            // all of them move and nothing stays spilled.
            let label = format!("refill p={p} threshold={threshold} w=3");
            let mut windows = Differential::new(p, threshold, 3);
            let counts = play(
                &mut windows,
                &c,
                &[
                    &[(0, top)],
                    &[(top, 5 * p + 1)],
                    &[(top, 5 * p + 1), (0, 1)],
                    &[(6 * p, 6 * p + 1)],
                    &[],
                    &[],
                    &[],
                ],
                &label,
            );
            assert_eq!(
                counts,
                [top, 5 * p + 1, 5 * p + 1, p + 3, p + 3, 1, 0],
                "{label}"
            );
        }
    }
}

/// The head's last row is evicted, and then a user hashing between the new
/// last row and the old one arrives: it belongs above the head (the rows
/// in the table are larger still), not at its end.
#[test]
fn a_hash_between_the_new_and_the_old_last_row_goes_above_the_head() {
    for p in [1usize, 2, 16] {
        let label = format!("last row p={p}");
        let c = crowd(6 * p + 3);
        let top = 4 * p;
        let mut windows = Differential::new(p, 1, 2);
        let counts = play(
            &mut windows,
            &c,
            &[
                // The head-to-be's last row, `c[4p]`, only here.
                &[(top, top + 1)],
                // The rest of the head, but for `c[4p - 1]`; the table.
                &[(0, top - 1), (top + 1, 6 * p + 3)],
                // `c[4p]` leaves: the head ends at `c[4p - 2]`.
                &[(0, 1)],
                // `c[4p - 1]` arrives, between the two.
                &[(top - 1, top)],
                &[],
            ],
            &label,
        );
        assert_eq!(counts, [1, 6 * p + 2, 6 * p + 1, 2, 1], "{label}");
        let sketch = windows
            .incremental
            .window_sketch_ref(KeywordId(0))
            .expect("live");
        assert_eq!(
            sketch.minima(),
            [churn_hasher().hash(c[top - 1])],
            "{label}"
        );
    }
}

/// The rows are stamped with the window's own push counter: records whose
/// `index` stands still or counts down slide exactly like counted ones.
#[test]
fn stamps_follow_the_pushes_not_the_record_indices() {
    let indices: [fn(u64) -> u64; 2] = [|_| 7, |push| 1_000 - push];
    for index_of in indices {
        for (p, w) in [(2usize, 2usize), (2, 5), (16, 3)] {
            let label = format!("indices {} p={p} w={w}", index_of(1));
            let mut windows = Differential::new(p, 1, w);
            windows.index_of = Some(index_of);
            let c = crowd(10 * p + 2);
            let top = 4 * p;
            play(
                &mut windows,
                &c,
                &[
                    &[(0, 3 * p + 1)],
                    &[(3 * p + 1, 9 * p)],
                    &[(top, top + 1), (9 * p, 9 * p + 1)],
                    &[(top, top + 1), (0, 2)],
                    &[],
                    &[(2, 6 * p)],
                    &[(0, top)],
                    &[],
                ],
                &label,
            );
            let mut rng = ChaCha8Rng::seed_from_u64(CHURN_SEED);
            for messages in churn_stream(w, &mut rng) {
                windows.push(&messages, 6, &label);
            }
        }
    }
}

/// A seeded stream whose keywords live on both sides of `4p`, over keywords
/// 0..=3 (the populations are sized by `p`, the phases by `w`):
///
/// * keyword 0 — a population of 12p + 8 posting in waves of up to 5p
///   users a quantum, with a silence longer than the window between waves:
///   spills (within one record when `w` = 1), drains to nothing, is pooled
///   and comes back;
/// * keyword 1 — its 4p lowest hashes post together once per w + 3 quanta,
///   a few of the others in every quantum: the low end of a spilled head
///   leaves all at once and the head is refilled, from candidates that
///   repeat across quanta;
/// * keyword 2 — three users: never leaves its head;
/// * one user posts every keyword in every second quantum, ids above 2³²
///   throughout, an empty quantum every seventh.
fn surge_stream(p: usize, w: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<Message>> {
    const BIG: u64 = 1 << 32;
    let wave = by_hash((0..12 * p as u64 + 8).map(|u| BIG * (u % 2) + 10_000 + u));
    let steady = by_hash((0..8 * p as u64).map(|u| BIG * 5 + 20_000 + u));
    let (low, high) = steady.split_at(4 * p);
    let period = 2 * w as u64 + 9;
    (0..3 * w as u64 + 20)
        .map(|q| {
            if q % 7 == 6 {
                return Vec::new();
            }
            let mut messages = Vec::new();
            // Keyword 0: up for 3 quanta, down for 3, silent for the rest of
            // the period (more than a window).
            let posting = match q % period {
                phase @ 0..=2 => (phase as usize + 1) * 5 * p / 3,
                phase @ 3..=5 => (6 - phase as usize) * 5 * p / 3,
                _ => 0,
            };
            for _ in 0..posting {
                messages.push(post(wave[rng.gen_range(0..wave.len())], q, &[0]));
            }
            if q % (w as u64 + 3) == 0 {
                messages.extend(burst(low, q, 1));
            }
            for _ in 0..1 + p / 2 {
                messages.push(post(high[rng.gen_range(0..high.len())], q, &[1]));
            }
            messages.push(post(BIG + 30_000 + q % 3, q, &[2]));
            if q % 2 == 0 {
                messages.push(post(BIG + 7, q, &[0, 1, 2, 3]));
            }
            messages
        })
        .collect()
}

#[test]
fn surging_keywords_match_rebuild_and_from_scratch_sketches() {
    for sketch_size in [1usize, 2, 16, 64] {
        for threshold in [1usize, 4] {
            for w in [1usize, 2, 30] {
                let label = format!("surge p={sketch_size} threshold={threshold} w={w}");
                let mut rng = ChaCha8Rng::seed_from_u64(CHURN_SEED ^ (w as u64) << 8);
                let mut windows = Differential::new(sketch_size, threshold, w);
                let mut peak = 0;
                for messages in surge_stream(sketch_size, w, &mut rng) {
                    windows.push(&messages, 4, &label);
                    peak = peak.max(windows.incremental.window_user_count(KeywordId(0)));
                }
                assert!(peak > 4 * sketch_size, "{label}: keyword 0 never spilled");
            }
        }
    }
}
