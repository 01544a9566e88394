//! Exactness of the shared-minimum join behind AKG candidate set 1.
//!
//! `AkgMaintainer` no longer scores every pair of a quantum's bursty
//! keywords: it joins them on shared sketch minima and scores only the
//! pairs the join emits, on the argument that a pair sharing no minimum
//! estimates 0.0 < τ and the set-1 apply loop never acts below τ.  This
//! suite checks the claim instead of the argument: a test-only reference
//! that still walks the full cross product (nested loop +
//! `WindowReference::estimate`) must produce the same delta
//! log and the same graph, quantum for quantum, on seeded ChaCha8 streams
//! built from the shapes that stress a join — every bursty keyword over
//! the same users (all minima shared), pairwise-disjoint users (nothing
//! shared), one user emitting every keyword, random mixtures, and empty
//! quanta — with sketches small enough that overlapping user sets
//! routinely share no minimum.  The reference reads a
//! [`WindowReference`], which recounts every sketch from a plain copy of
//! the window's quanta; the maintainer reads the detector's window,
//! indexed from σ.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use dengraph_core::akg::{keyword_of, node_of};
use dengraph_core::keyword_state::{QuantumRecord, WindowState};
use dengraph_core::{AkgMaintainer, DetectorConfig, GraphDelta};
use dengraph_graph::{DynamicGraph, NodeId};
use dengraph_minhash::UserHasher;
use dengraph_stream::{Message, UserId};
use dengraph_tests::window::WindowReference;
use dengraph_text::KeywordId;

const HASHER_SEED: u64 = 0xD15C_0B01;

/// The hysteresis callback of every run: an arbitrary but fixed third of
/// the keywords count as cluster members.
fn is_cluster_member(keyword: KeywordId) -> bool {
    keyword.0.is_multiple_of(3)
}

/// The per-quantum AKG maintenance with candidate set 1 as the full cross
/// product: stale removal, admission, all-pairs + existing-edge scoring
/// against a pre-mutation snapshot, canonical apply, lazy demotion.
struct AllPairsReference {
    config: DetectorConfig,
    graph: DynamicGraph,
}

impl AllPairsReference {
    fn remove_node(&mut self, node: NodeId, deltas: &mut Vec<GraphDelta>) {
        for (other, _) in self.graph.remove_node(node) {
            deltas.push(GraphDelta::EdgeRemoved {
                a: node.min(other),
                b: node.max(other),
            });
        }
        deltas.push(GraphDelta::NodeRemoved { node });
    }

    /// Processes one quantum; returns its delta log and the number of
    /// pairs whose correlation it evaluated.
    fn process_quantum(
        &mut self,
        record: &QuantumRecord,
        window: &WindowReference,
    ) -> (Vec<GraphDelta>, usize) {
        let sigma = self.config.high_state_threshold as usize;
        let tau = self.config.edge_correlation_threshold;
        let correlation = |a: KeywordId, b: KeywordId| window.estimate(a, b);
        let mut deltas = Vec::new();

        let mut stale: Vec<NodeId> = self
            .graph
            .nodes()
            .filter(|&n| window.last_seen(keyword_of(n)).is_none())
            .collect();
        stale.sort_unstable();
        for node in stale {
            self.remove_node(node, &mut deltas);
        }

        let (mut set1, mut set2) = (Vec::new(), Vec::new());
        for (keyword, users) in record.iter() {
            let already_in_akg = self.graph.contains_node(node_of(keyword));
            if users.len() >= sigma {
                set1.push(keyword);
                if !already_in_akg {
                    self.graph.add_node(node_of(keyword));
                    deltas.push(GraphDelta::NodeAdded {
                        node: node_of(keyword),
                    });
                }
            }
            if already_in_akg {
                set2.push(keyword);
            }
        }

        let mut bursty_pairs = Vec::new();
        for (i, &a) in set1.iter().enumerate() {
            for &b in &set1[i + 1..] {
                bursty_pairs.push((a, b, correlation(a, b)));
            }
        }
        let mut edge_pairs = Vec::new();
        for &keyword in &set2 {
            for other in self.graph.neighbors(node_of(keyword)) {
                let other = keyword_of(other);
                if set1.contains(&keyword) && set1.contains(&other) {
                    continue;
                }
                edge_pairs.push((keyword.min(other), keyword.max(other)));
            }
        }
        edge_pairs.sort_unstable();
        edge_pairs.dedup();
        let pairs_evaluated = bursty_pairs.len() + edge_pairs.len();

        for (a, b, ec) in bursty_pairs {
            let (a, b) = (node_of(a), node_of(b));
            if ec >= tau {
                if self.graph.add_edge(a, b, ec) {
                    deltas.push(GraphDelta::EdgeAdded { a, b, weight: ec });
                } else {
                    deltas.push(GraphDelta::EdgeWeightUpdated { a, b, weight: ec });
                }
            }
        }
        for (a, b) in edge_pairs {
            let ec = correlation(a, b);
            let (a, b) = (node_of(a), node_of(b));
            if ec >= tau {
                self.graph.set_edge_weight(a, b, ec);
                deltas.push(GraphDelta::EdgeWeightUpdated { a, b, weight: ec });
            } else {
                self.graph.remove_edge(a, b);
                deltas.push(GraphDelta::EdgeRemoved { a, b });
            }
        }

        let mut isolated: Vec<NodeId> = self
            .graph
            .nodes()
            .filter(|&n| self.graph.degree(n) == 0)
            .collect();
        isolated.sort_unstable();
        for node in isolated {
            let keyword = keyword_of(node);
            let keep =
                set1.contains(&keyword) || (self.config.hysteresis && is_cluster_member(keyword));
            if !keep {
                self.remove_node(node, &mut deltas);
            }
        }
        (deltas, pairs_evaluated)
    }
}

/// One quantum of an adversarial stream.  Keywords come from a pool of
/// 40 so that edges formed in one quantum are re-scored, decay and go
/// stale in later ones.
fn adversarial_quantum(rng: &mut ChaCha8Rng, time: u64) -> Vec<Message> {
    let keyword = |rng: &mut ChaCha8Rng| KeywordId(rng.gen_range(0..40u32));
    let message = |user: u64, keywords: Vec<KeywordId>| Message::new(UserId(user), time, keywords);
    let mut messages = Vec::new();
    match rng.gen_range(0..6u32) {
        // Every bursty keyword over the same users: all minima shared,
        // every pair a candidate, each emitted once.
        0 => {
            let keywords: Vec<KeywordId> = (0..rng.gen_range(2..14usize))
                .map(|_| keyword(rng))
                .collect();
            let base = rng.gen_range(0..30u64);
            for user in base..base + rng.gen_range(3..20u64) {
                messages.push(message(user, keywords.clone()));
            }
        }
        // Pairwise-disjoint users: every keyword bursty, no pair shares
        // anything.
        1 => {
            for block in 0..rng.gen_range(2..14u64) {
                let keyword = keyword(rng);
                let base = 1_000 * (block + 1) + rng.gen_range(0..3u64);
                for user in base..base + rng.gen_range(3..9u64) {
                    messages.push(message(user, vec![keyword]));
                }
            }
        }
        // One user emits every keyword; each keyword's other users are its
        // own, so pairs overlap in exactly one user — who may or may not
        // be among a sketch's minima.
        2 => {
            let keywords: Vec<KeywordId> = (0..rng.gen_range(3..12usize))
                .map(|_| keyword(rng))
                .collect();
            messages.push(message(rng.gen_range(0..50u64), keywords.clone()));
            for (block, &keyword) in keywords.iter().enumerate() {
                let base = 1_000 * (block as u64 + 1);
                for user in base..base + rng.gen_range(2..25u64) {
                    messages.push(message(user, vec![keyword]));
                }
            }
        }
        // Empty quantum.
        3 => {}
        // Mixed: random users, random keyword subsets, from a small user
        // population (heavy overlap) or a large one (sparse overlap).
        _ => {
            let population = if rng.gen_bool(0.5) { 25u64 } else { 400 };
            for _ in 0..rng.gen_range(5..120usize) {
                let keywords = (0..rng.gen_range(1..5usize))
                    .map(|_| keyword(rng))
                    .collect();
                messages.push(message(rng.gen_range(0..population), keywords));
            }
        }
    }
    messages
}

/// The window of `config`, materializing keywords from σ distinct users
/// in one quantum, as the detector's does.
fn window_for(config: &DetectorConfig) -> WindowState {
    WindowState::new(
        config.window_quanta,
        config.sketch_size(),
        UserHasher::new(HASHER_SEED),
    )
    .with_materialize_threshold(config.high_state_threshold as usize)
}

/// The reference of [`window_for`]'s window.
fn reference_for(config: &DetectorConfig) -> WindowReference {
    WindowReference::new(
        config.window_quanta,
        config.sketch_size(),
        UserHasher::new(HASHER_SEED),
        config.high_state_threshold as usize,
    )
}

/// Drives the reference and the maintainer over one seeded stream, each
/// message's author renamed by `user_of`.  Returns `(pairs the maintainer
/// evaluated, pairs the reference evaluated)`.
fn check_stream(
    seed: u64,
    base: &DetectorConfig,
    quanta: u64,
    user_of: impl Fn(UserId) -> UserId,
) -> (usize, usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut reference = AllPairsReference {
        config: base.clone(),
        graph: DynamicGraph::new(),
    };
    let mut reference_window = reference_for(base);
    let mut akg = AkgMaintainer::new(base.clone());
    let mut window = window_for(base);

    let (mut evaluated, mut reference_evaluated) = (0, 0);
    for q in 0..quanta {
        let mut messages = adversarial_quantum(&mut rng, q);
        for message in &mut messages {
            message.user = user_of(message.user);
        }
        let record = QuantumRecord::from_messages(q, &messages);
        reference_window.push(q, &messages);
        let (expected, reference_pairs) = reference.process_quantum(&record, &reference_window);
        reference_evaluated += reference_pairs;

        window.push(record.clone());
        // Under `--features invariants`, the window the maintainer reads is
        // also re-derived from its records at every quantum.
        if cfg!(feature = "invariants") {
            window
                .validate_invariants()
                .unwrap_or_else(|e| panic!("seed {seed} quantum {q}: {e}"));
        }
        let deltas = akg.process_quantum(&record, &window, is_cluster_member);
        assert_eq!(
            deltas, expected,
            "seed {seed} quantum {q}: delta log diverged from the all-pairs reference"
        );
        assert_eq!(
            akg.graph(),
            &reference.graph,
            "seed {seed} quantum {q}: graph diverged from the all-pairs reference"
        );
        let pairs = akg.last_stats().pairs_evaluated;
        assert!(
            pairs <= reference_pairs,
            "seed {seed} quantum {q}: evaluated {pairs} pairs, the cross product is only \
             {reference_pairs}"
        );
        evaluated += pairs;
    }
    (evaluated, reference_evaluated)
}

#[test]
fn join_matches_the_all_pairs_reference_on_adversarial_streams() {
    let (mut evaluated, mut reference_evaluated) = (0, 0);
    for seed in 0..12u64 {
        // Sketch widths from "barely a sample" to the nominal 16, and the
        // thresholds at both ends of the paper's tunable range.
        let config = DetectorConfig {
            high_state_threshold: 3,
            window_quanta: [3, 5, 8][seed as usize % 3],
            min_sketch_size: [1, 2, 4, 16][seed as usize % 4],
            edge_correlation_threshold: [0.1, 0.25, 0.5][seed as usize / 4],
            hysteresis: seed % 5 != 0,
            ..DetectorConfig::nominal()
        };
        let (pairs, reference_pairs) = check_stream(0xA1C0 + seed, &config, 60, |u| u);
        evaluated += pairs;
        reference_evaluated += reference_pairs;
    }
    assert!(
        evaluated * 4 < reference_evaluated * 3,
        "the streams must leave the join something to skip: it evaluated {evaluated} of the \
         cross product's {reference_evaluated} pairs"
    );
}

/// Runs six seeded streams whose users all come from a pool of 64 user
/// ids, the first 64 that satisfy `in_pool` (tested against the
/// [`HASHER_SEED`] hash of the id), through [`check_stream`].
fn check_streams_over_a_pool(in_pool: impl Fn(u64) -> bool) {
    const POOL: usize = 64;
    let pool: Vec<UserId> = (0..)
        .filter(|&id| in_pool(id))
        .take(POOL)
        .map(UserId)
        .collect();
    let mut evaluated = 0;
    for seed in 0..6u64 {
        let config = DetectorConfig {
            high_state_threshold: 3,
            window_quanta: [3, 5][seed as usize % 2],
            min_sketch_size: [1, 4, 16][seed as usize % 3],
            edge_correlation_threshold: 0.25,
            ..DetectorConfig::nominal()
        };
        let (pairs, _) = check_stream(0xB0C7 + seed, &config, 40, |u| {
            pool[(u.raw() % POOL as u64) as usize]
        });
        evaluated += pairs;
    }
    assert!(
        evaluated > 0,
        "the streams must give the join pairs to emit"
    );
}

/// Every user is chosen, by brute force against [`HASHER_SEED`], to hash
/// into one top-16-bit bucket, so every minimum of every sketch shares its
/// top bits: sketch minima crowd there anyway, being the smallest hashes
/// of their user sets.
#[test]
fn join_matches_the_reference_when_every_minimum_shares_its_top_bits() {
    let hasher = UserHasher::new(HASHER_SEED);
    let bucket = |id: u64| hasher.hash(id) >> 48;
    check_streams_over_a_pool(|id| bucket(id) == bucket(0));
}

/// The multiplier of the join table's Fibonacci hash (`FIBONACCI` in
/// `dengraph_core::akg`): under any other multiplier this pool is an
/// ordinary one.
const FIBONACCI: u64 = 0x9E37_79B9_7F4A_7C15;

/// The join chains equal minima through one open-addressed table whose
/// slot is the top bits of the minimum's Fibonacci product.  Here every
/// user hashes to a minimum whose product shares its top 16 bits, so
/// every posting starts its probe at the same slot for every table size
/// up to 2¹⁶: distinct minima share one probe run, the table's worst case.
#[test]
fn join_matches_the_reference_when_every_minimum_shares_its_table_slot() {
    let hasher = UserHasher::new(HASHER_SEED);
    let slot = |id: u64| hasher.hash(id).wrapping_mul(FIBONACCI) >> 48;
    check_streams_over_a_pool(|id| slot(id) == slot(0));
}

/// Runs one quantum of `keywords` bursty keywords through a fresh
/// maintainer; `users_of(i)` are keyword `i`'s users.  Returns the pairs
/// it evaluated.
fn one_quantum_of_bursty_keywords(keywords: u32, users_of: impl Fn(u32) -> Vec<u64>) -> usize {
    let config = DetectorConfig {
        high_state_threshold: 3,
        ..DetectorConfig::nominal()
    };
    let messages: Vec<Message> = (0..keywords)
        .flat_map(|i| {
            users_of(i)
                .into_iter()
                .map(move |user| Message::new(UserId(user), 0, vec![KeywordId(i)]))
        })
        .collect();
    let record = QuantumRecord::from_messages(0, &messages);
    let mut window = window_for(&config);
    window.push(record.clone());
    let mut akg = AkgMaintainer::new(config);
    akg.process_quantum(&record, &window, |_| false);
    let stats = akg.last_stats();
    assert_eq!(stats.bursty_keywords, keywords as usize);
    stats.pairs_evaluated
}

/// The degenerate quantum of the join: thousands of bursty keywords over
/// the same σ users share every minimum, and every pair is emitted once;
/// over pairwise-disjoint users no pair is.
#[test]
fn thousands_of_bursty_keywords_in_one_quantum_pin_the_join() {
    const KEYWORDS: u32 = 2_000;
    let all_pairs = (KEYWORDS as usize) * (KEYWORDS as usize - 1) / 2;
    assert_eq!(
        one_quantum_of_bursty_keywords(KEYWORDS, |_| vec![1, 2, 3]),
        all_pairs
    );
    assert_eq!(
        one_quantum_of_bursty_keywords(KEYWORDS, |i| {
            let base = 3 * u64::from(i);
            vec![base, base + 1, base + 2]
        }),
        0
    );
}

/// The first `n` user ids in ascending order of their [`HASHER_SEED`]
/// hash: user `ranked(n)[k]` holds the `k`-th smallest hash, so a keyword
/// over users of ranks `R` has the `p` smallest ranks of `R` as its
/// sketch.
fn ranked(n: usize) -> Vec<u64> {
    let hasher = UserHasher::new(HASHER_SEED);
    let mut ids: Vec<u64> = (0..n as u64).collect();
    ids.sort_unstable_by_key(|&id| hasher.hash(id));
    ids
}

/// Runs one quantum in which keyword `i` is posted by the users of hash
/// ranks `keywords[i]` (each at least σ = 3 of them), at sketch width `p`
/// and threshold `tau`, through a fresh maintainer and the all-pairs
/// reference; asserts the two delta logs are equal and returns the
/// maintainer's graph.
fn one_designed_quantum(p: usize, tau: f64, keywords: &[Vec<usize>]) -> DynamicGraph {
    let config = DetectorConfig {
        high_state_threshold: 3,
        edge_correlation_threshold: tau,
        min_sketch_size: p,
        window_quanta: 2,
        ..DetectorConfig::nominal()
    };
    assert_eq!(config.sketch_size(), p, "σ = 3 leaves the width to p");
    let users = ranked(keywords.iter().flatten().max().map_or(0, |&r| r + 1));
    let mut messages = Vec::new();
    for (rank, &user) in users.iter().enumerate() {
        let posted: Vec<KeywordId> = (0..keywords.len() as u32)
            .filter(|&i| keywords[i as usize].contains(&rank))
            .map(KeywordId)
            .collect();
        if !posted.is_empty() {
            messages.push(Message::new(UserId(user), 0, posted));
        }
    }
    let record = QuantumRecord::from_messages(0, &messages);
    let mut reference = AllPairsReference {
        config: config.clone(),
        graph: DynamicGraph::new(),
    };
    let mut reference_window = reference_for(&config);
    reference_window.push(0, &messages);
    let (expected, _) = reference.process_quantum(&record, &reference_window);
    let mut window = window_for(&config);
    window.push(record.clone());
    let mut akg = AkgMaintainer::new(config);
    let deltas = akg.process_quantum(&record, &window, |_| false);
    assert_eq!(
        deltas, expected,
        "p {p}, τ {tau}, {keywords:?}: the in-join estimate diverged from the merge walk"
    );
    reference.graph
}

/// The weight the pair of keywords 0 and 1 gets, if any, from
/// [`one_designed_quantum`].
fn designed_pair(p: usize, tau: f64, a: &[usize], b: &[usize]) -> Option<f64> {
    one_designed_quantum(p, tau, &[a.to_vec(), b.to_vec()]).edge_weight(NodeId(0), NodeId(1))
}

/// The join scores a pair from its own walk: a shared minimum at index `i`
/// of one column and `j` of the other, with `s` shared before it, counts
/// iff `i + j − s < p`, over `min(p, |a| + |b| − c)` values.  Each case
/// below sits on one edge of that arithmetic; the columns are hash ranks,
/// so `[0, 1, 2, 5]` is a sketch of the four smallest hashes but one.
#[test]
fn the_in_join_estimate_is_exact_at_its_boundaries() {
    // τ · max(|a|, |b|) integral: 1 of the union's first 4 values is
    // shared, 1/4 = τ exactly, and the edge is added at τ.
    let (a, b) = ([0, 1, 2, 3], [0, 4, 5, 6]);
    assert_eq!(designed_pair(4, 0.25, &a, &b), Some(0.25));
    // ... and 2/4 = τ with the second shared minimum last of the four.
    let (a, b) = ([0, 1, 3, 6], [0, 2, 3, 5]);
    assert_eq!(designed_pair(4, 0.5, &a, &b), Some(0.5));

    // Columns shorter than p, |a ∪ b| ≤ p: the estimate is c / |a ∪ b|.
    let (a, b) = ([0, 1, 2], [0, 1, 3]);
    assert_eq!(designed_pair(4, 0.5, &a, &b), Some(0.5));
    assert_eq!(designed_pair(5, 0.5, &a, &b), Some(0.5));
    assert_eq!(designed_pair(8, 0.25, &[0, 2, 4], &[2, 3, 4]), Some(0.5));
    // Columns shorter than p, |a ∪ b| > p: the union is cut at p.
    assert_eq!(designed_pair(4, 0.25, &[0, 1, 2], &[0, 3, 4]), Some(0.25));
    assert_eq!(designed_pair(4, 0.2, &[0, 2, 4], &[1, 3, 4]), None);

    // Shared minima past the union's first p values (in_both < c): the
    // last shared minimum of each pair below falls outside the first 4.
    // Counting it would score 2/4 and add the edge.
    let (a, b) = ([0, 1, 2, 5], [0, 3, 4, 5]);
    assert_eq!(designed_pair(4, 0.3, &a, &b), None);
    assert_eq!(designed_pair(4, 0.25, &a, &b), Some(0.25));
    // The union rank of the second shared minimum is i + j − s = 3 + 2 −
    // 1 = 4 = p: the first value past the cut.
    let (a, b) = ([0, 1, 2, 4], [0, 3, 4, 6]);
    assert_eq!(designed_pair(4, 0.3, &a, &b), None);
    assert_eq!(designed_pair(4, 0.25, &a, &b), Some(0.25));
    // One rank earlier (i + j − s = 3) it counts.
    let (a, b) = ([0, 1, 3, 4], [0, 2, 3, 6]);
    assert_eq!(designed_pair(4, 0.5, &a, &b), Some(0.5));
    // Every minimum shared but the union cut at p: c = 4, in_both = 4.
    assert_eq!(
        designed_pair(4, 1.0, &[0, 1, 2, 3, 7], &[0, 1, 2, 3]),
        Some(1.0)
    );
}

/// Every pair of user sets of at least σ = 3 over six users, as keywords
/// of one quantum, at sketch widths 3 to 6 and thresholds on the
/// estimator's fractions: the join's delta log equals the merge walk's.
#[test]
fn every_pair_of_small_user_sets_scores_as_the_merge_walk() {
    const USERS: usize = 6;
    let sets: Vec<Vec<usize>> = (0u32..1 << USERS)
        .filter(|set| set.count_ones() >= 3)
        .map(|set| (0..USERS).filter(|&r| set >> r & 1 == 1).collect())
        .collect();
    let mut edges = 0;
    for p in 3..=USERS {
        for tau in [0.2, 0.25, 1.0 / 3.0, 0.4, 0.5, 2.0 / 3.0, 0.75, 1.0] {
            edges += one_designed_quantum(p, tau, &sets).edge_count();
        }
    }
    assert!(edges > 0);
}
