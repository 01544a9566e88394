//! Exactness of the shared-minimum join behind AKG candidate set 1.
//!
//! `AkgMaintainer` no longer scores every pair of a quantum's bursty
//! keywords: it joins them on shared sketch minima and scores only the
//! pairs the join emits, on the argument that a pair sharing no minimum
//! estimates 0.0 < τ and the set-1 apply loop never acts below τ.  This
//! suite checks the claim instead of the argument: a test-only reference
//! that still walks the full cross product (nested loop +
//! `WindowState::estimated_edge_correlation`) must produce the same delta
//! log and the same graph, quantum for quantum, on seeded ChaCha8 streams
//! built from the shapes that stress a join — every bursty keyword over
//! the same users (all minima shared), pairwise-disjoint users (nothing
//! shared), one user emitting every keyword, random mixtures, and empty
//! quanta — across `WindowIndexMode` × `Parallelism`, with sketches small
//! enough that overlapping user sets routinely share no minimum.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use dengraph_core::akg::{keyword_of, node_of};
use dengraph_core::keyword_state::{QuantumRecord, WindowState};
use dengraph_core::{AkgMaintainer, DetectorConfig, GraphDelta, Parallelism, WindowIndexMode};
use dengraph_graph::{DynamicGraph, NodeId};
use dengraph_minhash::UserHasher;
use dengraph_stream::{Message, UserId};
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
        for (edge, _) in self.graph.remove_node(node) {
            deltas.push(GraphDelta::EdgeRemoved {
                a: edge.0,
                b: edge.1,
            });
        }
        deltas.push(GraphDelta::NodeRemoved { node });
    }

    /// Processes one quantum; returns its delta log and the number of
    /// pairs whose correlation it evaluated.
    fn process_quantum(
        &mut self,
        record: &QuantumRecord,
        window: &WindowState,
    ) -> (Vec<GraphDelta>, usize) {
        let sigma = self.config.high_state_threshold as usize;
        let tau = self.config.edge_correlation_threshold;
        let exact = self.config.exact_edge_correlation;
        let correlation = |a: KeywordId, b: KeywordId| {
            if exact {
                window.exact_edge_correlation(a, b)
            } else {
                window.estimated_edge_correlation(a, b)
            }
        };
        let mut deltas = Vec::new();

        let mut stale: Vec<NodeId> = self
            .graph
            .nodes()
            .filter(|&n| window.is_stale(keyword_of(n)))
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

fn window_for(config: &DetectorConfig, mode: WindowIndexMode) -> WindowState {
    WindowState::with_mode(
        config.window_quanta,
        config.sketch_size(),
        UserHasher::new(HASHER_SEED),
        mode,
    )
    .with_materialize_threshold(config.high_state_threshold as usize)
}

/// Drives the reference and all four mode × parallelism maintainers over
/// one seeded stream.  Returns `(pairs the maintainers evaluated, pairs
/// the reference evaluated)`.
fn check_stream(seed: u64, base: &DetectorConfig, quanta: u64) -> (usize, usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut reference = AllPairsReference {
        config: base.clone(),
        graph: DynamicGraph::new(),
    };
    let mut reference_window = window_for(base, WindowIndexMode::Rebuild);
    let mut variants: Vec<(String, AkgMaintainer, WindowState)> = Vec::new();
    for mode in [WindowIndexMode::Incremental, WindowIndexMode::Rebuild] {
        for parallelism in [Parallelism::Serial, Parallelism::Threads(4)] {
            let config = base
                .clone()
                .with_window_index_mode(mode)
                .with_parallelism(parallelism);
            variants.push((
                format!("{mode:?}/{parallelism}"),
                AkgMaintainer::new(config),
                window_for(base, mode),
            ));
        }
    }

    let (mut evaluated, mut reference_evaluated) = (0, 0);
    for q in 0..quanta {
        let record = QuantumRecord::from_messages(q, &adversarial_quantum(&mut rng, q));
        reference_window.push(record.clone());
        let (expected, reference_pairs) = reference.process_quantum(&record, &reference_window);
        reference_evaluated += reference_pairs;

        let mut pairs_across_variants = None;
        for (name, akg, window) in &mut variants {
            window.push(record.clone());
            let deltas = akg.process_quantum(&record, window, is_cluster_member);
            assert_eq!(
                deltas, expected,
                "seed {seed} quantum {q} {name}: delta log diverged from the all-pairs reference"
            );
            assert_eq!(
                akg.graph(),
                &reference.graph,
                "seed {seed} quantum {q} {name}: graph diverged from the all-pairs reference"
            );
            let pairs = akg.last_stats().pairs_evaluated;
            assert!(
                pairs <= reference_pairs,
                "seed {seed} quantum {q} {name}: evaluated {pairs} pairs, the cross product \
                 is only {reference_pairs}"
            );
            assert_eq!(
                *pairs_across_variants.get_or_insert(pairs),
                pairs,
                "seed {seed} quantum {q} {name}: pairs_evaluated differs between modes"
            );
            if base.exact_edge_correlation {
                assert_eq!(
                    pairs, reference_pairs,
                    "the exact ablation keeps the cross product"
                );
            }
        }
        evaluated += pairs_across_variants.unwrap_or(0);
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
        let (pairs, reference_pairs) = check_stream(0xA1C0 + seed, &config, 60);
        evaluated += pairs;
        reference_evaluated += reference_pairs;
    }
    assert!(
        evaluated * 4 < reference_evaluated * 3,
        "the streams must leave the join something to skip: it evaluated {evaluated} of the \
         cross product's {reference_evaluated} pairs"
    );
}

#[test]
fn exact_correlation_ablation_still_scores_the_cross_product() {
    let config = DetectorConfig {
        high_state_threshold: 3,
        window_quanta: 4,
        exact_edge_correlation: true,
        ..DetectorConfig::nominal()
    };
    let (pairs, reference_pairs) = check_stream(0xE8AC7, &config, 40);
    assert_eq!(pairs, reference_pairs);
    assert!(pairs > 0);
}
