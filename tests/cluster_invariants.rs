//! Property-based tests of the cluster registry invariants under random
//! maintenance workloads, and of the detector's structural invariants when
//! fed generated traces.
//!
//! The build environment has no crates.io access, so instead of proptest
//! these properties run over seeded ChaCha8-generated edit scripts (same
//! coverage; a failure names the offending case seed, which reproduces it
//! exactly).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use dengraph_core::akg::{keyword_of, GraphDelta};
use dengraph_core::{ClusterMaintainer, DetectorBuilder, DetectorConfig};
use dengraph_graph::{DynamicGraph, NodeId};
use dengraph_stream::generator::{EventScenario, StreamGenerator, StreamProfile};
use dengraph_stream::ground_truth::GroundTruthEventKind;

/// Random edit script over a small node universe.
fn random_edits(rng: &mut ChaCha8Rng, max_node: u32, max_len: usize) -> Vec<(u8, u32, u32)> {
    let len = rng.gen_range(1..max_len);
    (0..len)
        .map(|_| {
            (
                rng.gen_range(0u32..3) as u8,
                rng.gen_range(0..max_node),
                rng.gen_range(0..max_node),
            )
        })
        .collect()
}

fn apply(edits: &[(u8, u32, u32)]) -> (DynamicGraph, ClusterMaintainer) {
    let mut graph = DynamicGraph::new();
    let mut maintainer = ClusterMaintainer::new();
    for (q, &(op, a, b)) in edits.iter().enumerate() {
        let quantum = q as u64;
        match op {
            0 | 1 => {
                if a != b && !graph.contains_edge(NodeId(a), NodeId(b)) {
                    graph.add_edge(NodeId(a), NodeId(b), 0.5);
                    maintainer.apply_deltas(
                        &graph,
                        &[GraphDelta::EdgeAdded {
                            a: NodeId(a),
                            b: NodeId(b),
                            weight: 0.5,
                        }],
                        quantum,
                    );
                }
            }
            _ => {
                if graph.remove_edge(NodeId(a), NodeId(b)).is_some() {
                    maintainer.apply_deltas(
                        &graph,
                        &[GraphDelta::EdgeRemoved {
                            a: NodeId(a),
                            b: NodeId(b),
                        }],
                        quantum,
                    );
                }
            }
        }
    }
    (graph, maintainer)
}

/// Registry indexes stay consistent and every cluster is a valid aMQC
/// after arbitrary maintenance sequences.
#[test]
fn registry_invariants_hold_after_random_edits() {
    for case in 0..48u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC1A5_0000 + case);
        let script = random_edits(&mut rng, 10, 100);
        let (graph, maintainer) = apply(&script);
        assert!(
            maintainer.registry().check_invariants().is_ok(),
            "case {case}: {:?}",
            maintainer.registry().check_invariants()
        );
        for cluster in maintainer.clusters() {
            // Every cluster edge must still exist in the graph.
            for e in &cluster.edges {
                assert!(
                    graph.contains_edge(e.0, e.1),
                    "case {case}: cluster edge {e:?} missing from graph"
                );
            }
        }
        // Edge-disjointness across clusters.
        let mut seen = std::collections::HashSet::new();
        for cluster in maintainer.clusters() {
            for e in &cluster.edges {
                assert!(
                    seen.insert(*e),
                    "case {case}: edge {e:?} owned by two clusters"
                );
            }
        }
    }
}

/// Cluster membership (used for AKG hysteresis) agrees with the cluster
/// contents.
#[test]
fn node_membership_index_is_consistent() {
    for case in 0..48u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x3E3B_0000 + case);
        let script = random_edits(&mut rng, 8, 60);
        let (_, maintainer) = apply(&script);
        let registry = maintainer.registry();
        for cluster in maintainer.clusters() {
            for node in &cluster.nodes {
                assert!(registry.is_cluster_member(*node), "case {case}");
                assert!(
                    registry.clusters_of_node(*node).contains(&cluster.id),
                    "case {case}"
                );
            }
        }
    }
}

/// Structural invariants of the full detector on generated traces: every
/// reported event corresponds to a live, SCP-satisfying cluster whose
/// keywords are AKG nodes.
#[test]
fn detector_reports_only_valid_clusters() {
    let profile = StreamProfile {
        name: "invariants".into(),
        rounds: 25,
        round_size: 120,
        background_vocab_size: 2_000,
        zipf_exponent: 1.1,
        background_users: 10_000,
        keywords_per_background_msg: (3, 6),
        event_keyword_prob: 0.8,
        events: vec![
            EventScenario {
                name: "event a".into(),
                keyword_names: (0..4).map(|i| format!("alpha{i}")).collect(),
                evolving_keyword_names: vec![("alpha9".into(), 2)],
                start_round: 4,
                duration_rounds: 10,
                peak_messages_per_round: 20,
                kind: GroundTruthEventKind::Headline,
            },
            EventScenario {
                name: "event b".into(),
                keyword_names: (0..4).map(|i| format!("beta{i}")).collect(),
                evolving_keyword_names: vec![],
                start_round: 10,
                duration_rounds: 8,
                peak_messages_per_round: 16,
                kind: GroundTruthEventKind::LocalOnly,
            },
        ],
        seed: 7,
    };
    let trace = StreamGenerator::new(profile).generate();
    let config = DetectorConfig::nominal()
        .with_quantum_size(120)
        .with_window_quanta(15);
    let mut detector = DetectorBuilder::from_config(config)
        .interner(trace.interner.clone())
        .build()
        .expect("valid config");

    for quantum in trace.messages.chunks(120) {
        let summary = detector.process_quantum(quantum);
        // Registry invariants after every quantum.
        assert!(detector.clusters().registry().check_invariants().is_ok());
        for event in &summary.events {
            let cluster = detector
                .clusters()
                .get(event.cluster_id)
                .expect("reported cluster must be live");
            assert!(cluster.satisfies_scp());
            assert_eq!(cluster.size(), event.keywords.len());
            for &node in &cluster.nodes {
                assert!(
                    detector.akg().contains_node(node),
                    "cluster node missing from AKG"
                );
                assert!(event.keywords.contains(&keyword_of(node)));
            }
            assert!(event.rank > 0.0);
        }
        // Ranked output is sorted descending.
        for pair in summary.events.windows(2) {
            assert!(pair[0].rank >= pair[1].rank);
        }
    }
}
