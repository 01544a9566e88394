//! Property P3 (Section 4.3): clusters maintained locally by the
//! incremental algorithms are identical to a global computation on the same
//! graph, regardless of the order in which nodes and edges arrived or left.
//!
//! The oracle is `dengraph_graph::scp_clusters_global`; the subject is the
//! incremental `ClusterMaintainer` driven by random edit scripts.
//!
//! The build environment has no crates.io access, so instead of proptest
//! these properties run over seeded ChaCha8-generated edit scripts (same
//! coverage; a failure names the offending case seed, which reproduces it
//! exactly).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use dengraph_core::akg::GraphDelta;
use dengraph_core::ClusterMaintainer;
use dengraph_graph::{scp_clusters_global, DynamicGraph, NodeId};
use dengraph_tests::biconnected::articulation_points;

/// One step of a random edit script.
#[derive(Debug, Clone, Copy)]
enum Edit {
    AddEdge(u32, u32),
    RemoveEdge(u32, u32),
    RemoveNode(u32),
}

/// Draws one edit with the same 4:2:1 weighting the proptest strategy used.
fn random_edit(rng: &mut ChaCha8Rng, max_node: u32) -> Edit {
    match rng.gen_range(0u32..7) {
        0..=3 => Edit::AddEdge(rng.gen_range(0..max_node), rng.gen_range(0..max_node)),
        4..=5 => Edit::RemoveEdge(rng.gen_range(0..max_node), rng.gen_range(0..max_node)),
        _ => Edit::RemoveNode(rng.gen_range(0..max_node)),
    }
}

fn random_script(rng: &mut ChaCha8Rng, max_node: u32, max_len: usize) -> Vec<Edit> {
    let len = rng.gen_range(1..max_len);
    (0..len).map(|_| random_edit(rng, max_node)).collect()
}

/// Applies an edit script, driving the incremental maintainer exactly the
/// way the AKG does (graph first, then deltas), and returns the final graph
/// plus the maintainer.
fn run_script(edits: &[Edit]) -> (DynamicGraph, ClusterMaintainer) {
    let mut graph = DynamicGraph::new();
    let mut maintainer = ClusterMaintainer::new();
    for (i, edit) in edits.iter().enumerate() {
        let quantum = i as u64;
        match *edit {
            Edit::AddEdge(a, b) => {
                if a == b {
                    continue;
                }
                let (a, b) = (NodeId(a), NodeId(b));
                if graph.contains_edge(a, b) {
                    continue;
                }
                graph.add_edge(a, b, 1.0);
                maintainer.apply_deltas(
                    &graph,
                    &[GraphDelta::EdgeAdded { a, b, weight: 1.0 }],
                    quantum,
                );
            }
            Edit::RemoveEdge(a, b) => {
                let (a, b) = (NodeId(a), NodeId(b));
                if graph.remove_edge(a, b).is_some() {
                    maintainer.apply_deltas(&graph, &[GraphDelta::EdgeRemoved { a, b }], quantum);
                }
            }
            Edit::RemoveNode(n) => {
                let n = NodeId(n);
                let removed = graph.remove_node(n);
                let mut deltas: Vec<GraphDelta> = removed
                    .iter()
                    .map(|&(m, _)| GraphDelta::EdgeRemoved {
                        a: n.min(m),
                        b: n.max(m),
                    })
                    .collect();
                deltas.push(GraphDelta::NodeRemoved { node: n });
                maintainer.apply_deltas(&graph, &deltas, quantum);
            }
        }
    }
    (graph, maintainer)
}

/// Canonical form of a clustering: sorted list of sorted node lists.
fn canonical_incremental(maintainer: &ClusterMaintainer) -> Vec<Vec<NodeId>> {
    let mut out: Vec<Vec<NodeId>> = maintainer.clusters().map(|c| c.sorted_nodes()).collect();
    out.sort();
    out
}

fn canonical_global(graph: &DynamicGraph) -> Vec<Vec<NodeId>> {
    let mut out: Vec<Vec<NodeId>> = scp_clusters_global(graph)
        .into_iter()
        .map(|c| c.nodes)
        .collect();
    out.sort();
    out
}

/// P3: after any edit script, the locally maintained clusters equal the
/// global SCP decomposition of the final graph.
#[test]
fn incremental_matches_global_oracle() {
    for case in 0..64u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5C9_0000 + case);
        let edits = random_script(&mut rng, 14, 120);
        let (graph, maintainer) = run_script(&edits);
        assert_eq!(
            canonical_incremental(&maintainer),
            canonical_global(&graph),
            "case {case} diverged from the oracle"
        );
    }
}

/// Lemma 5: the final clustering does not depend on the order in which the
/// edges of a fixed graph are inserted.
#[test]
fn insertion_order_does_not_matter() {
    for case in 0..64u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0D3_0000 + case);
        // Build the target edge set.
        let len = rng.gen_range(1..40usize);
        let mut edges: Vec<(u32, u32)> = (0..len)
            .map(|_| (rng.gen_range(0u32..12), rng.gen_range(0u32..12)))
            .filter(|(a, b)| a != b)
            .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
            .collect();
        edges.sort_unstable();
        edges.dedup();

        let forward: Vec<Edit> = edges.iter().map(|&(a, b)| Edit::AddEdge(a, b)).collect();
        let seed = rng.gen_range(0u64..1000);
        let mut shuffled = edges.clone();
        // Simple deterministic shuffle driven by the seed.
        let n = shuffled.len();
        if n > 1 {
            for i in 0..n {
                let j = ((seed as usize).wrapping_mul(31).wrapping_add(i * 7)) % n;
                shuffled.swap(i, j);
            }
        }
        let scrambled: Vec<Edit> = shuffled.iter().map(|&(a, b)| Edit::AddEdge(a, b)).collect();

        let (_, m1) = run_script(&forward);
        let (_, m2) = run_script(&scrambled);
        assert_eq!(
            canonical_incremental(&m1),
            canonical_incremental(&m2),
            "case {case}"
        );
    }
}

/// Theorem 1 / P1 / P2: every maintained cluster satisfies the short-cycle
/// property and is biconnected.
#[test]
fn maintained_clusters_satisfy_scp_and_biconnectivity() {
    for case in 0..64u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xB1C_0000 + case);
        let edits = random_script(&mut rng, 12, 80);
        let (_, maintainer) = run_script(&edits);
        for cluster in maintainer.clusters() {
            assert!(cluster.size() >= 3, "case {case}");
            assert!(
                cluster.satisfies_scp(),
                "case {case}: cluster {:?} violates SCP",
                cluster.sorted_nodes()
            );
            // Biconnected: the cluster's own edges admit no articulation point.
            let mut sub = DynamicGraph::new();
            for e in &cluster.edges {
                sub.add_edge(e.0, e.1, 1.0);
            }
            assert!(
                articulation_points(&sub).is_empty(),
                "case {case}: cluster {:?} has an articulation point",
                cluster.sorted_nodes()
            );
        }
    }
}

/// Deterministic regression: building a graph edge-by-edge and deleting it
/// edge-by-edge leaves no clusters and never violates the oracle midway.
#[test]
fn build_up_and_tear_down_tracks_oracle_at_every_step() {
    let edges: Vec<(u32, u32)> = vec![
        (0, 1),
        (1, 2),
        (0, 2),
        (2, 3),
        (3, 4),
        (2, 4),
        (4, 5),
        (5, 6),
        (6, 4),
        (1, 3),
        (0, 5),
    ];
    let mut graph = DynamicGraph::new();
    let mut maintainer = ClusterMaintainer::new();
    for (q, &(a, b)) in edges.iter().enumerate() {
        graph.add_edge(NodeId(a), NodeId(b), 1.0);
        maintainer.apply_deltas(
            &graph,
            &[GraphDelta::EdgeAdded {
                a: NodeId(a),
                b: NodeId(b),
                weight: 1.0,
            }],
            q as u64,
        );
        assert_eq!(canonical_incremental(&maintainer), canonical_global(&graph));
    }
    for (q, &(a, b)) in edges.iter().enumerate() {
        graph.remove_edge(NodeId(a), NodeId(b));
        maintainer.apply_deltas(
            &graph,
            &[GraphDelta::EdgeRemoved {
                a: NodeId(a),
                b: NodeId(b),
            }],
            q as u64,
        );
        assert_eq!(canonical_incremental(&maintainer), canonical_global(&graph));
    }
    assert_eq!(maintainer.cluster_count(), 0);
}
