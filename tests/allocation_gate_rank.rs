//! Allocation gate for the public rank entry point.
//!
//! [`cluster_rank`] is what callers outside the session rank with — the
//! repo benchmark's re-composed pipeline ranks every live cluster through
//! it each quantum.  It keeps its member rows in a per-thread column, so
//! once that column fits the largest cluster, ranking allocates nothing:
//! a column allocated per call would cost one allocation per cluster per
//! quantum.
//!
//! The binary contains exactly one test so no concurrent test thread can
//! pollute the counter.

use dengraph_core::{cluster_rank, Cluster, ClusterId};
use dengraph_graph::dynamic_graph::EdgeKey;
use dengraph_graph::{DynamicGraph, NodeId};

#[path = "support/alloc_gate.rs"]
mod alloc_gate;
use alloc_gate::count_allocations;

/// A clique on `nodes` consecutive ids from `first`, as a cluster, with
/// its edges added to `graph` at weights that differ per edge.
fn clique(graph: &mut DynamicGraph, id: u64, first: u32, nodes: u32) -> Cluster {
    let members: Vec<NodeId> = (first..first + nodes).map(NodeId).collect();
    let mut edges = Vec::new();
    for (i, &a) in members.iter().enumerate() {
        for &b in &members[i + 1..] {
            graph.add_edge(a, b, 0.3 + f64::from(a.0 * 7 + b.0 % 11) / 1_000.0);
            edges.push(EdgeKey::new(a, b));
        }
    }
    Cluster::new(ClusterId(id), members, edges, 0)
}

#[test]
fn warm_cluster_rank_calls_allocate_nothing() {
    let mut graph = DynamicGraph::new();
    // Sizes out of order, so a later cluster is larger than the first.
    let clusters: Vec<Cluster> = [(3, 0), (40, 100), (5, 200), (17, 300)]
        .into_iter()
        .enumerate()
        .map(|(id, (size, first))| clique(&mut graph, id as u64, first, size))
        .collect();
    let support = |node: NodeId| (node.0 as usize * 13) % 29 + 3;
    let rank_all = |ranks: &mut Vec<u64>| {
        ranks.clear();
        ranks.extend(
            clusters
                .iter()
                .map(|cluster| cluster_rank(cluster, &graph, &support).to_bits()),
        );
    };

    // The first pass grows the thread's row column to the largest cluster.
    let mut first = Vec::new();
    rank_all(&mut first);
    let mut ranks = Vec::with_capacity(clusters.len());
    for round in 0..10 {
        let ((), allocations) = count_allocations(|| rank_all(&mut ranks));
        assert_eq!(
            allocations,
            0,
            "round {round}: {} warm cluster_rank calls allocated",
            clusters.len()
        );
        assert_eq!(ranks, first, "round {round}: ranks moved");
    }
}
