//! γ-quasi-clique and majority-quasi-clique (MQC) checks.
//!
//! Section 1.1 of the paper defines a cluster as a γ-quasi clique when every
//! node is adjacent to at least `γ·(N−1)` of the other cluster nodes; a
//! *majority quasi clique* (MQC) has `γ ≥ ½`.  Section 4.2 notes that once a
//! candidate cluster is found through the short-cycle property, an exact MQC
//! check costs `O(N²)` — that check lives here, together with the density
//! and diameter statistics used by the evaluation.

use crate::dynamic_graph::DynamicGraph;
use crate::fxhash::FxHashSet;
use crate::node::NodeId;

/// Is the subgraph induced by `nodes` a γ-quasi clique?
///
/// Every node must be adjacent (within the node set) to at least
/// `ceil(γ·(N−1))` other nodes.  Sets of fewer than two nodes are vacuously
/// quasi-cliques.
pub fn is_gamma_quasi_clique(graph: &DynamicGraph, nodes: &FxHashSet<NodeId>, gamma: f64) -> bool {
    let n = nodes.len();
    if n < 2 {
        return true;
    }
    let required = (gamma * (n as f64 - 1.0)).ceil() as usize;
    #[expect(clippy::disallowed_methods, reason = "`all` is order-independent")]
    nodes.iter().all(|&u| {
        let deg_in = graph.neighbors(u).filter(|v| nodes.contains(v)).count();
        deg_in >= required
    })
}

/// Is the subgraph induced by `nodes` a majority quasi clique (γ = ½)?
///
/// Following Example 1 of the paper, each node must have an edge to at least
/// `ceil((N−1)/2)` other nodes of the cluster.
pub fn is_mqc(graph: &DynamicGraph, nodes: &FxHashSet<NodeId>) -> bool {
    is_gamma_quasi_clique(graph, nodes, 0.5)
}

/// Edge density of the induced subgraph: `|E| / (N·(N−1)/2)`.
/// Returns 0.0 for fewer than two nodes.
pub fn density(graph: &DynamicGraph, nodes: &FxHashSet<NodeId>) -> f64 {
    let n = nodes.len();
    if n < 2 {
        return 0.0;
    }
    let edges = count_internal_edges(graph, nodes);
    edges as f64 / (n as f64 * (n as f64 - 1.0) / 2.0)
}

/// Number of edges with both endpoints in `nodes`.
fn count_internal_edges(graph: &DynamicGraph, nodes: &FxHashSet<NodeId>) -> usize {
    let mut count = 0;
    #[expect(
        clippy::iter_over_hash_type,
        reason = "a usize count is order-independent"
    )]
    for &u in nodes {
        for v in graph.neighbors(u) {
            if u < v && nodes.contains(&v) {
                count += 1;
            }
        }
    }
    count
}

/// Diameter of the induced subgraph (Definition 1).
///
/// Returns `None` when the induced subgraph is disconnected or has no nodes;
/// a singleton has diameter 0 and a complete clique has diameter 1.
pub fn diameter(graph: &DynamicGraph, nodes: &FxHashSet<NodeId>) -> Option<usize> {
    if nodes.is_empty() {
        return None;
    }
    let mut max_dist = 0usize;
    #[expect(
        clippy::iter_over_hash_type,
        clippy::disallowed_methods,
        reason = "a max over BFS depths is order-independent"
    )]
    for &start in nodes {
        // BFS within the node set.
        let mut dist: crate::fxhash::FxHashMap<NodeId, usize> = crate::fxhash::FxHashMap::default();
        dist.insert(start, 0);
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            let du = dist[&u];
            for v in graph.neighbors(u) {
                if nodes.contains(&v) && !dist.contains_key(&v) {
                    dist.insert(v, du + 1);
                    queue.push_back(v);
                }
            }
        }
        if dist.len() != nodes.len() {
            return None; // disconnected within the node set
        }
        max_dist = max_dist.max(dist.values().copied().max().unwrap_or(0));
    }
    Some(max_dist)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn set(ids: &[u32]) -> FxHashSet<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    fn graph(pairs: &[(u32, u32)]) -> DynamicGraph {
        let mut g = DynamicGraph::new();
        for &(a, b) in pairs {
            g.add_edge(n(a), n(b), 1.0);
        }
        g
    }

    #[test]
    fn triangle_is_clique_mqc_and_dense() {
        let g = graph(&[(1, 2), (2, 3), (1, 3)]);
        let nodes = set(&[1, 2, 3]);
        assert!(is_gamma_quasi_clique(&g, &nodes, 1.0));
        assert!(is_mqc(&g, &nodes));
        assert_eq!(density(&g, &nodes), 1.0);
        assert_eq!(diameter(&g, &nodes), Some(1));
    }

    #[test]
    fn four_cycle_is_mqc_but_not_clique() {
        let g = graph(&[(1, 2), (2, 3), (3, 4), (4, 1)]);
        let nodes = set(&[1, 2, 3, 4]);
        // (N-1)/2 = 1.5 -> required 2; each node has exactly 2 neighbours.
        assert!(is_mqc(&g, &nodes));
        assert!(!is_gamma_quasi_clique(&g, &nodes, 1.0));
        assert!((density(&g, &nodes) - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(diameter(&g, &nodes), Some(2));
    }

    #[test]
    fn path_is_not_mqc() {
        let g = graph(&[(1, 2), (2, 3), (3, 4)]);
        let nodes = set(&[1, 2, 3, 4]);
        assert!(!is_mqc(&g, &nodes));
        // It is a biconnected-level quasi clique though: gamma = 1/(N-1)
        assert!(is_gamma_quasi_clique(&g, &nodes, 1.0 / 3.0));
    }

    #[test]
    fn mqc_diameter_is_at_most_two() {
        // The Pei et al. result quoted in Theorem 1's proof: gamma >= 1/2 => diameter <= 2.
        let g = graph(&[
            (1, 2),
            (1, 3),
            (1, 4),
            (2, 3),
            (2, 5),
            (3, 5),
            (4, 5),
            (4, 2),
        ]);
        let nodes = set(&[1, 2, 3, 4, 5]);
        if is_mqc(&g, &nodes) {
            assert!(diameter(&g, &nodes).unwrap() <= 2);
        }
    }

    #[test]
    fn small_sets_are_vacuous() {
        let g = graph(&[(1, 2)]);
        assert!(is_mqc(&g, &set(&[1])));
        assert!(is_mqc(&g, &FxHashSet::default()));
        assert_eq!(density(&g, &set(&[1])), 0.0);
        assert_eq!(diameter(&g, &set(&[1])), Some(0));
        assert_eq!(diameter(&g, &FxHashSet::default()), None);
    }

    #[test]
    fn disconnected_node_set_has_no_diameter() {
        let g = graph(&[(1, 2), (3, 4)]);
        assert_eq!(diameter(&g, &set(&[1, 2, 3, 4])), None);
    }

    #[test]
    fn example1_seven_node_mqc_requirements() {
        // Example 1: in a 7-node MQC each node needs ceil(6/2) = 3 in-cluster
        // neighbours; an 8th joining node would need ceil(7/2) = 4.
        let mut g = DynamicGraph::new();
        // Build a 7-node graph where each node has exactly 3 neighbours:
        // two 'rings' — the 7-cycle plus chords.
        let ring: Vec<(u32, u32)> = (0..7).map(|i| (i, (i + 1) % 7)).collect();
        for &(a, b) in &ring {
            g.add_edge(n(a), n(b), 1.0);
        }
        for i in 0..7u32 {
            g.add_edge(n(i), n((i + 3) % 7), 1.0);
        }
        let nodes = set(&[0, 1, 2, 3, 4, 5, 6]);
        assert!(is_mqc(&g, &nodes));
        // Add an 8th node with only 3 edges: the enlarged set is not an MQC.
        g.add_edge(n(7), n(0), 1.0);
        g.add_edge(n(7), n(1), 1.0);
        g.add_edge(n(7), n(2), 1.0);
        let bigger = set(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(!is_mqc(&g, &bigger));
    }

    #[test]
    fn count_internal_edges_ignores_outside_edges() {
        let g = graph(&[(1, 2), (2, 3), (3, 9)]);
        assert_eq!(count_internal_edges(&g, &set(&[1, 2, 3])), 2);
    }
}
