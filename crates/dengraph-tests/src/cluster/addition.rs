//! `NodeAddition` (Section 5.1), written from the paper.
//!
//! For every pair of the new node's neighbours that is joined by an edge
//! (rule R2) or by a common neighbour (rule R1), the short cycle through
//! the new node is a candidate cluster, merged with the clusters it
//! shares an edge with ([`ClusterRegistry::absorb`], Lemma 6).  The
//! cycles share only the new node, not an edge, so they are absorbed one
//! at a time.

use dengraph_core::cluster::{ClusterId, ClusterRegistry};
use dengraph_graph::fxhash::FxHashSet;
use dengraph_graph::{DynamicGraph, EdgeKey, NodeId};

/// The edges of a triangle `a–b–c`.
fn triangle_edges(a: NodeId, b: NodeId, c: NodeId) -> [EdgeKey; 3] {
    [EdgeKey::new(a, b), EdgeKey::new(b, c), EdgeKey::new(a, c)]
}

/// The edges of a 4-cycle `a–b–c–d–a`.
fn square_edges(a: NodeId, b: NodeId, c: NodeId, d: NodeId) -> [EdgeKey; 4] {
    [
        EdgeKey::new(a, b),
        EdgeKey::new(b, c),
        EdgeKey::new(c, d),
        EdgeKey::new(d, a),
    ]
}

/// `NodeAddition` (Section 5.1): node `n` has just been added to `graph`
/// together with its incident edges (the caller must have inserted them).
/// For every pair of `n`'s neighbours that is joined by an edge (rule R2)
/// or by a common neighbour (rule R1), a candidate cluster is formed and
/// merged into the registry.  Returns the ids of the clusters `n` ended up
/// in (usually zero or one).
pub fn node_addition(
    graph: &DynamicGraph,
    registry: &mut ClusterRegistry,
    n: NodeId,
    quantum: u64,
) -> Vec<ClusterId> {
    // Ascending by construction (`DynamicGraph::neighbors`), so the absorb
    // order is canonical without sorting.
    let neighbors: Vec<NodeId> = graph.neighbors(n).collect();
    if neighbors.len() < 2 {
        // "If the incoming node shows correlation with zero or one node, we
        // simply add that node (and edge) in G and do nothing."
        return Vec::new();
    }
    let mut result_ids: FxHashSet<ClusterId> = FxHashSet::default();
    for i in 0..neighbors.len() {
        for j in (i + 1)..neighbors.len() {
            let (n2, n3) = (neighbors[i], neighbors[j]);
            // Rule R2: the two neighbours are adjacent — triangle n, n2, n3.
            if graph.contains_edge(n2, n3) {
                let edges = triangle_edges(n, n2, n3);
                result_ids.insert(registry.absorb(&[n, n2, n3], &edges, false, quantum));
            }
            // Rule R1: the two neighbours share another common neighbour n4
            // — 4-cycle n, n2, n4, n3.  `common_neighbors` is ascending.
            for n4 in graph.common_neighbors(n2, n3) {
                if n4 == n {
                    continue;
                }
                let edges = square_edges(n, n2, n4, n3);
                result_ids.insert(registry.absorb(&[n, n2, n4, n3], &edges, false, quantum));
            }
        }
    }
    // The absorb calls may have merged earlier results away; keep only ids
    // that still exist.
    let mut out: Vec<ClusterId> = result_ids
        .into_iter()
        .filter(|id| registry.get(*id).is_some())
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{graph, n};
    use dengraph_core::cluster::edge_addition;

    #[test]
    fn node_addition_with_fewer_than_two_edges_does_nothing() {
        let g = graph(&[(1, 2), (2, 3), (9, 1)]);
        let mut r = ClusterRegistry::new();
        assert!(node_addition(&g, &mut r, n(9), 0).is_empty());
        assert!(r.is_empty());
    }

    #[test]
    fn node_addition_rule_r2_forms_triangle() {
        // Figure 2(b): incoming n adjacent to n1, n2 which share an edge.
        let g = graph(&[(1, 2), (0, 1), (0, 2)]);
        let mut r = ClusterRegistry::new();
        let ids = node_addition(&g, &mut r, n(0), 0);
        assert_eq!(ids.len(), 1);
        let c = r.get(ids[0]).unwrap();
        assert_eq!(c.sorted_nodes(), vec![n(0), n(1), n(2)]);
    }

    #[test]
    fn node_addition_rule_r1_forms_square() {
        // Figure 2(a): incoming n adjacent to n1, n2 which share neighbour nc.
        let g = graph(&[(1, 3), (2, 3), (0, 1), (0, 2)]);
        let mut r = ClusterRegistry::new();
        let ids = node_addition(&g, &mut r, n(0), 0);
        assert_eq!(ids.len(), 1);
        let c = r.get(ids[0]).unwrap();
        assert_eq!(c.sorted_nodes(), vec![n(0), n(1), n(2), n(3)]);
        assert!(c.satisfies_scp());
    }

    #[test]
    fn figure5b_node_addition_merges_with_existing_clusters() {
        // Figure 5(b): clusters C1 = (1,3,4) and C2 = (2,4,5) already exist;
        // node n (=9) arrives with edges to 1 and 2, whose common neighbour
        // is 4; everything merges into one cluster C4.
        let g_before = graph(&[(1, 3), (3, 4), (1, 4), (2, 4), (4, 5), (2, 5)]);
        let mut r = ClusterRegistry::new();
        // Seed the registry with the two existing clusters via EdgeAddition.
        for (a, b) in [(1, 4), (2, 5)] {
            edge_addition(&g_before, &mut r, n(a), n(b), 0);
        }
        assert_eq!(r.len(), 2);
        // Now node 9 arrives with edges to 1 and 2.
        let mut g = g_before.clone();
        g.add_edge(n(9), n(1), 1.0);
        g.add_edge(n(9), n(2), 1.0);
        let ids = node_addition(&g, &mut r, n(9), 1);
        assert_eq!(ids.len(), 1);
        assert_eq!(r.len(), 1);
        let c = r.get(ids[0]).unwrap();
        assert_eq!(c.sorted_nodes(), vec![n(1), n(2), n(3), n(4), n(5), n(9)]);
        assert!(c.satisfies_scp());
        assert!(r.check_invariants().is_ok());
    }

    #[test]
    fn node_addition_and_edge_by_edge_addition_agree() {
        // Property P3 in miniature: adding a node via NodeAddition or via
        // EdgeAddition for each incident edge yields the same clustering.
        let base = graph(&[(1, 2), (2, 3), (3, 1), (4, 5)]);
        // New node 0 with edges to 1, 3 and 4.
        let mut g = base.clone();
        g.add_edge(n(0), n(1), 1.0);
        g.add_edge(n(0), n(3), 1.0);
        g.add_edge(n(0), n(4), 1.0);

        let mut via_node = ClusterRegistry::new();
        edge_addition(&g, &mut via_node, n(3), n(1), 0); // pre-existing triangle
        node_addition(&g, &mut via_node, n(0), 1);

        let mut via_edges = ClusterRegistry::new();
        edge_addition(&g, &mut via_edges, n(3), n(1), 0);
        for b in [1, 3, 4] {
            edge_addition(&g, &mut via_edges, n(0), n(b), 1);
        }

        let mut a: Vec<Vec<NodeId>> = via_node.clusters().map(|c| c.sorted_nodes()).collect();
        let mut b: Vec<Vec<NodeId>> = via_edges.clusters().map(|c| c.sorted_nodes()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
