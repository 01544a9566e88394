//! The short-cycle property as Section 4.1 defines it, edge by edge.
//!
//! The engine decides SCP in one place, [`dengraph_graph::scp_edge_groups`].
//! [`induces_scp`] is the independent check it is held to: written from
//! the definition, it shares no code with the decomposition.

use dengraph_graph::fxhash::FxHashSet;
use dengraph_graph::{DynamicGraph, NodeId};

/// Section 4.1's test, written from the definition and independent of
/// [`dengraph_graph::scp_edge_groups`]: every edge the graph induces on
/// `nodes` lies on a cycle of length ≤ 4 within `nodes` — its endpoints `a`
/// and `b` have a common neighbour in the set, or a neighbour `c` of `a`
/// and a neighbour `d` of `b` in the set are adjacent.
pub fn induces_scp(graph: &DynamicGraph, nodes: &FxHashSet<NodeId>) -> bool {
    let inside =
        |u: NodeId| -> Vec<NodeId> { graph.neighbors(u).filter(|v| nodes.contains(v)).collect() };
    #[expect(clippy::disallowed_methods, reason = "`all` is order-independent")]
    nodes.iter().all(|&a| {
        let na = inside(a);
        na.iter().filter(|&&b| a < b).all(|&b| {
            let nb = inside(b);
            na.iter().any(|c| nb.contains(c))
                || na
                    .iter()
                    .filter(|&&c| c != b)
                    .any(|&c| nb.iter().any(|&d| d != a && graph.contains_edge(c, d)))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biconnected::articulation_points;
    use crate::fixtures::{graph, set, sorted_edges};
    use dengraph_graph::{scp_clusters_global, scp_edge_groups};

    #[test]
    fn five_cycle_has_no_short_cycles() {
        let g = graph(&[(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]);
        assert!(!induces_scp(&g, &set(&[1, 2, 3, 4, 5])));
        assert!(scp_clusters_global(&g).is_empty());
        assert!(scp_edge_groups(&sorted_edges(&g)).is_empty());
    }

    /// The reference test [`induces_scp`] on the shapes it must tell apart.
    #[test]
    fn subgraph_scp_check() {
        let g = graph(&[(1, 2), (2, 3), (1, 3), (3, 4)]);
        assert!(induces_scp(&g, &set(&[1, 2, 3])));
        assert!(!induces_scp(&g, &set(&[1, 2, 3, 4])));
        assert!(induces_scp(&g, &set(&[1])));
        assert!(induces_scp(&g, &FxHashSet::default()));
        // A node set inducing no edges is vacuously fine.
        assert!(induces_scp(&g, &set(&[1, 4])));
        let square = graph(&[(1, 2), (2, 3), (3, 4), (4, 1)]);
        assert!(induces_scp(&square, &set(&[1, 2, 3, 4])));
    }

    #[test]
    fn every_global_cluster_satisfies_scp_and_is_biconnected() {
        // A denser mixed graph.
        let g = graph(&[
            (1, 2),
            (2, 3),
            (1, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 4),
            (7, 8),
            (8, 9),
            (9, 10),
            (10, 7),
            (7, 9),
            (20, 21),
        ]);
        for c in scp_clusters_global(&g) {
            let nodes: FxHashSet<NodeId> = c.nodes.iter().copied().collect();
            assert!(
                induces_scp(&g, &nodes),
                "cluster {:?} violates SCP",
                c.nodes
            );
            // Biconnected: no articulation point within the cluster's own edges.
            let mut sub = DynamicGraph::new();
            for e in &c.edges {
                sub.add_edge(e.0, e.1, 1.0);
            }
            assert!(
                articulation_points(&sub).is_empty(),
                "cluster {:?} has an articulation point",
                c.nodes
            );
        }
    }
}
