//! Node- and edge-deletion algorithms (Sections 5.3 and 5.4).
//!
//! Deleting a node or edge from the AKG can invalidate the short-cycle
//! property of the cluster(s) it participated in and can create articulation
//! points that split a cluster in two (Figure 6).  Per the paper, the repair
//! has two phases, both confined to the affected cluster:
//!
//! * **Cycle check** — repeatedly drop cluster edges that no longer lie on a
//!   cycle of length ≤ 4 *within the cluster's own edge set*.  Dropping an
//!   edge can break other edges' cycles, so this runs to a fixpoint; the
//!   fixpoint is unique regardless of processing order (Lemma 5), and no
//!   edge that still has a short cycle is ever lost.
//! * **Articulation check** — split the surviving edge set where its parts
//!   meet only at articulation points; each part with at least three nodes
//!   survives as a cluster (the first keeps the original cluster id),
//!   anything smaller dissolves.  Nothing here computes biconnected
//!   components: the SCP decomposition that does the cycle check splits
//!   there too (see `repair_cluster`).
//!
//! Both phases touch only the nodes and edges of the original cluster,
//! which the paper shows stays small (< 7 nodes on average), so deletions
//! remain local and cheap.

use dengraph_graph::dynamic_graph::EdgeKey;
use dengraph_graph::{scp_edge_groups, NodeId};

use super::registry::ClusterRegistry;
use super::ClusterId;

/// Runs the cycle check + articulation check on a cluster whose edge set
/// has just lost one or more edges.  Replaces the cluster in the registry
/// with its surviving fragments.  Returns the surviving cluster ids.
///
/// The repair recomputes the SCP decomposition of the cluster's *remaining
/// edges*, handing [`scp_edge_groups`] the sorted edge column itself: edges that no longer lie on a short cycle drop out (the
/// cycle check), and the survivors split into groups connected through
/// shared short cycles (which subsumes the articulation check — two
/// fragments meeting only at an articulation point share no cycle).  This
/// touches only the affected cluster, whose size the paper shows stays
/// below ~7 nodes on average, so deletions remain local.
fn repair_cluster(registry: &mut ClusterRegistry, id: ClusterId, quantum: u64) -> Vec<ClusterId> {
    let Some(cluster) = registry.get(id) else {
        return Vec::new();
    };
    let successors = scp_edge_groups(&cluster.edges);
    registry.replace_with(id, successors, quantum)
}

/// `EdgeDeletion` (Section 5.4): the edge `(n1, n2)` has been removed from
/// the AKG.  If it belonged to a cluster, the cluster is repaired (cycle
/// check + articulation check) and possibly split or dissolved.  Returns
/// the surviving cluster ids.
pub fn edge_deletion(
    registry: &mut ClusterRegistry,
    n1: NodeId,
    n2: NodeId,
    quantum: u64,
) -> Vec<ClusterId> {
    let key = EdgeKey::new(n1, n2);
    let Some(id) = registry.cluster_of_edge(key) else {
        return Vec::new();
    };
    registry.detach_edge(id, key);
    // Note: the cluster's node column is left untouched here;
    // `repair_cluster` derives the successors' nodes from their edges and
    // `replace_with` cleans the node index using the original (superset)
    // node column.
    repair_cluster(registry, id, quantum)
}

/// `NodeDeletion` (Section 5.3): node `n` has been removed from the AKG
/// together with all its incident edges.  Every cluster containing `n` loses
/// the node and those edges, and is then repaired.  Returns the surviving
/// cluster ids across all affected clusters.
pub fn node_deletion(registry: &mut ClusterRegistry, n: NodeId, quantum: u64) -> Vec<ClusterId> {
    let affected = registry.clusters_of_node(n);
    let mut survivors = Vec::new();
    for id in affected {
        let incident: Vec<EdgeKey> = registry
            .get(id)
            .map(|c| {
                c.edges
                    .iter()
                    .filter(|e| e.0 == n || e.1 == n)
                    .copied()
                    .collect()
            })
            .unwrap_or_default();
        for e in incident {
            registry.detach_edge(id, e);
        }
        survivors.extend(repair_cluster(registry, id, quantum));
    }
    survivors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::addition::edge_addition;
    use dengraph_graph::DynamicGraph;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn graph(pairs: &[(u32, u32)]) -> DynamicGraph {
        let mut g = DynamicGraph::new();
        for &(a, b) in pairs {
            g.add_edge(n(a), n(b), 1.0);
        }
        g
    }

    /// Builds a registry holding the SCP clusters of `g` by replaying every
    /// edge through EdgeAddition.
    fn registry_for(g: &DynamicGraph) -> ClusterRegistry {
        let mut r = ClusterRegistry::new();
        let mut edges: Vec<EdgeKey> = g.edges().map(|(k, _)| k).collect();
        edges.sort();
        for e in edges {
            edge_addition(g, &mut r, e.0, e.1, 0);
        }
        r
    }

    #[test]
    fn deleting_an_edge_outside_any_cluster_is_a_noop() {
        let g = graph(&[(1, 2), (2, 3)]);
        let mut r = registry_for(&g);
        assert!(r.is_empty());
        assert!(edge_deletion(&mut r, n(1), n(2), 1).is_empty());
    }

    #[test]
    fn deleting_a_triangle_edge_dissolves_the_cluster() {
        let g = graph(&[(1, 2), (2, 3), (1, 3)]);
        let mut r = registry_for(&g);
        assert_eq!(r.len(), 1);
        let survivors = edge_deletion(&mut r, n(1), n(2), 1);
        assert!(survivors.is_empty());
        assert!(r.is_empty());
        assert!(r.check_invariants().is_ok());
    }

    #[test]
    fn deleting_a_square_edge_dissolves_the_cluster() {
        let g = graph(&[(1, 2), (2, 3), (3, 4), (4, 1)]);
        let mut r = registry_for(&g);
        assert_eq!(r.len(), 1);
        edge_deletion(&mut r, n(3), n(4), 1);
        assert!(r.is_empty());
    }

    #[test]
    fn figure5d_edge_deletion_keeps_a_smaller_cluster() {
        // Figure 5(d): the cluster contains nodes {n(=9),1,2,3,4,5}; deleting
        // edge (n,1) leaves the triangle (3,4,n) as a smaller cluster while
        // nodes 1, 2 and 5 drop out (their edges no longer lie on short
        // cycles).  Shape: square 9-1-2-5-9, triangle 9-3-4, chord 1-3.
        let g = graph(&[
            (9, 1),
            (1, 2),
            (2, 5),
            (5, 9),
            (9, 3),
            (3, 4),
            (4, 9),
            (1, 3),
        ]);
        let mut r = registry_for(&g);
        assert_eq!(r.len(), 1, "everything is one cluster before the deletion");
        let survivors = edge_deletion(&mut r, n(9), n(1), 1);
        assert_eq!(survivors.len(), 1);
        let c = r.get(survivors[0]).unwrap();
        assert!(c.satisfies_scp());
        assert_eq!(
            c.sorted_nodes(),
            vec![n(3), n(4), n(9)],
            "only the triangle survives"
        );
        assert!(r.check_invariants().is_ok());
    }

    #[test]
    fn figure6_node_deletion_splits_at_articulation_point() {
        // Figure 6: a 12-node cluster; deleting node 9 makes node 3 an
        // articulation point and the cluster splits into two.
        // Left ring: two squares sharing edge (10,11) plus chord (0,3);
        // right ring: two squares sharing edge (5,6); both rings meet at
        // node 3; node 9 closes the spanning 4-cycle 9-0-3-6-9 that ties the
        // rings together into one cluster.
        let g = graph(&[
            (3, 2),
            (2, 10),
            (10, 11),
            (11, 3),
            (10, 0),
            (0, 1),
            (1, 11),
            (0, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 3),
            (5, 7),
            (7, 8),
            (8, 6),
            (0, 9),
            (9, 6),
        ]);
        let mut r = registry_for(&g);
        assert_eq!(r.len(), 1);
        let survivors = node_deletion(&mut r, n(9), 1);
        assert_eq!(survivors.len(), 2, "cluster splits into two");
        let mut sizes: Vec<usize> = survivors
            .iter()
            .map(|id| r.get(*id).unwrap().size())
            .collect();
        sizes.sort();
        assert_eq!(sizes, vec![6, 6]);
        // Node 3 (the articulation point) belongs to both.
        assert_eq!(r.clusters_of_node(n(3)).len(), 2);
        for id in survivors {
            assert!(r.get(id).unwrap().satisfies_scp());
        }
        assert!(r.check_invariants().is_ok());
    }

    #[test]
    fn figure5c_node_deletion_dissolves_cluster_without_short_cycles() {
        // Figure 5(c): node n (=9) is the hub of a wheel-like cluster; when
        // it departs, the remaining nodes no longer have short cycles and
        // the cluster is discarded.
        let g = graph(&[(9, 1), (9, 2), (9, 3), (9, 4), (9, 5), (1, 2), (3, 4)]);
        let mut r = registry_for(&g);
        assert!(!r.is_empty());
        let survivors = node_deletion(&mut r, n(9), 1);
        assert!(survivors.is_empty());
        assert!(r.is_empty());
    }

    #[test]
    fn cycle_check_cascades() {
        // A chain of squares: removing one edge breaks the first square,
        // whose removal must not affect the second square.
        let g = graph(&[(1, 2), (2, 3), (3, 4), (4, 1), (3, 5), (5, 6), (6, 4)]);
        let mut r = registry_for(&g);
        assert_eq!(r.len(), 1);
        let survivors = edge_deletion(&mut r, n(1), n(2), 1);
        assert_eq!(survivors.len(), 1);
        let c = r.get(survivors[0]).unwrap();
        assert_eq!(c.sorted_nodes(), vec![n(3), n(4), n(5), n(6)]);
        assert!(c.satisfies_scp());
    }

    #[test]
    fn deleting_a_node_not_in_any_cluster_is_a_noop() {
        let g = graph(&[(1, 2), (2, 3), (1, 3)]);
        let mut r = registry_for(&g);
        assert!(node_deletion(&mut r, n(42), 1).is_empty());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn repair_preserves_untouched_clusters() {
        let g = graph(&[(1, 2), (2, 3), (1, 3), (10, 11), (11, 12), (10, 12)]);
        let mut r = registry_for(&g);
        assert_eq!(r.len(), 2);
        edge_deletion(&mut r, n(1), n(2), 1);
        assert_eq!(r.len(), 1);
        let remaining: Vec<NodeId> = r.clusters().next().unwrap().sorted_nodes();
        assert_eq!(remaining, vec![n(10), n(11), n(12)]);
    }
}
