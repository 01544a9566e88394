//! The edge-addition algorithm (Section 5.2).
//!
//! It follows the scheme rooted in the short-cycle property: enumerate
//! every cycle of length ≤ 4 that the new edge participates in and merge
//! it with existing clusters wherever an edge is shared (Lemma 6).
//!
//! EdgeAddition does that in **one merge per added edge**: every short
//! cycle through the new edge contains that edge, so all of them end up
//! in one cluster.  The cycles' nodes and edges are collected into two
//! sorted, de-duplicated columns and absorbed in a single call, which
//! merges in place into the oldest touched cluster.  The AKG adds a node
//! with no edges and then each of its edges, so Section 5.1's
//! NodeAddition is this rule applied edge by edge; the rule as the paper
//! states it is `dengraph_tests::cluster::addition::node_addition`, held
//! to this one there.
//!
//! Only the immediate neighbourhood of the change is examined — never the
//! rest of the graph — which is what makes the maintenance *local*.

use dengraph_graph::dynamic_graph::EdgeKey;
use dengraph_graph::{DynamicGraph, NodeId};

use super::registry::ClusterRegistry;
use super::ClusterId;

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

/// `EdgeAddition` (Section 5.2): the edge `(n1, n2)` has just been added to
/// `graph` (the caller must have inserted it already).  Finds every short
/// cycle through the new edge, merges them with each other and with the
/// existing clusters sharing an edge in one call, and returns the id of
/// the resulting cluster (or `None` when the edge closes no short cycle).
pub fn edge_addition(
    graph: &DynamicGraph,
    registry: &mut ClusterRegistry,
    n1: NodeId,
    n2: NodeId,
    quantum: u64,
) -> Option<ClusterId> {
    debug_assert!(
        graph.contains_edge(n1, n2),
        "edge must be inserted into the graph before EdgeAddition"
    );
    // Phase 1: collect the short cycles through (n1, n2) into a node and
    // an edge column.  Merging the cycles one at a time would give the
    // first one a fresh id whenever it touches no cluster, even if a later
    // one then merges it into an older cluster; `spend_id` records that
    // so the one merge uses the id up too.  Which cycle is first must not
    // depend on storage history (a checkpoint restore does not reproduce
    // it) — `DynamicGraph` iterates neighbours in ascending id order,
    // which is exactly the canonical order this loop needs.
    let n1_neighbors: Vec<NodeId> = graph.neighbors(n1).filter(|&x| x != n2).collect();
    let n2_neighbors: Vec<NodeId> = graph.neighbors(n2).filter(|&x| x != n1).collect();
    let (mut nodes, mut edges) = (Vec::new(), Vec::new());
    let mut spend_id = None;
    let mut push_cycle = |cycle_nodes: &[NodeId], cycle_edges: &[EdgeKey]| {
        spend_id.get_or_insert_with(|| {
            cycle_edges
                .iter()
                .all(|&e| registry.cluster_of_edge(e).is_none())
        });
        nodes.extend_from_slice(cycle_nodes);
        edges.extend_from_slice(cycle_edges);
    };
    for &n3 in &n1_neighbors {
        // Triangle n1–n2–n3.
        if n2_neighbors.binary_search(&n3).is_ok() {
            push_cycle(&[n1, n2, n3], &triangle_edges(n1, n2, n3));
        }
        // 4-cycles n1–n2–n4–n3–n1.
        for &n4 in &n2_neighbors {
            if n4 != n3 && graph.contains_edge(n3, n4) {
                push_cycle(&[n2, n1, n3, n4], &square_edges(n2, n1, n3, n4));
            }
        }
    }
    let spend_id = spend_id?;
    // Phase 2: merge.  Every cycle contains the new edge, so they all
    // collapse into a single cluster together with any existing cluster
    // sharing one of their edges (Lemma 6).
    nodes.sort_unstable();
    nodes.dedup();
    edges.sort_unstable();
    edges.dedup();
    Some(registry.absorb(&nodes, &edges, spend_id, quantum))
}

/// The per-cycle merge chain EdgeAddition ran before it merged once per
/// edge, kept as the reference the one-merge path must match registry
/// for registry: one candidate per short cycle in canonical order, each
/// absorbed by the rebuilding merge.
#[cfg(test)]
fn edge_addition_per_cycle(
    graph: &DynamicGraph,
    registry: &mut ClusterRegistry,
    n1: NodeId,
    n2: NodeId,
    quantum: u64,
) -> Option<ClusterId> {
    let mut candidates: Vec<(Vec<NodeId>, Vec<EdgeKey>)> = Vec::new();
    let n1_neighbors: Vec<NodeId> = graph.neighbors(n1).filter(|&x| x != n2).collect();
    let n2_neighbors: Vec<NodeId> = graph.neighbors(n2).filter(|&x| x != n1).collect();
    for &n3 in &n1_neighbors {
        if n2_neighbors.binary_search(&n3).is_ok() {
            candidates.push((vec![n1, n2, n3], triangle_edges(n1, n2, n3).to_vec()));
        }
        for &n4 in &n2_neighbors {
            if n4 != n3 && graph.contains_edge(n3, n4) {
                candidates.push((vec![n2, n1, n3, n4], square_edges(n2, n1, n3, n4).to_vec()));
            }
        }
    }
    let mut result = None;
    for (nodes, edges) in candidates {
        result = Some(registry.absorb_rebuilding(nodes, edges, quantum));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn edge_addition_with_no_cycle_creates_nothing() {
        let g = graph(&[(1, 2), (2, 3)]);
        let mut r = ClusterRegistry::new();
        assert_eq!(edge_addition(&g, &mut r, n(2), n(3), 0), None);
        assert!(r.is_empty());
    }

    #[test]
    fn edge_addition_closing_a_triangle_creates_a_cluster() {
        let g = graph(&[(1, 2), (2, 3), (1, 3)]);
        let mut r = ClusterRegistry::new();
        let id = edge_addition(&g, &mut r, n(1), n(3), 0).unwrap();
        let c = r.get(id).unwrap();
        assert_eq!(c.sorted_nodes(), vec![n(1), n(2), n(3)]);
        assert_eq!(c.edge_count(), 3);
        assert!(c.satisfies_scp());
        assert!(r.check_invariants().is_ok());
    }

    #[test]
    fn edge_addition_closing_a_square_creates_a_cluster() {
        let g = graph(&[(1, 2), (2, 3), (3, 4), (4, 1)]);
        let mut r = ClusterRegistry::new();
        let id = edge_addition(&g, &mut r, n(4), n(1), 0).unwrap();
        let c = r.get(id).unwrap();
        assert_eq!(c.sorted_nodes(), vec![n(1), n(2), n(3), n(4)]);
        assert_eq!(c.edge_count(), 4);
        assert!(c.satisfies_scp());
    }

    #[test]
    fn figure5a_edge_addition_merges_phase1_candidates() {
        // Figure 5(a): nodes 1..5; existing edges form two triangles hanging
        // off node 4 plus node 5; the new edge (1,2) creates clusters
        // (1,2,4), (1,2,4,5)... which all merge into one cluster C3.
        let g = graph(&[(1, 4), (2, 4), (1, 5), (2, 5), (3, 1), (3, 4), (1, 2)]);
        let mut r = ClusterRegistry::new();
        let id = edge_addition(&g, &mut r, n(1), n(2), 0).unwrap();
        assert_eq!(r.len(), 1);
        let c = r.get(id).unwrap();
        assert_eq!(c.sorted_nodes(), vec![n(1), n(2), n(3), n(4), n(5)]);
        assert!(c.satisfies_scp());
        assert!(r.check_invariants().is_ok());
    }

    #[test]
    fn merging_two_clusters_via_a_bridging_edge() {
        // Example 2 / Figure 3(b): two separate clusters; new edges between
        // them form a short cycle, merging them into one.
        let mut g = graph(&[
            (1, 2),
            (2, 3),
            (3, 1), // cluster 1
            (10, 11),
            (11, 12),
            (12, 10), // cluster 2
        ]);
        let mut r = ClusterRegistry::new();
        edge_addition(&g, &mut r, n(3), n(1), 0);
        edge_addition(&g, &mut r, n(12), n(10), 0);
        assert_eq!(r.len(), 2);
        // First bridging edge alone closes no short cycle yet.
        g.add_edge(n(1), n(10), 1.0);
        assert_eq!(edge_addition(&g, &mut r, n(1), n(10), 1), None);
        assert_eq!(r.len(), 2);
        // The second bridging edge forms the 4-cycle 1-10-11-2-1 and merges
        // the two clusters (Example 2 of the paper).
        g.add_edge(n(2), n(11), 1.0);
        let merged = edge_addition(&g, &mut r, n(2), n(11), 1).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(merged).unwrap().size(), 6);
        assert!(r.check_invariants().is_ok());
    }

    #[test]
    fn a_new_first_cycle_uses_up_its_id_when_a_later_cycle_merges_it_away() {
        // Cluster c0 = triangle 1-4-5 exists.  The new edge (1,2) closes the
        // triangles 1-2-3 (first in canonical order, owning no clustered
        // edge) and 1-2-4 (sharing (1,4) with c0), and the square
        // 2-1-5-4.  The per-cycle chain gave 1-2-3 the fresh id c1 before
        // merging it into c0, so the next cluster created must be c2.
        let g = graph(&[(1, 4), (4, 5), (1, 5), (1, 3), (2, 3), (2, 4), (1, 2)]);
        let mut r = ClusterRegistry::new();
        let mut reference = ClusterRegistry::new();
        let c0 = ClusterId(0);
        for registry in [&mut r, &mut reference] {
            let edges = triangle_edges(n(1), n(4), n(5));
            assert_eq!(registry.absorb(&[n(1), n(4), n(5)], &edges, false, 0), c0);
        }
        assert_eq!(edge_addition(&g, &mut r, n(1), n(2), 1), Some(c0));
        assert_eq!(
            edge_addition_per_cycle(&g, &mut reference, n(1), n(2), 1),
            Some(c0)
        );
        assert_eq!(r, reference);
        assert_eq!(r.next_id(), 2, "the first cycle's id is used up");
        let c = r.get(c0).unwrap();
        assert_eq!(c.sorted_nodes(), vec![n(1), n(2), n(3), n(4), n(5)]);
        assert_eq!((c.born_quantum, c.updated_quantum), (0, 1));
        let edges = triangle_edges(n(7), n(8), n(9));
        assert_eq!(
            r.absorb(&[n(7), n(8), n(9)], &edges, false, 2),
            ClusterId(2)
        );
        assert!(r.check_invariants().is_ok());
    }

    #[test]
    fn one_merge_matches_the_per_cycle_chain_on_random_scripts() {
        use crate::cluster::deletion::{edge_deletion, node_deletion};
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_0025);
        let (mut merges, mut spent_ids) = (0, 0);
        for case in 0..150 {
            // A small node universe so clusters grow, meet and merge.
            let universe = rng.gen_range(6..16u32);
            let mut g = DynamicGraph::new();
            let mut fast = ClusterRegistry::new();
            let mut reference = ClusterRegistry::new();
            for step in 0..rng.gen_range(20..120usize) {
                let quantum = step as u64 / 5;
                let (a, b) = (n(rng.gen_range(0..universe)), n(rng.gen_range(0..universe)));
                if rng.gen_bool(0.03) {
                    g.remove_node(a);
                    let survivors = node_deletion(&mut fast, a, quantum);
                    assert_eq!(survivors, node_deletion(&mut reference, a, quantum));
                } else if a != b && !g.contains_edge(a, b) {
                    g.add_edge(a, b, 1.0);
                    let (before, live) = (fast.next_id(), fast.len());
                    let got = edge_addition(&g, &mut fast, a, b, quantum);
                    let want = edge_addition_per_cycle(&g, &mut reference, a, b, quantum);
                    assert_eq!(got, want, "case {case} step {step}: result id");
                    assert_eq!(fast, reference, "case {case} step {step}: registries");
                    if fast.len() < live {
                        merges += 1;
                    }
                    if got.is_some_and(|id| id.0 < before) && fast.next_id() > before {
                        spent_ids += 1;
                    }
                } else if a != b && rng.gen_bool(0.35) {
                    g.remove_edge(a, b);
                    let survivors = edge_deletion(&mut fast, a, b, quantum);
                    assert_eq!(survivors, edge_deletion(&mut reference, a, b, quantum));
                }
            }
            assert!(fast.check_invariants().is_ok(), "case {case}");
        }
        // The scripts exercise what the one merge has to get right (121
        // merges of existing clusters and 22 used-up ids at this seed).
        assert!(merges > 100, "only {merges} merges of existing clusters");
        assert!(spent_ids > 15, "only {spent_ids} used-up first-cycle ids");
    }
}
