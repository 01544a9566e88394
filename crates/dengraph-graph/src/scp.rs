//! The short-cycle property (SCP) and its global cluster decomposition.
//!
//! Section 4.1 defines SCP: a subgraph has the short-cycle property when
//! every one of its edges lies on a cycle of length at most 4 whose nodes
//! all belong to the subgraph.  The incremental algorithms of Section 5
//! maintain SCP clusters locally; this module provides
//!
//! * [`scp_edge_groups`] — the decomposition of a sorted edge list into
//!   SCP clusters (a cluster's own edges in the deletion repair and in
//!   the cluster's own SCP test, a whole graph's below), and
//! * [`scp_clusters_global`] — the same decomposition packaged as clusters.
//!
//! The decomposition mirrors the paper's construction exactly: every cycle
//! of length ≤ 4 is a seed cluster, and clusters that share an edge merge
//! (Lemma 6).  Formally, the clusters are the connected components of the
//! relation "two edges lie on a common cycle of length ≤ 4", computed here
//! with a union–find over edges.  Note that this is *finer* than
//! biconnectivity: two cycle groups that share two nodes but no short cycle
//! remain separate clusters, exactly as the incremental algorithms would
//! leave them.  (Every cluster is still biconnected — Theorem 2 — because it
//! is a union of cycles chained through shared edges.)
//!
//! The global construction is the test oracle for property P3 of Section
//! 4.3 ("clusters discovered locally are consistent with a global
//! computation on the same graph"): the incremental maintenance in
//! `dengraph-core` is property-tested against it.

use crate::dynamic_graph::{DynamicGraph, EdgeKey};
use crate::node::NodeId;

/// Decomposes edges into SCP clusters: groups of edges connected through
/// shared cycles of length ≤ 4.  `edges` must be sorted and free of
/// duplicates and self-loops — a cluster's edge column, or a whole graph's
/// sorted edge list.  Edges that lie on no short cycle belong to no group.
/// Groups are returned with their edges sorted; groups are ordered by their
/// smallest edge for determinism.
///
/// The edges become a sorted adjacency column of `(node, neighbour, edge
/// index)` rows, so the triangles through an edge `(a, b)` are one
/// merge-intersection of the rows of `a` and `b`, and its 4-cycles
/// `a–b–d–c–a` one of the rows of `b` and of each neighbour `c` of `a`.
pub fn scp_edge_groups(edges: &[EdgeKey]) -> Vec<Vec<EdgeKey>> {
    debug_assert!(
        edges.windows(2).all(|w| w[0] < w[1]) && edges.iter().all(|e| e.0 < e.1),
        "scp_edge_groups takes sorted, de-duplicated edges without self-loops"
    );
    let mut adj: Vec<(NodeId, NodeId, usize)> = edges
        .iter()
        .enumerate()
        .flat_map(|(i, e)| [(e.0, e.1, i), (e.1, e.0, i)])
        .collect();
    adj.sort_unstable();
    let neighbours = |u: NodeId| {
        let from = adj.partition_point(|row| row.0 < u);
        &adj[from..from + adj[from..].partition_point(|row| row.0 == u)]
    };

    // Every triangle and 4-cycle is joined once, from its edge that comes
    // first in the slice: the other edges' indices are all above `i`.
    let mut parent: Vec<usize> = (0..edges.len()).collect();
    let mut on_cycle = vec![false; edges.len()];
    let mut join = |cycle: &[usize]| {
        let root = find(&mut parent, cycle[0]);
        for &e in cycle {
            let other = find(&mut parent, e);
            parent[other] = root;
            on_cycle[e] = true;
        }
    };
    for (i, &EdgeKey(a, b)) in edges.iter().enumerate() {
        let (na, nb) = (neighbours(a), neighbours(b));
        merge_common(na, nb, |_, ac, bc| {
            if ac > i && bc > i {
                join(&[i, ac, bc]);
            }
        });
        for &(_, c, ac) in na.iter().filter(|row| row.2 > i) {
            merge_common(nb, neighbours(c), |d, bd, cd| {
                if d != a && bd > i && cd > i {
                    join(&[i, ac, cd, bd]);
                }
            });
        }
    }

    // Edges in slice order: each group comes out sorted, and the groups in
    // the order of their smallest edges.
    let mut group_of_root = vec![usize::MAX; edges.len()];
    let mut groups: Vec<Vec<EdgeKey>> = Vec::new();
    for (i, &edge) in edges.iter().enumerate().filter(|&(i, _)| on_cycle[i]) {
        let group = &mut group_of_root[find(&mut parent, i)];
        if *group == usize::MAX {
            *group = groups.len();
            groups.push(Vec::new());
        }
        groups[*group].push(edge);
    }
    groups
}

/// The root of `x` in a union–find parent column, halving the path on the
/// way up.
fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// Calls `f(neighbour, x_edge, y_edge)` for every neighbour two adjacency
/// runs share, with the edge each run reaches it by.
fn merge_common(
    x: &[(NodeId, NodeId, usize)],
    y: &[(NodeId, NodeId, usize)],
    mut f: impl FnMut(NodeId, usize, usize),
) {
    let (mut i, mut j) = (0, 0);
    while i < x.len() && j < y.len() {
        match x[i].1.cmp(&y[j].1) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(x[i].1, x[i].2, y[j].2);
                i += 1;
                j += 1;
            }
        }
    }
}

/// A cluster produced by the global SCP decomposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScpCluster {
    /// Nodes of the cluster, sorted ascending.
    pub nodes: Vec<NodeId>,
    /// Edges of the cluster (normalised keys), sorted ascending.
    pub edges: Vec<EdgeKey>,
}

impl ScpCluster {
    fn from_edges(edges: Vec<EdgeKey>) -> Self {
        let mut nodes: Vec<NodeId> = edges.iter().flat_map(|e| [e.0, e.1]).collect();
        nodes.sort();
        nodes.dedup();
        Self { nodes, edges }
    }
}

/// Computes the global SCP cluster decomposition of the whole graph.
///
/// Returns clusters with at least three nodes (a short cycle needs three),
/// sorted by their smallest node id for determinism.
pub fn scp_clusters_global(graph: &DynamicGraph) -> Vec<ScpCluster> {
    let mut edges: Vec<EdgeKey> = graph.edges().map(|(k, _)| k).collect();
    edges.sort_unstable();
    let mut clusters: Vec<ScpCluster> = scp_edge_groups(&edges)
        .into_iter()
        .map(ScpCluster::from_edges)
        .filter(|c| c.nodes.len() >= 3)
        .collect();
    clusters.sort_by_key(|c| c.nodes.first().copied());
    clusters
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    clippy::iter_over_hash_type,
    reason = "a reference decomposition whose sorted groups are order-free"
)]
mod tests {
    use super::*;
    use crate::fxhash::{FxHashMap, FxHashSet};

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

    fn sorted_edges(g: &DynamicGraph) -> Vec<EdgeKey> {
        let mut edges: Vec<EdgeKey> = g.edges().map(|(k, _)| k).collect();
        edges.sort_unstable();
        edges
    }

    /// The union–find the reference decomposition was written against.
    struct UnionFind {
        parent: Vec<usize>,
    }

    impl UnionFind {
        fn new(n: usize) -> Self {
            Self {
                parent: (0..n).collect(),
            }
        }

        fn find(&mut self, x: usize) -> usize {
            if self.parent[x] != x {
                let root = self.find(self.parent[x]);
                self.parent[x] = root;
            }
            self.parent[x]
        }

        fn union(&mut self, a: usize, b: usize) {
            let (ra, rb) = (self.find(a), self.find(b));
            if ra != rb {
                self.parent[ra] = rb;
            }
        }
    }

    /// The decomposition as it was before it took a sorted edge slice,
    /// kept as the reference [`scp_edge_groups`] must match: hash-indexed
    /// edges and a neighbour set per edge.
    fn scp_edge_groups_on_graph(graph: &DynamicGraph) -> Vec<Vec<EdgeKey>> {
        // Index every edge.
        let mut edges: Vec<EdgeKey> = graph.edges().map(|(k, _)| k).collect();
        edges.sort();
        let index: FxHashMap<EdgeKey, usize> =
            edges.iter().enumerate().map(|(i, e)| (*e, i)).collect();
        let mut uf = UnionFind::new(edges.len());
        let mut on_cycle = vec![false; edges.len()];

        // Enumerate every triangle and 4-cycle once, unioning its edges.
        for (i, &edge) in edges.iter().enumerate() {
            let (a, b) = (edge.0, edge.1);
            let b_neighbors: FxHashSet<NodeId> = graph.neighbors(b).filter(|&x| x != a).collect();
            for c in graph.neighbors(a).filter(|&x| x != b) {
                // Triangle a–b–c (each triangle found from each of its edges;
                // redundant unions are harmless).
                if b_neighbors.contains(&c) {
                    let e_ac = index[&EdgeKey::new(a, c)];
                    let e_bc = index[&EdgeKey::new(b, c)];
                    uf.union(i, e_ac);
                    uf.union(i, e_bc);
                    on_cycle[i] = true;
                    on_cycle[e_ac] = true;
                    on_cycle[e_bc] = true;
                }
                // 4-cycles a–b–d–c–a.
                for &d in &b_neighbors {
                    if d != c && graph.contains_edge(c, d) {
                        let e_ac = index[&EdgeKey::new(a, c)];
                        let e_cd = index[&EdgeKey::new(c, d)];
                        let e_bd = index[&EdgeKey::new(b, d)];
                        uf.union(i, e_ac);
                        uf.union(i, e_cd);
                        uf.union(i, e_bd);
                        on_cycle[i] = true;
                        on_cycle[e_ac] = true;
                        on_cycle[e_cd] = true;
                        on_cycle[e_bd] = true;
                    }
                }
            }
        }

        // Collect groups of cyclic edges.
        let mut groups: FxHashMap<usize, Vec<EdgeKey>> = FxHashMap::default();
        for (i, &edge) in edges.iter().enumerate() {
            if on_cycle[i] {
                let root = uf.find(i);
                groups.entry(root).or_default().push(edge);
            }
        }
        let mut out: Vec<Vec<EdgeKey>> = groups
            .into_values()
            .map(|mut v| {
                v.sort();
                v
            })
            .collect();
        out.sort_by_key(|g| g.first().copied());
        out
    }

    #[test]
    fn triangle_and_square_edges_have_short_cycles() {
        let g = graph(&[(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7), (7, 4)]);
        let edges = sorted_edges(&g);
        let groups = scp_edge_groups(&edges);
        assert_eq!(groups.len(), 2, "the triangle and the square");
        assert_eq!(groups.concat(), edges, "every edge lies on a short cycle");
    }

    #[test]
    fn bridge_edge_has_no_short_cycle() {
        let g = graph(&[(1, 2), (2, 3), (1, 3), (3, 4)]);
        let groups = scp_edge_groups(&sorted_edges(&g));
        assert_eq!(groups.len(), 1);
        assert!(!groups[0].contains(&EdgeKey::new(n(3), n(4))));
    }

    #[test]
    fn global_clusters_on_figure2_shapes() {
        // Figure 2(a): incoming node n (=0) adjacent to 1 and 2, which share
        // neighbour 3 — a 4-cycle cluster.
        let g = graph(&[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let clusters = scp_clusters_global(&g);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].nodes, vec![n(0), n(1), n(2), n(3)]);
        // Figure 2(b): n adjacent to 1 and 2 which are themselves adjacent — a triangle.
        let g = graph(&[(0, 1), (0, 2), (1, 2)]);
        let clusters = scp_clusters_global(&g);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].nodes, vec![n(0), n(1), n(2)]);
    }

    #[test]
    fn pendant_edges_are_excluded_from_clusters() {
        let g = graph(&[(1, 2), (2, 3), (1, 3), (3, 4)]);
        let clusters = scp_clusters_global(&g);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].nodes, vec![n(1), n(2), n(3)]);
        assert_eq!(clusters[0].edges.len(), 3);
    }

    #[test]
    fn two_triangles_sharing_a_node_are_separate_clusters() {
        // Articulation point keeps them apart (Figure 6 behaviour).
        let g = graph(&[(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)]);
        let clusters = scp_clusters_global(&g);
        assert_eq!(clusters.len(), 2);
        let sizes: Vec<usize> = clusters.iter().map(|c| c.nodes.len()).collect();
        assert_eq!(sizes, vec![3, 3]);
    }

    #[test]
    fn two_triangles_sharing_an_edge_merge() {
        // Lemma 6: clusters sharing an edge merge into one.
        let g = graph(&[(1, 2), (2, 3), (1, 3), (2, 4), (3, 4)]);
        let clusters = scp_clusters_global(&g);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].nodes, vec![n(1), n(2), n(3), n(4)]);
    }

    #[test]
    fn cycle_groups_connected_only_through_long_cycles_stay_separate() {
        // A triangle and a square joined by two node-disjoint length-2 paths:
        // the combined graph is biconnected, but no cycle of length ≤ 4
        // spans the two groups, so they remain distinct SCP clusters and the
        // connecting path edges belong to neither.
        let g = graph(&[
            (1, 2),
            (2, 3),
            (1, 3), // triangle
            (10, 11),
            (11, 12),
            (12, 13),
            (13, 10), // square
            (1, 20),
            (20, 10), // path 1
            (3, 21),
            (21, 12), // path 2
        ]);
        let clusters = scp_clusters_global(&g);
        assert_eq!(clusters.len(), 2);
        let sizes: Vec<usize> = clusters.iter().map(|c| c.nodes.len()).collect();
        assert_eq!(sizes, vec![3, 4]);
    }

    #[test]
    fn edge_groups_partition_cyclic_edges() {
        let g = graph(&[(1, 2), (2, 3), (1, 3), (3, 4), (10, 11), (11, 12), (12, 10)]);
        let groups = scp_edge_groups(&sorted_edges(&g));
        assert_eq!(groups.len(), 2);
        let total_edges: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total_edges, 6, "the bridge (3,4) belongs to no group");
        let mut seen = FxHashSet::default();
        for group in &groups {
            for e in group {
                assert!(seen.insert(*e), "edge {e:?} appears in two groups");
            }
        }
    }

    /// The slice decomposition against the graph-walking reference on
    /// seeded random graphs: the same groups, edge for edge, in the same
    /// order.  Four shapes: small dense universes, triangle-free
    /// (bipartite) graphs, the empty graph and unions of 4-cycles.  Each
    /// graph is one to three parts of its shape on disjoint ids, so most
    /// hold several groups of different sizes.
    #[test]
    fn slice_decomposition_matches_the_graph_reference() {
        let mut state = 0x05C9_5EEDu64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut groups_seen = [0usize; 4];
        for case in 0..400u64 {
            let shape = case as usize % 4;
            let mut g = DynamicGraph::new();
            for part in 0..1 + next(3) {
                // Ids spread apart, so node slots are not the ids themselves.
                let id = |i: u64| n(((32 * part + i) * 7919 + 3) as u32);
                let size = 4 + next(10);
                match shape {
                    0 => {
                        for _ in 0..next(size * (size - 1) / 2 + 1) {
                            let (a, b) = (next(size), next(size));
                            if a != b {
                                g.add_edge(id(a), id(b), 1.0);
                            }
                        }
                    }
                    1 => {
                        // Every edge joins an even id to an odd one.
                        for _ in 0..2 * size {
                            g.add_edge(id(2 * next(size)), id(2 * next(size) + 1), 1.0);
                        }
                    }
                    2 => {}
                    _ => {
                        // Squares even–odd–even–odd: every edge is on a
                        // 4-cycle and none on a triangle.
                        for _ in 0..1 + next(4) {
                            let (a, c) = (2 * next(size), 2 * next(size));
                            let (b, d) = (2 * next(size) + 1, 2 * next(size) + 1);
                            if a != c && b != d {
                                for (x, y) in [(a, b), (b, c), (c, d), (d, a)] {
                                    g.add_edge(id(x), id(y), 1.0);
                                }
                            }
                        }
                    }
                }
            }
            let expected = scp_edge_groups_on_graph(&g);
            assert_eq!(scp_edge_groups(&sorted_edges(&g)), expected, "case {case}");
            groups_seen[shape] += expected.len();
        }
        assert!(groups_seen[0] > 0 && groups_seen[1] > 0 && groups_seen[3] > 0);
        assert_eq!(groups_seen[2], 0);
    }

    #[test]
    fn empty_graph_yields_no_clusters() {
        assert!(scp_clusters_global(&DynamicGraph::new()).is_empty());
    }
}
