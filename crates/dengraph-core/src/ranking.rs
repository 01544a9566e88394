//! The event-ranking function of Section 6.
//!
//! Because any global computation over "all current events" would violate
//! the real-time budget, the rank of a cluster uses only local cluster
//! properties:
//!
//! * the *support* of each node (number of distinct users behind the
//!   keyword in the current window) — the weight vector `W`,
//! * the edge-correlation coefficients of the cluster's edges — the matrix
//!   `C` with `C_ii = 1` and `C_ij = EC(i,j)` for cluster edges, 0 otherwise,
//! * the cluster size `n`, used to normalise so that rank is not a
//!   monotonically increasing function of size.
//!
//! `rank(C) = (1/n) · W · C · 1 = (1/n) Σ_i w_i (1 + Σ_{(i,j)∈E(C)} EC_ij)`.
//!
//! Dense, strongly correlated, well-supported clusters therefore rank high;
//! accidental clusters rank low.

use dengraph_graph::dynamic_graph::EdgeKey;
use dengraph_graph::DynamicGraph;
use dengraph_graph::NodeId;

use crate::cluster::Cluster;

/// The inputs the ranking needs per node: its support (window user count).
pub trait NodeSupport {
    /// Number of distinct users behind this node's keyword in the window.
    fn support(&self, node: NodeId) -> usize;
}

impl<F: Fn(NodeId) -> usize> NodeSupport for F {
    fn support(&self, node: NodeId) -> usize {
        self(node)
    }
}

/// Computes the rank of a cluster.
///
/// `graph` supplies the edge-correlation weights of the cluster's edges;
/// `support` supplies the per-node user counts.  Returns 0.0 for an empty
/// cluster.
pub fn cluster_rank<S: NodeSupport>(cluster: &Cluster, graph: &DynamicGraph, support: &S) -> f64 {
    rank_and_support(cluster, graph, support, &mut Vec::new()).0
}

/// Rank ([`cluster_rank`]) and total support ([`cluster_support`]) of a
/// cluster in one pass, leaving its member nodes in `nodes`, ascending (a
/// reported event's keyword list is exactly that column).  Allocates
/// nothing once `nodes` has grown to the largest cluster.
///
/// The f64 accumulation is not associative, so the fold order is part of
/// the result: each node's row starts at the diagonal `C_ii = 1` and adds
/// its cluster edges' correlations ascending by neighbour, and the total
/// adds `w_i · row_i` ascending by node — never in hash order, which
/// would make the rank depend on how the sets happened to be built.  A
/// node's row is read off its AKG adjacency, which is already in that
/// order and carries the weights; the cluster's edge set only says which
/// entries count.  (A cluster edge missing from the graph contributes
/// 0.0 either way.)
pub(crate) fn rank_and_support<S: NodeSupport>(
    cluster: &Cluster,
    graph: &DynamicGraph,
    support: &S,
    nodes: &mut Vec<NodeId>,
) -> (f64, usize) {
    nodes.clear();
    // lint: allow(L001, collected into a column that is sorted before any use)
    nodes.extend(cluster.nodes.iter().copied());
    nodes.sort_unstable();
    if nodes.is_empty() {
        return (0.0, 0);
    }
    let mut total = 0.0;
    let mut total_support = 0;
    for &node in nodes.iter() {
        let w = support.support(node);
        total_support += w;
        let mut row = 1.0;
        for (other, ec) in graph.neighbors_weighted(node) {
            if cluster.contains_edge(EdgeKey::new(node, other)) {
                row += ec;
            }
        }
        total += w as f64 * row;
    }
    (total / nodes.len() as f64, total_support)
}

/// Total support of a cluster: the number of distinct users behind its
/// keywords (upper-bounded here by the sum of per-node supports, which is
/// what the paper's weight vector uses).
pub fn cluster_support<S: NodeSupport>(cluster: &Cluster, support: &S) -> usize {
    // lint: allow(L001, usize sum is commutative; the result is order-independent)
    cluster.nodes.iter().map(|&n| support.support(n)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterId;
    use dengraph_graph::fxhash::FxHashSet;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// The rank as it was computed before the single-pass rewrite, kept
    /// as the reference the fast path must match bit for bit: sorted
    /// nodes, and per node a scan of the whole edge set for its sorted
    /// cluster neighbours with one graph lookup each.
    fn cluster_rank_reference<S: NodeSupport>(
        cluster: &Cluster,
        graph: &DynamicGraph,
        support: &S,
    ) -> f64 {
        let n = cluster.size();
        if n == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for node in cluster.sorted_nodes() {
            let w = support.support(node) as f64;
            let mut row = 1.0;
            for other in cluster.cluster_neighbors(node) {
                let ec = graph.edge_weight(node, other).unwrap_or(0.0);
                row += ec;
            }
            total += w * row;
        }
        total / n as f64
    }

    fn assert_matches_reference(cluster: &Cluster, graph: &DynamicGraph, context: &str) {
        let support = |node: NodeId| (node.0 as usize * 7 + 3) % 41;
        let mut nodes = Vec::new();
        let (rank, total_support) = rank_and_support(cluster, graph, &support, &mut nodes);
        assert_eq!(
            rank.to_bits(),
            cluster_rank_reference(cluster, graph, &support).to_bits(),
            "{context}: rank"
        );
        assert_eq!(
            cluster_rank(cluster, graph, &support).to_bits(),
            rank.to_bits(),
            "{context}: public entry point"
        );
        assert_eq!(
            total_support,
            cluster_support(cluster, &support),
            "{context}: support"
        );
        assert_eq!(nodes, cluster.sorted_nodes(), "{context}: member column");
    }

    #[test]
    fn single_pass_rank_is_bit_identical_to_the_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_0017);
        let mut scratch_reused_across = Vec::new();
        for case in 0..300 {
            // A random AKG over a small id range (so clusters are dense
            // and rows have many terms) with arbitrary f64 weights.
            let universe = rng.gen_range(3..24u32);
            let mut graph = DynamicGraph::new();
            for _ in 0..rng.gen_range(2..120usize) {
                let (a, b) = (rng.gen_range(0..universe), rng.gen_range(0..universe));
                if a != b {
                    graph.add_edge(n(a), n(b), rng.gen::<f64>());
                }
            }
            // A cluster over a random subset of its edges, plus: a member
            // node with no cluster edge, a cluster edge the graph does
            // not carry, and an edge whose far endpoint is not a member.
            let mut cluster = Cluster::new(
                ClusterId(case),
                FxHashSet::default(),
                graph
                    .edges()
                    .filter(|_| rng.gen_bool(0.6))
                    .map(|(edge, _)| edge)
                    .collect(),
                0,
            );
            cluster.sync_nodes_to_edges();
            cluster.nodes.insert(n(universe + 1));
            cluster.edges.insert(EdgeKey::new(n(0), n(universe + 2)));
            cluster.nodes.insert(n(universe + 2));
            cluster.edges.insert(EdgeKey::new(n(1), n(universe + 3)));
            assert_matches_reference(&cluster, &graph, &format!("case {case}"));
            // The scratch column carries nothing from one cluster to the next.
            let support = |node: NodeId| node.0 as usize;
            let reused = rank_and_support(&cluster, &graph, &support, &mut scratch_reused_across);
            assert_eq!(
                reused.0.to_bits(),
                cluster_rank_reference(&cluster, &graph, &support).to_bits()
            );
        }
    }

    #[test]
    fn one_edge_and_edgeless_clusters_match_the_reference() {
        let mut graph = DynamicGraph::new();
        graph.add_edge(n(4), n(9), 0.37);
        graph.add_edge(n(4), n(5), 0.91);
        let one_edge = Cluster::new(
            ClusterId(0),
            [n(4), n(9)].into_iter().collect(),
            [EdgeKey::new(n(9), n(4))].into_iter().collect(),
            0,
        );
        assert_matches_reference(&one_edge, &graph, "one edge");
        let edgeless = Cluster::new(
            ClusterId(1),
            [n(4), n(5), n(77)].into_iter().collect(),
            FxHashSet::default(),
            0,
        );
        assert_matches_reference(&edgeless, &graph, "no edges");
    }

    fn triangle_cluster(weights: f64) -> (Cluster, DynamicGraph) {
        let mut g = DynamicGraph::new();
        g.add_edge(n(1), n(2), weights);
        g.add_edge(n(2), n(3), weights);
        g.add_edge(n(1), n(3), weights);
        let nodes: FxHashSet<NodeId> = [n(1), n(2), n(3)].into_iter().collect();
        let edges: FxHashSet<EdgeKey> = [
            EdgeKey::new(n(1), n(2)),
            EdgeKey::new(n(2), n(3)),
            EdgeKey::new(n(1), n(3)),
        ]
        .into_iter()
        .collect();
        (Cluster::new(ClusterId(0), nodes, edges, 0), g)
    }

    #[test]
    fn uniform_triangle_rank_matches_closed_form() {
        // Every node: weight 5, two incident edges of EC 0.5.
        let (c, g) = triangle_cluster(0.5);
        let rank = cluster_rank(&c, &g, &|_: NodeId| 5usize);
        // per node: 5 * (1 + 0.5 + 0.5) = 10; total 30; /3 = 10.
        assert!((rank - 10.0).abs() < 1e-12);
    }

    #[test]
    fn higher_correlation_means_higher_rank() {
        let (c_low, g_low) = triangle_cluster(0.2);
        let (c_high, g_high) = triangle_cluster(0.9);
        let support = |_: NodeId| 5usize;
        assert!(cluster_rank(&c_high, &g_high, &support) > cluster_rank(&c_low, &g_low, &support));
    }

    #[test]
    fn higher_support_means_higher_rank() {
        let (c, g) = triangle_cluster(0.5);
        let low = cluster_rank(&c, &g, &|_: NodeId| 4usize);
        let high = cluster_rank(&c, &g, &|_: NodeId| 40usize);
        assert!(high > low);
    }

    #[test]
    fn rank_is_normalised_by_size() {
        // A denser 4-clique with the same weights should not automatically
        // dominate a triangle purely by having more nodes.
        let (tri, tri_g) = triangle_cluster(0.5);
        let mut g = DynamicGraph::new();
        let nodes: Vec<NodeId> = (1..=4).map(n).collect();
        let mut edge_set: FxHashSet<EdgeKey> = FxHashSet::default();
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_edge(nodes[i], nodes[j], 0.5);
                edge_set.insert(EdgeKey::new(nodes[i], nodes[j]));
            }
        }
        let clique = Cluster::new(ClusterId(1), nodes.into_iter().collect(), edge_set, 0);
        let support = |_: NodeId| 5usize;
        let tri_rank = cluster_rank(&tri, &tri_g, &support);
        let clique_rank = cluster_rank(&clique, &g, &support);
        // The 4-clique has 3 incident edges per node instead of 2, so its
        // rank is higher — but only by the density factor, not by raw size.
        assert!(clique_rank > tri_rank);
        assert!(clique_rank < 2.0 * tri_rank);
    }

    #[test]
    fn minimum_rank_bound_of_config_holds() {
        // A bare 4-cycle at exactly the thresholds sits at the configured
        // minimum cluster rank.
        let cfg = crate::config::DetectorConfig::nominal();
        let mut g = DynamicGraph::new();
        let tau = cfg.edge_correlation_threshold;
        g.add_edge(n(1), n(2), tau);
        g.add_edge(n(2), n(3), tau);
        g.add_edge(n(3), n(4), tau);
        g.add_edge(n(4), n(1), tau);
        let nodes: FxHashSet<NodeId> = (1..=4).map(n).collect();
        let edges: FxHashSet<EdgeKey> = [
            EdgeKey::new(n(1), n(2)),
            EdgeKey::new(n(2), n(3)),
            EdgeKey::new(n(3), n(4)),
            EdgeKey::new(n(4), n(1)),
        ]
        .into_iter()
        .collect();
        let c = Cluster::new(ClusterId(0), nodes, edges, 0);
        let sigma = cfg.high_state_threshold as usize;
        let rank = cluster_rank(&c, &g, &|_: NodeId| sigma);
        assert!((rank - cfg.minimum_cluster_rank()).abs() < 1e-9);
        // Any real cluster (more support, more correlation) ranks above it.
        let better = cluster_rank(&c, &g, &|_: NodeId| sigma * 3);
        assert!(better > cfg.minimum_cluster_rank());
    }

    #[test]
    fn empty_cluster_ranks_zero() {
        let c = Cluster::new(ClusterId(0), FxHashSet::default(), FxHashSet::default(), 0);
        let g = DynamicGraph::new();
        assert_eq!(cluster_rank(&c, &g, &|_: NodeId| 10usize), 0.0);
        assert_eq!(cluster_support(&c, &|_: NodeId| 10usize), 0);
    }

    #[test]
    fn cluster_support_sums_node_supports() {
        let (c, _) = triangle_cluster(0.5);
        assert_eq!(
            cluster_support(&c, &|node: NodeId| node.0 as usize),
            1 + 2 + 3
        );
    }
}
