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
//!
//! The rank is one forward pass over the cluster's sorted columns: one row
//! per member, each starting at the diagonal 1, filled by a scan of the
//! edge column that walks each left endpoint's AKG adjacency forward for
//! the weights.  Every row receives its terms in ascending-neighbour order,
//! so the f64 result does not depend on how the cluster was built, and the
//! pass makes no hash probe and no sort.

use std::cell::Cell;

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

thread_local! {
    /// [`cluster_rank`]'s row scratch, one per thread, kept between calls.
    static RANK_ROWS: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// Computes the rank of a cluster.
///
/// `graph` supplies the edge-correlation weights of the cluster's edges;
/// `support` supplies the per-node user counts.  Returns 0.0 for an empty
/// cluster.
///
/// The member rows the rank pass fills are a per-thread column kept
/// between calls, so once it fits the largest cluster ranked on the
/// thread, a call allocates nothing.  (A `support` that itself ranks a
/// cluster finds the column taken and ranks into a fresh one.)
pub fn cluster_rank<S: NodeSupport>(cluster: &Cluster, graph: &DynamicGraph, support: &S) -> f64 {
    RANK_ROWS.with(|cell| {
        let mut rows = cell.take();
        let (rank, _) = rank_and_support(cluster, graph, support, &mut rows);
        cell.set(rows);
        rank
    })
}

/// Rank ([`cluster_rank`]) and total support ([`cluster_support`]) of a
/// cluster in one pass over its two sorted columns, read in place.
/// `rows` is scratch, one `f64` per member; nothing is allocated once it
/// has grown to the largest cluster.
///
/// The f64 accumulation is not associative, so the fold order is part of
/// the result: each member's row starts at the diagonal `C_ii = 1` and
/// adds its cluster edges' correlations ascending by neighbour, and the
/// total adds `w_i · row_i` ascending by node — never in hash order,
/// which would make the rank depend on how the sets happened to be built.
///
/// One forward scan of the edge column fills every row in that order.
/// The edges `(a, b)`, `a < b`, come in runs by left endpoint `a`; a run
/// walks `a`'s AKG adjacency (ascending, carrying the weights) forward to
/// each right endpoint `b` and adds the weight to both rows.  A row `x`
/// thus gets its `(a, x)` terms, `a < x`, from earlier runs in ascending
/// `a`, then its own run's `(x, b)` terms in ascending `b`: ascending by
/// neighbour.  Members are found by moving two cursors forward through
/// the node column (the left one across the whole pass, the right one
/// across a run), so the pass makes no hash probe, no search and no
/// sort.  A cluster edge missing from the graph contributes nothing (the
/// reference adds 0.0), and an endpoint that is not a member has no row.
pub(crate) fn rank_and_support<S: NodeSupport>(
    cluster: &Cluster,
    graph: &DynamicGraph,
    support: &S,
    rows: &mut Vec<f64>,
) -> (f64, usize) {
    let (nodes, edges) = (&cluster.nodes, &cluster.edges);
    if nodes.is_empty() {
        return (0.0, 0);
    }
    rows.clear();
    rows.resize(nodes.len(), 1.0);
    // `left` / `right`: the rows of the current run's left endpoint and of
    // its current right endpoint, or where they would be.
    let (mut i, mut left) = (0, 0);
    while let Some(&EdgeKey(a, _)) = edges.get(i) {
        while nodes.get(left).is_some_and(|&n| n < a) {
            left += 1;
        }
        let a_is_member = nodes.get(left) == Some(&a);
        let mut right = left;
        let mut adjacency = graph.neighbors_weighted(a);
        let mut entry = adjacency.next();
        while let Some(&EdgeKey(run_a, b)) = edges.get(i) {
            if run_a != a {
                break;
            }
            i += 1;
            while let Some((x, _)) = entry {
                if x >= b {
                    break;
                }
                entry = adjacency.next();
            }
            let Some((x, ec)) = entry else { continue };
            if x != b {
                continue;
            }
            if a_is_member {
                rows[left] += ec;
            }
            while nodes.get(right).is_some_and(|&n| n < b) {
                right += 1;
            }
            if nodes.get(right) == Some(&b) {
                rows[right] += ec;
            }
        }
    }
    let mut total = 0.0;
    let mut total_support = 0;
    for (&node, &row) in nodes.iter().zip(rows.iter()) {
        let w = support.support(node);
        total_support += w;
        total += w as f64 * row;
    }
    (total / nodes.len() as f64, total_support)
}

/// Total support of a cluster: the number of distinct users behind its
/// keywords (upper-bounded here by the sum of per-node supports, which is
/// what the paper's weight vector uses).
pub fn cluster_support<S: NodeSupport>(cluster: &Cluster, support: &S) -> usize {
    cluster.nodes.iter().map(|&n| support.support(n)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterId;
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

    /// Inserts `x` where a strictly ascending column keeps its order.
    fn insert_sorted<T: Ord>(column: &mut Vec<T>, x: T) {
        if let Err(at) = column.binary_search(&x) {
            column.insert(at, x);
        }
    }

    fn assert_matches_reference(cluster: &Cluster, graph: &DynamicGraph, context: &str) {
        let support = |node: NodeId| (node.0 as usize * 7 + 3) % 41;
        let mut rows = Vec::new();
        let (rank, total_support) = rank_and_support(cluster, graph, &support, &mut rows);
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
        assert_eq!(rows.len(), cluster.size(), "{context}: one row per member");
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
            // not carry, and an edge whose far endpoint is not a member;
            // every other case also drops one endpoint from the members,
            // so edges the graph carries run to a non-member from either
            // side.
            let mut cluster = Cluster::new(
                ClusterId(case),
                Vec::new(),
                graph
                    .edges()
                    .filter(|_| rng.gen_bool(0.6))
                    .map(|(edge, _)| edge)
                    .collect(),
                0,
            );
            cluster.sync_nodes_to_edges();
            if case % 2 == 1 && !cluster.nodes.is_empty() {
                cluster.nodes.remove(rng.gen_range(0..cluster.nodes.len()));
            }
            insert_sorted(&mut cluster.nodes, n(universe + 1));
            insert_sorted(&mut cluster.edges, EdgeKey::new(n(0), n(universe + 2)));
            insert_sorted(&mut cluster.nodes, n(universe + 2));
            insert_sorted(&mut cluster.edges, EdgeKey::new(n(1), n(universe + 3)));
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
            Vec::new(),
            0,
        );
        assert_matches_reference(&edgeless, &graph, "no edges");
    }

    fn triangle_cluster(weights: f64) -> (Cluster, DynamicGraph) {
        let mut g = DynamicGraph::new();
        g.add_edge(n(1), n(2), weights);
        g.add_edge(n(2), n(3), weights);
        g.add_edge(n(1), n(3), weights);
        let nodes: Vec<NodeId> = [n(1), n(2), n(3)].into_iter().collect();
        let edges: Vec<EdgeKey> = [
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
        let mut edge_set: Vec<EdgeKey> = Vec::new();
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_edge(nodes[i], nodes[j], 0.5);
                edge_set.push(EdgeKey::new(nodes[i], nodes[j]));
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
        let nodes: Vec<NodeId> = (1..=4).map(n).collect();
        let edges: Vec<EdgeKey> = [
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
        let c = Cluster::new(ClusterId(0), Vec::new(), Vec::new(), 0);
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
