//! γ-quasi-clique and majority-quasi-clique (MQC) checks.
//!
//! Section 1.1 of the paper defines a cluster as a γ-quasi clique when every
//! node is adjacent to at least `γ·(N−1)` of the other cluster nodes; a
//! *majority quasi clique* (MQC) has `γ ≥ ½`.  Section 4.2 notes that once a
//! candidate cluster is found through the short-cycle property, an exact MQC
//! check costs `O(N²)` — that check lives here, together with the density
//! and diameter statistics used by the evaluation.

use dengraph_graph::fxhash::{FxHashMap, FxHashSet};
use dengraph_graph::{DynamicGraph, NodeId};

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
        clippy::disallowed_methods,
        reason = "a max over BFS depths is order-independent"
    )]
    for &start in nodes {
        // BFS within the node set.
        let mut dist: FxHashMap<NodeId, usize> = FxHashMap::default();
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
    use crate::fixtures::{graph, n, set, sorted_edges};
    use dengraph_graph::{scp_edge_groups, EdgeKey};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

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

    fn all_nodes(count: u32) -> FxHashSet<NodeId> {
        (0..count).map(NodeId).collect()
    }

    /// SCP as `Cluster::satisfies_scp` decides it: one group holds every
    /// edge.
    fn one_group(groups: &[Vec<EdgeKey>], edges: &[EdgeKey]) -> bool {
        groups.len() == 1 && groups[0].len() == edges.len()
    }

    /// No size from which every connected MQC satisfies SCP: over every
    /// labelled graph on 3..=6 nodes, the connected MQCs (all of diameter
    /// ≤ 2) and those `scp_edge_groups` does not put in one group — the
    /// 3-paths, and at n = 5 the five-cycles (no edge on a short cycle)
    /// and the bowties (two groups).
    #[test]
    fn connected_mqcs_on_up_to_six_nodes_against_scp() {
        // (n, connected MQCs, not SCP, of which no group, of which two groups)
        let expected = [
            (3, 4, 3, 3, 0),
            (4, 10, 0, 0, 0),
            (5, 253, 27, 12, 15),
            (6, 1858, 0, 0, 0),
        ];
        for (count, mqcs, not_scp, no_group, two_groups) in expected {
            let pairs: Vec<(u32, u32)> = (0..count)
                .flat_map(|a| (a + 1..count).map(move |b| (a, b)))
                .collect();
            let nodes = all_nodes(count);
            let mut seen = (0, 0, 0, 0);
            for mask in 0u32..1 << pairs.len() {
                let chosen: Vec<(u32, u32)> = (0..pairs.len())
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| pairs[i])
                    .collect();
                let g = graph(&chosen);
                if !is_mqc(&g, &nodes) {
                    continue;
                }
                let Some(d) = diameter(&g, &nodes) else {
                    continue;
                };
                assert!(d <= 2, "n = {count}: {chosen:?}");
                seen.0 += 1;
                let edges = sorted_edges(&g);
                let groups = scp_edge_groups(&edges);
                if !one_group(&groups, &edges) {
                    seen.1 += 1;
                    seen.2 += usize::from(groups.is_empty());
                    seen.3 += usize::from(groups.len() == 2);
                }
            }
            assert_eq!(seen, (mqcs, not_scp, no_group, two_groups), "n = {count}");
        }
    }

    /// For every odd n = 2m + 1 ≥ 5 there is a connected MQC with an edge
    /// on no cycle of length ≤ 4: an edge u–v, a clique A of m − 1 nodes
    /// joined to u, a clique B of m − 1 nodes joined to v, and a node w
    /// joined to all of A ∪ B.  Every degree is at least m.
    #[test]
    fn odd_mqcs_can_hold_an_edge_on_no_short_cycle() {
        for m in [3u32, 4] {
            let (u, v, w) = (0, 1, 2);
            let a: Vec<u32> = (3..m + 2).collect();
            let b: Vec<u32> = (m + 2..2 * m + 1).collect();
            let mut pairs = vec![(u, v)];
            for (clique, end) in [(&a, u), (&b, v)] {
                for (i, &x) in clique.iter().enumerate() {
                    pairs.push((end, x));
                    pairs.push((w, x));
                    pairs.extend(clique[i + 1..].iter().map(|&y| (x, y)));
                }
            }
            let g = graph(&pairs);
            let nodes = all_nodes(2 * m + 1);
            assert!(is_mqc(&g, &nodes), "n = {}", 2 * m + 1);
            assert_eq!(diameter(&g, &nodes), Some(2));
            let uv = EdgeKey::new(n(u), n(v));
            assert!(
                scp_edge_groups(&sorted_edges(&g))
                    .iter()
                    .all(|group| !group.contains(&uv)),
                "n = {}",
                2 * m + 1
            );
        }
    }

    /// For even n every edge of a connected MQC lies on a short cycle: an
    /// edge u–v on none forces a neighbour of u other than v below
    /// ⌈(n − 1)/2⌉ neighbours.  Checked on seeded random MQCs; whether
    /// the edges then form one group is printed, not asserted.
    #[test]
    fn even_mqcs_put_every_edge_on_a_short_cycle() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x3C_0008);
        for count in [8u32, 10] {
            let nodes = all_nodes(count);
            let (mut mqcs, mut scp) = (0usize, 0usize);
            while mqcs < 300 {
                let p = rng.gen_range(0.45..0.75);
                let pairs: Vec<(u32, u32)> = (0..count)
                    .flat_map(|a| (a + 1..count).map(move |b| (a, b)))
                    .filter(|_| rng.gen_bool(p))
                    .collect();
                let g = graph(&pairs);
                if !is_mqc(&g, &nodes) || diameter(&g, &nodes).is_none() {
                    continue;
                }
                mqcs += 1;
                let edges = sorted_edges(&g);
                let groups = scp_edge_groups(&edges);
                assert_eq!(
                    groups.iter().map(Vec::len).sum::<usize>(),
                    edges.len(),
                    "n = {count}: {pairs:?}"
                );
                scp += usize::from(one_group(&groups, &edges));
            }
            eprintln!(
                "mqc-scp n={count}: {scp} of {mqcs} random connected MQCs are one SCP group ({:.1}%)",
                100.0 * scp as f64 / mqcs as f64
            );
        }
    }
}
