//! Offline biconnected-component clustering (the Section 7.3 baseline).
//!
//! The paper compares its incremental SCP clusters against the approach of
//! Bansal et al. (VLDB 2007): "after each quantum, the BCs are computed on
//! the entire graph in an offline manner.  All the edges … which are not
//! part of any bi-connected cluster are reported as clusters of size 2."
//! This module recomputes that decomposition from scratch on demand; there
//! is deliberately no incremental state, because the absence of incremental
//! maintenance is exactly what the baseline represents.

use dengraph_core::{Cluster, ClusterId};
use dengraph_graph::fxhash::FxHashSet;
use dengraph_graph::{DynamicGraph, EdgeKey, NodeId};

use crate::biconnected::biconnected_components;

/// Which flavour of the offline baseline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfflineClusterScheme {
    /// Only biconnected components with at least three nodes (the
    /// "Bi-connected Clusters" column of Table 3).
    BiconnectedOnly,
    /// Biconnected components plus every remaining edge as a cluster of
    /// size 2 (the "Bi-connected clusters + Edges" column of Table 3).
    BiconnectedPlusEdges,
}

/// Recomputes the offline clustering of `graph` from scratch.
///
/// Returned clusters carry ids local to this call (`0, 1, 2, …`); the
/// offline scheme has no notion of cluster identity across quanta.
pub fn offline_bc_clusters(graph: &DynamicGraph, scheme: OfflineClusterScheme) -> Vec<Cluster> {
    let components = biconnected_components(graph);
    let mut clusters = Vec::new();
    let mut next_id = 0u64;
    let mut make = |edges: Vec<EdgeKey>, clusters: &mut Vec<Cluster>| {
        let mut cluster = Cluster::new(ClusterId(next_id), Vec::new(), edges, 0);
        cluster.sync_nodes_to_edges();
        clusters.push(cluster);
        next_id += 1;
    };
    for comp in components {
        let node_count = {
            let mut nodes: FxHashSet<NodeId> = FxHashSet::default();
            for e in &comp {
                nodes.insert(e.0);
                nodes.insert(e.1);
            }
            nodes.len()
        };
        match scheme {
            OfflineClusterScheme::BiconnectedOnly => {
                if node_count >= 3 {
                    make(comp, &mut clusters);
                }
            }
            OfflineClusterScheme::BiconnectedPlusEdges => {
                if node_count >= 3 {
                    make(comp, &mut clusters);
                } else {
                    // A bridge: report it as a size-2 cluster.
                    for e in comp {
                        make(vec![e], &mut clusters);
                    }
                }
            }
        }
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::graph;

    #[test]
    fn triangle_plus_bridge() {
        let g = graph(&[(1, 2), (2, 3), (1, 3), (3, 4)]);
        let only = offline_bc_clusters(&g, OfflineClusterScheme::BiconnectedOnly);
        assert_eq!(only.len(), 1);
        assert_eq!(only[0].size(), 3);
        let plus = offline_bc_clusters(&g, OfflineClusterScheme::BiconnectedPlusEdges);
        assert_eq!(plus.len(), 2);
        let sizes: Vec<usize> = {
            let mut v: Vec<usize> = plus.iter().map(|c| c.size()).collect();
            v.sort();
            v
        };
        assert_eq!(sizes, vec![2, 3]);
    }

    #[test]
    fn five_cycle_is_a_bc_cluster_but_not_an_scp_cluster() {
        // The key structural difference to SCP clusters: a 5-cycle is
        // biconnected but has no short cycles.
        let g = graph(&[(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]);
        let bc = offline_bc_clusters(&g, OfflineClusterScheme::BiconnectedOnly);
        assert_eq!(bc.len(), 1);
        assert_eq!(bc[0].size(), 5);
        assert!(!bc[0].satisfies_scp());
        assert!(dengraph_graph::scp_clusters_global(&g).is_empty());
    }

    #[test]
    fn merged_real_events_stay_one_bc_cluster() {
        // Two triangles joined by a path of length 2: one biconnected
        // component?  No — the path makes the join nodes articulation
        // points, so BC keeps them separate; but a direct edge between the
        // triangles still separates them as BCs of their own.
        let g = graph(&[(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6)]);
        let bc = offline_bc_clusters(&g, OfflineClusterScheme::BiconnectedOnly);
        assert_eq!(bc.len(), 2);
    }

    #[test]
    fn empty_graph_has_no_clusters() {
        let g = DynamicGraph::new();
        assert!(offline_bc_clusters(&g, OfflineClusterScheme::BiconnectedPlusEdges).is_empty());
    }
}
