//! What the paper says, as code the engine never runs.
//!
//! The engine crates hold the detector.  This library holds the paper's
//! reference and evaluation code, which the tests in the workspace-level
//! `tests/` directory (wired through this package) hold the engine to:
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`scp`] | §4.1 | the short-cycle property checked edge by edge, from its definition |
//! | [`cluster`] | §5.1 | `NodeAddition`, which the engine runs as one `EdgeAddition` per edge |
//! | [`quasi_clique`] | §1.1, §4.2 | γ-quasi-clique / majority-quasi-clique checks, density, diameter |
//! | [`biconnected`] | §7.3, Theorem 2 | Hopcroft–Tarjan articulation points and biconnected components |
//! | [`baseline`] | §7.3 | the offline biconnected-component clustering of Table 3 |
//! | [`ckg`] | §7.4 | full-CKG size bookkeeping, for the AKG-reduction numbers |
//! | [`evaluation`] | §7 | Section 7 run reports, cluster quality, the Table 3 scheme comparison |
//! | [`window`] | §3.2 | the sliding window from scratch: a copy of the last w quanta, each keyword's users, recency and p smallest hashes, exact Jaccard |
//! | [`oracle`] | §3–6 | a naive reference detector: raw-window user sets, exact Jaccard, global SCP |

// Module docs live as `//!` inner docs in each module's own file.
pub mod baseline;
pub mod biconnected;
pub mod ckg;
pub mod cluster;
pub mod evaluation;
pub mod oracle;
pub mod quasi_clique;
pub mod scp;
pub mod window;

/// Graph builders the unit tests share.
#[cfg(test)]
mod fixtures {
    use dengraph_graph::fxhash::FxHashSet;
    use dengraph_graph::{DynamicGraph, EdgeKey, NodeId};

    pub fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    pub fn set(ids: &[u32]) -> FxHashSet<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    /// The graph of `pairs`, every edge of weight 1.
    pub fn graph(pairs: &[(u32, u32)]) -> DynamicGraph {
        let mut g = DynamicGraph::new();
        for &(a, b) in pairs {
            g.add_edge(n(a), n(b), 1.0);
        }
        g
    }

    /// The edge list `scp_edge_groups` takes: sorted, without duplicates.
    pub fn sorted_edges(g: &DynamicGraph) -> Vec<EdgeKey> {
        let mut edges: Vec<EdgeKey> = g.edges().map(|(k, _)| k).collect();
        edges.sort_unstable();
        edges
    }
}
