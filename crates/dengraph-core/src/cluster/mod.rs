//! Cluster discovery and maintenance — Sections 4 and 5 of the paper.
//!
//! A *cluster* is an approximate majority quasi-clique (aMQC): one group of
//! AKG edges joined through shared cycles of length at most 4.  Every edge
//! lies on such a cycle (the short-cycle property, Section 4.1), and
//! clusters sharing an edge merge (Lemma 6), so a cluster is exactly one
//! group of [`dengraph_graph::scp_edge_groups`].  Clusters are discovered
//! and maintained *locally*: whenever a node or edge is added to or
//! removed from the AKG, only the neighbourhood of that change and the
//! clusters touching it are processed.
//!
//! Module layout:
//!
//! * [`cluster`](self) — the [`Cluster`] value type and [`ClusterId`].
//! * [`registry`] — the [`ClusterRegistry`]: cluster storage plus the
//!   edge→cluster and node→clusters indexes and the shared-edge merge rule
//!   (Lemma 6).
//! * [`addition`] — the `EdgeAddition` algorithm of Section 5.2 (the AKG
//!   adds a node's edges one by one, so it also does Section 5.1's
//!   `NodeAddition`).
//! * [`deletion`] — the `NodeDeletion` and `EdgeDeletion` algorithms of
//!   Sections 5.3 and 5.4 (cycle check, articulation check, cluster
//!   splitting).
//! * [`maintainer`] — [`ClusterMaintainer`], which drives the above from the
//!   stream of [`GraphDelta`](crate::akg::GraphDelta)s produced by the AKG.

// Module docs live as `//!` inner docs in each module's own file (outer
// `///` docs here would re-scope their intra-doc links into this file).
pub mod addition;
pub mod deletion;
pub mod maintainer;
pub mod registry;

use dengraph_graph::dynamic_graph::EdgeKey;
use dengraph_graph::fxhash::FxHashSet;
use dengraph_graph::NodeId;
use dengraph_json::{Decode, Encode};

pub use addition::edge_addition;
pub use deletion::{edge_deletion, node_deletion};
pub use maintainer::ClusterMaintainer;
pub use registry::ClusterRegistry;

/// Identifier of a cluster.  Ids are never reused within one registry, so
/// downstream event tracking can rely on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ClusterId(pub u64);

impl Ord for ClusterId {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for ClusterId {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::fmt::Display for ClusterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// One discovered cluster: a set of AKG nodes plus the set of AKG edges that
/// hold it together.
///
/// The edge set is explicit (rather than "all induced edges") because the
/// short-cycle property is a property of *edges*: an AKG edge between two
/// cluster nodes that does not participate in any short cycle within the
/// cluster is not part of the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// The cluster's id.
    pub id: ClusterId,
    /// The member nodes (always the endpoints of [`Self::edges`]).
    pub nodes: FxHashSet<NodeId>,
    /// The member edges.
    pub edges: FxHashSet<EdgeKey>,
    /// Quantum in which the cluster was first created.
    pub born_quantum: u64,
    /// Quantum in which the cluster last changed (grew, shrank or merged).
    pub updated_quantum: u64,
}

impl Cluster {
    /// Creates a cluster from explicit node and edge sets.
    pub fn new(
        id: ClusterId,
        nodes: FxHashSet<NodeId>,
        edges: FxHashSet<EdgeKey>,
        quantum: u64,
    ) -> Self {
        Self {
            id,
            nodes,
            edges,
            born_quantum: quantum,
            updated_quantum: quantum,
        }
    }

    /// Number of member nodes.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// Number of member edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Does the cluster contain this node?
    pub fn contains_node(&self, n: NodeId) -> bool {
        self.nodes.contains(&n)
    }

    /// Does the cluster contain this edge?
    pub fn contains_edge(&self, e: EdgeKey) -> bool {
        self.edges.contains(&e)
    }

    /// Member nodes, sorted (useful for deterministic output and tests).
    #[expect(clippy::disallowed_methods, reason = "sorted before it is returned")]
    pub fn sorted_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.nodes.iter().copied().collect();
        v.sort();
        v
    }

    /// Cluster edges, sorted: the canonical order of the codecs and of
    /// [`dengraph_graph::scp_edge_groups`].
    #[expect(clippy::disallowed_methods, reason = "sorted before it is returned")]
    pub(crate) fn sorted_edges(&self) -> Vec<EdgeKey> {
        let mut v: Vec<EdgeKey> = self.edges.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Recomputes the node set from the edge set (useful when constructing
    /// a cluster from edges alone, or after manually editing the edge set).
    pub fn sync_nodes_to_edges(&mut self) {
        self.nodes.clear();
        #[expect(
            clippy::iter_over_hash_type,
            reason = "feeds a set; membership is order-free"
        )]
        for e in &self.edges {
            self.nodes.insert(e.0);
            self.nodes.insert(e.1);
        }
    }

    /// Neighbours of `n` along cluster edges, sorted ascending so that
    /// consumers folding floats over them (e.g. [`crate::ranking`]) are
    /// independent of the edge set's hash-iteration order.
    #[expect(clippy::disallowed_methods, reason = "sorted before it is returned")]
    pub fn cluster_neighbors(&self, n: NodeId) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.edges.iter().filter_map(|e| e.other(n)).collect();
        v.sort_unstable();
        v
    }

    /// Is the cluster one SCP cluster?  Its edges, sorted, must form
    /// exactly one group of [`dengraph_graph::scp_edge_groups`] holding
    /// every edge: each edge lies on a cycle of length ≤ 4 within the
    /// cluster, and the cycles are joined through shared edges.  This is
    /// the defining invariant (property P1).  Two triangles sharing only a
    /// node fail it (they are two clusters), and so do an edgeless cluster
    /// and a self-loop.
    pub fn satisfies_scp(&self) -> bool {
        let edges = self.sorted_edges();
        if edges.iter().any(|e| e.0 == e.1) {
            return false;
        }
        let groups = dengraph_graph::scp_edge_groups(&edges);
        groups.len() == 1 && groups[0].len() == edges.len()
    }
}

impl Encode for Cluster {
    /// Serialises the cluster (id, sorted nodes, sorted edges, lifecycle
    /// quanta) to a [`dengraph_json::Value`].
    fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        Value::obj([
            ("id", Value::from(self.id.0)),
            (
                "nodes",
                Value::arr(self.sorted_nodes().into_iter().map(|n| Value::from(n.0))),
            ),
            (
                "edges",
                Value::arr(
                    self.sorted_edges()
                        .into_iter()
                        .map(|e| Value::arr([Value::from(e.0 .0), Value::from(e.1 .0)])),
                ),
            ),
            ("born_quantum", Value::from(self.born_quantum)),
            ("updated_quantum", Value::from(self.updated_quantum)),
        ])
    }

    /// Appends the compact binary encoding: id, the delta-encoded sorted
    /// node column, the sorted edge list (first endpoint delta-encoded)
    /// and the lifecycle quanta.
    fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        w.u64(self.id.0);
        w.delta_u32s(self.sorted_nodes().into_iter().map(|n| n.0));
        let edges = self.sorted_edges();
        w.usize(edges.len());
        let mut prev_a = 0u32;
        for (i, e) in edges.iter().enumerate() {
            w.u32(if i == 0 { e.0 .0 } else { e.0 .0 - prev_a });
            prev_a = e.0 .0;
            w.u32(e.1 .0);
        }
        w.u64(self.born_quantum);
        w.u64(self.updated_quantum);
    }
}

impl Decode for Cluster {
    /// Reconstructs a cluster serialised by [`Self::to_json`].
    fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        let nodes: FxHashSet<NodeId> = value
            .get("nodes")?
            .as_arr()?
            .iter()
            .map(|n| n.as_u32().map(NodeId))
            .collect::<dengraph_json::Result<_>>()?;
        let mut edges: FxHashSet<EdgeKey> = FxHashSet::default();
        for edge in value.get("edges")?.as_arr()? {
            let parts = edge.as_arr()?;
            if parts.len() != 2 {
                return Err(dengraph_json::JsonError {
                    message: format!("edge pair has {} elements", parts.len()),
                    offset: 0,
                });
            }
            edges.insert(checked_edge(parts[0].as_u32()?, parts[1].as_u32()?, 0)?);
        }
        Ok(Self {
            id: ClusterId(value.get("id")?.as_u64()?),
            nodes,
            edges,
            born_quantum: value.get("born_quantum")?.as_u64()?,
            updated_quantum: value.get("updated_quantum")?.as_u64()?,
        })
    }

    /// Reconstructs a cluster encoded by [`Self::to_bin`].
    fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        let id = ClusterId(r.u64()?);
        let nodes: FxHashSet<NodeId> = r.delta_u32s()?.into_iter().map(NodeId).collect();
        let edge_count = r.seq_len(2)?;
        let mut edges: FxHashSet<EdgeKey> = FxHashSet::default();
        let mut prev_a = 0u32;
        for i in 0..edge_count {
            let d = r.u32()?;
            let a = if i == 0 {
                d
            } else {
                prev_a.checked_add(d).ok_or(dengraph_json::JsonError {
                    message: "edge endpoint overflows u32".into(),
                    offset: r.pos(),
                })?
            };
            prev_a = a;
            let b = r.u32()?;
            edges.insert(checked_edge(a, b, r.pos())?);
        }
        Ok(Self {
            id,
            nodes,
            edges,
            born_quantum: r.u64()?,
            updated_quantum: r.u64()?,
        })
    }
}

/// The edge between two decoded endpoints; a self-loop lies on no cycle,
/// so no cluster holds one.
fn checked_edge(a: u32, b: u32, offset: usize) -> dengraph_json::Result<EdgeKey> {
    if a == b {
        return Err(dengraph_json::JsonError {
            message: format!("cluster edge ({a}, {b}) is a self-loop"),
            offset,
        });
    }
    Ok(EdgeKey::new(NodeId(a), NodeId(b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn cluster_from(edges: &[(u32, u32)]) -> Cluster {
        let edge_set: FxHashSet<EdgeKey> = edges
            .iter()
            .map(|&(a, b)| EdgeKey::new(n(a), n(b)))
            .collect();
        let mut c = Cluster::new(ClusterId(1), FxHashSet::default(), edge_set, 0);
        c.sync_nodes_to_edges();
        c
    }

    #[test]
    fn triangle_cluster_satisfies_scp() {
        let c = cluster_from(&[(1, 2), (2, 3), (1, 3)]);
        assert_eq!(c.size(), 3);
        assert_eq!(c.edge_count(), 3);
        assert!(c.satisfies_scp());
    }

    #[test]
    fn four_cycle_cluster_satisfies_scp() {
        let c = cluster_from(&[(1, 2), (2, 3), (3, 4), (4, 1)]);
        assert!(c.satisfies_scp());
    }

    #[test]
    fn five_cycle_cluster_violates_scp() {
        let c = cluster_from(&[(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]);
        assert!(!c.satisfies_scp());
    }

    #[test]
    fn pendant_edge_breaks_scp() {
        let c = cluster_from(&[(1, 2), (2, 3), (1, 3), (3, 4)]);
        assert!(!c.satisfies_scp());
    }

    /// Two triangles sharing only node 3: every edge lies on a short cycle,
    /// but no cycle joins the triangles, so they are two clusters.
    #[test]
    fn bowtie_cluster_violates_scp() {
        let c = cluster_from(&[(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)]);
        assert!(!c.satisfies_scp());
        assert!(!cluster_from(&[]).satisfies_scp(), "an edgeless cluster");
    }

    #[test]
    fn decoders_reject_self_loop_edges() {
        let mut c = cluster_from(&[(1, 2), (2, 3), (1, 3)]);
        c.edges.insert(EdgeKey::new(n(2), n(2)));
        let json = Cluster::from_json(&c.to_json()).expect_err("JSON self-loop");
        assert!(json.message.contains("(2, 2) is a self-loop"), "{json:?}");
        let mut w = dengraph_json::BinWriter::new();
        c.to_bin(&mut w);
        let mut r = dengraph_json::BinReader::new(w.as_slice());
        let bin = Cluster::from_bin(&mut r).expect_err("binary self-loop");
        assert!(bin.message.contains("(2, 2) is a self-loop"), "{bin:?}");
    }

    #[test]
    fn cluster_neighbors_and_membership() {
        let c = cluster_from(&[(1, 2), (2, 3), (1, 3)]);
        let mut nbrs = c.cluster_neighbors(n(1));
        nbrs.sort();
        assert_eq!(nbrs, vec![n(2), n(3)]);
        assert!(c.contains_node(n(1)));
        assert!(!c.contains_node(n(9)));
        assert!(c.contains_edge(EdgeKey::new(n(2), n(1))));
        assert_eq!(c.sorted_nodes(), vec![n(1), n(2), n(3)]);
    }

    #[test]
    fn sync_nodes_follows_edges() {
        let mut c = cluster_from(&[(1, 2), (2, 3), (1, 3)]);
        c.edges.remove(&EdgeKey::new(n(1), n(3)));
        c.edges.remove(&EdgeKey::new(n(2), n(3)));
        c.sync_nodes_to_edges();
        assert_eq!(c.sorted_nodes(), vec![n(1), n(2)]);
    }

    #[test]
    fn display_of_ids() {
        assert_eq!(ClusterId(4).to_string(), "c4");
    }
}
