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
//! A cluster holds its nodes and its edges as two strictly ascending
//! columns.  Every reader wants them in that order — the rank pass
//! ([`crate::ranking`]) folds each member's row by ascending neighbour,
//! [`dengraph_graph::scp_edge_groups`] takes sorted edges, the codecs
//! write sorted lists — so none of them copies or sorts, and membership is
//! a binary search over a cluster the paper shows stays small (< 7 nodes
//! on average).
//!
//! Module layout:
//!
//! * [`cluster`](self) — the [`Cluster`] value type and [`ClusterId`].
//! * [`registry`] — the [`ClusterRegistry`]: cluster storage plus the
//!   node→clusters index and the shared-edge merge rule (Lemma 6); an
//!   edge's one owner is the cluster of its endpoint whose edge column
//!   holds it.
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

/// One discovered cluster: its AKG nodes plus the AKG edges that hold it
/// together, each kept as a strictly ascending column.
///
/// The edge set is explicit (rather than "all induced edges") because the
/// short-cycle property is a property of *edges*: an AKG edge between two
/// cluster nodes that does not participate in any short cycle within the
/// cluster is not part of the cluster.
///
/// Both columns are sorted because every reader wants them in order: the
/// rank pass ([`crate::ranking`]) folds each member's row in ascending
/// neighbour order, [`dengraph_graph::scp_edge_groups`] (deletion repair,
/// [`Self::satisfies_scp`]) takes sorted edges, and the codecs write both
/// columns sorted.  Membership is a binary search.  Code that edits a
/// column must keep it strictly ascending; the registry's edits do, and
/// [`ClusterRegistry::check_invariants`] checks it.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// The cluster's id.
    pub id: ClusterId,
    /// The member nodes, strictly ascending: always the endpoints of
    /// [`Self::edges`].
    pub nodes: Vec<NodeId>,
    /// The member edges, strictly ascending.
    pub edges: Vec<EdgeKey>,
    /// Quantum in which the cluster was first created.
    pub born_quantum: u64,
    /// Quantum in which the cluster last changed (grew, shrank or merged).
    pub updated_quantum: u64,
}

impl Cluster {
    /// Creates a cluster from node and edge lists in any order; each is
    /// sorted and de-duplicated into its column.
    pub fn new(
        id: ClusterId,
        mut nodes: Vec<NodeId>,
        mut edges: Vec<EdgeKey>,
        quantum: u64,
    ) -> Self {
        nodes.sort_unstable();
        nodes.dedup();
        edges.sort_unstable();
        edges.dedup();
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
        self.nodes.binary_search(&n).is_ok()
    }

    /// Does the cluster contain this edge?
    pub fn contains_edge(&self, e: EdgeKey) -> bool {
        self.edges.binary_search(&e).is_ok()
    }

    /// An owned copy of the member column (already sorted; read
    /// [`Self::nodes`] to borrow it).
    pub fn sorted_nodes(&self) -> Vec<NodeId> {
        self.nodes.clone()
    }

    /// Recomputes the node column from the edge column (useful after
    /// editing the edges by hand).
    pub fn sync_nodes_to_edges(&mut self) {
        self.nodes = endpoints(&self.edges);
    }

    /// Neighbours of `n` along cluster edges, ascending: the edges `(a, n)`
    /// come in ascending `a`, all before the run of edges `(n, b)`.
    pub fn cluster_neighbors(&self, n: NodeId) -> Vec<NodeId> {
        self.edges.iter().filter_map(|e| e.other(n)).collect()
    }

    /// Is the cluster one SCP cluster?  Its edges must form exactly one
    /// group of [`dengraph_graph::scp_edge_groups`] holding every edge:
    /// each edge lies on a cycle of length ≤ 4 within the cluster, and the
    /// cycles are joined through shared edges.  This is the defining
    /// invariant (property P1).  Two triangles sharing only a node fail it
    /// (they are two clusters), and so do an edgeless cluster and a
    /// self-loop.
    pub fn satisfies_scp(&self) -> bool {
        if self.edges.iter().any(|e| e.0 == e.1) {
            return false;
        }
        let groups = dengraph_graph::scp_edge_groups(&self.edges);
        groups.len() == 1 && groups[0].len() == self.edges.len()
    }
}

/// The endpoints of `edges`, strictly ascending.
pub(crate) fn endpoints(edges: &[EdgeKey]) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = edges.iter().flat_map(|e| [e.0, e.1]).collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

impl Encode for Cluster {
    /// Serialises the cluster (id, node column, edge column, lifecycle
    /// quanta) to a [`dengraph_json::Value`].
    fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        Value::obj([
            ("id", Value::from(self.id.0)),
            (
                "nodes",
                Value::arr(self.nodes.iter().map(|n| Value::from(n.0))),
            ),
            (
                "edges",
                Value::arr(
                    self.edges
                        .iter()
                        .map(|e| Value::arr([Value::from(e.0 .0), Value::from(e.1 .0)])),
                ),
            ),
            ("born_quantum", Value::from(self.born_quantum)),
            ("updated_quantum", Value::from(self.updated_quantum)),
        ])
    }

    /// Appends the compact binary encoding: id, the delta-encoded node
    /// column, the edge column (first endpoint delta-encoded) and the
    /// lifecycle quanta.
    fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        w.u64(self.id.0);
        w.delta_u32s(self.nodes.iter().map(|n| n.0));
        w.usize(self.edges.len());
        let mut prev_a = 0u32;
        for (i, e) in self.edges.iter().enumerate() {
            w.u32(if i == 0 { e.0 .0 } else { e.0 .0 - prev_a });
            prev_a = e.0 .0;
            w.u32(e.1 .0);
        }
        w.u64(self.born_quantum);
        w.u64(self.updated_quantum);
    }
}

impl Decode for Cluster {
    /// Reconstructs a cluster serialised by [`Self::to_json`] (the lists
    /// are sorted and de-duplicated into columns, as [`Cluster::new`]
    /// does).
    fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        let nodes: Vec<NodeId> = value
            .get("nodes")?
            .as_arr()?
            .iter()
            .map(|n| n.as_u32().map(NodeId))
            .collect::<dengraph_json::Result<_>>()?;
        let mut edges: Vec<EdgeKey> = Vec::new();
        for edge in value.get("edges")?.as_arr()? {
            let parts = edge.as_arr()?;
            if parts.len() != 2 {
                return Err(dengraph_json::JsonError {
                    message: format!("edge pair has {} elements", parts.len()),
                    offset: 0,
                });
            }
            edges.push(checked_edge(parts[0].as_u32()?, parts[1].as_u32()?, 0)?);
        }
        let mut cluster = Self::new(
            ClusterId(value.get("id")?.as_u64()?),
            nodes,
            edges,
            value.get("born_quantum")?.as_u64()?,
        );
        cluster.updated_quantum = value.get("updated_quantum")?.as_u64()?;
        Ok(cluster)
    }

    /// Reconstructs a cluster encoded by [`Self::to_bin`] (the lists are
    /// sorted and de-duplicated into columns, as [`Cluster::new`] does).
    fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        let id = ClusterId(r.u64()?);
        let nodes: Vec<NodeId> = r.delta_u32s()?.into_iter().map(NodeId).collect();
        let edge_count = r.seq_len(2)?;
        let mut edges: Vec<EdgeKey> = Vec::with_capacity(edge_count);
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
            edges.push(checked_edge(a, b, r.pos())?);
        }
        let mut cluster = Self::new(id, nodes, edges, r.u64()?);
        cluster.updated_quantum = r.u64()?;
        Ok(cluster)
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
        let edges = edges
            .iter()
            .map(|&(a, b)| EdgeKey::new(n(a), n(b)))
            .collect();
        let mut c = Cluster::new(ClusterId(1), Vec::new(), edges, 0);
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
        c.edges.insert(2, EdgeKey::new(n(2), n(2)));
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
        assert_eq!(c.cluster_neighbors(n(1)), vec![n(2), n(3)]);
        assert_eq!(c.cluster_neighbors(n(2)), vec![n(1), n(3)]);
        assert!(c.contains_node(n(1)));
        assert!(!c.contains_node(n(9)));
        assert!(c.contains_edge(EdgeKey::new(n(2), n(1))));
        assert_eq!(c.sorted_nodes(), vec![n(1), n(2), n(3)]);
    }

    #[test]
    fn sync_nodes_follows_edges() {
        let mut c = cluster_from(&[(1, 2), (2, 3), (1, 3)]);
        c.edges.retain(|&e| e == EdgeKey::new(n(1), n(2)));
        c.sync_nodes_to_edges();
        assert_eq!(c.sorted_nodes(), vec![n(1), n(2)]);
    }

    #[test]
    fn display_of_ids() {
        assert_eq!(ClusterId(4).to_string(), "c4");
    }
}
