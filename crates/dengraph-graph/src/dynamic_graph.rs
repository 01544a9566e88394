//! The dynamic undirected graph.
//!
//! An adjacency representation tuned for the access pattern of the AKG:
//! very frequent node/edge insertion and deletion, frequent neighbourhood
//! and common-neighbour queries, and per-edge weights (the edge correlation
//! of Section 3.2) that are updated in place.
//!
//! Each node's neighbourhood is a **sorted dense array** of `(neighbour,
//! weight)` pairs rather than a hash map: AKG degrees stay small (the
//! paper's locality argument), so a membership probe is a branch-friendly
//! binary search over one cache line or two, neighbour iteration is
//! allocation-free and **ascending by id** (callers that need canonical
//! order get it without sorting), and edge insertion/removal is a short
//! `memmove`.  [`DynamicGraph::common_neighbors`] becomes a linear merge
//! of two sorted arrays.

use dengraph_json::{Decode, Encode};

use crate::fxhash::FxHashMap;
use crate::node::NodeId;

/// A normalised (smaller id first) undirected edge key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeKey(pub NodeId, pub NodeId);

impl Ord for EdgeKey {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0, self.1).cmp(&(other.0, other.1))
    }
}

impl PartialOrd for EdgeKey {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl EdgeKey {
    /// Builds a normalised key from two endpoints (in any order).
    pub fn new(a: NodeId, b: NodeId) -> Self {
        if a <= b {
            EdgeKey(a, b)
        } else {
            EdgeKey(b, a)
        }
    }

    /// Returns both endpoints.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.0, self.1)
    }

    /// Given one endpoint, returns the other; `None` if `n` is not an endpoint.
    pub fn other(&self, n: NodeId) -> Option<NodeId> {
        if self.0 == n {
            Some(self.1)
        } else if self.1 == n {
            Some(self.0)
        } else {
            None
        }
    }
}

/// A dynamic, weighted, undirected graph.
///
/// Equality compares the adjacency *contents* (node set, edge set, edge
/// weights), independent of the insertion history — the relation the
/// checkpoint round-trip tests rely on.  (Neighbour lists are kept sorted,
/// so per-node comparison is canonical by construction.)
#[derive(Debug, Default, Clone, PartialEq)]
pub struct DynamicGraph {
    /// node -> sorted `(neighbour, weight)` pairs.
    adj: FxHashMap<NodeId, Vec<(NodeId, f64)>>,
    edge_count: usize,
}

impl DynamicGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with no edges.  Returns `true` if the node was new.
    pub fn add_node(&mut self, n: NodeId) -> bool {
        match self.adj.entry(n) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Vec::new());
                true
            }
        }
    }

    /// Removes a node and all its incident edges.  Returns the removed
    /// incident edges (with their weights) in ascending neighbour order,
    /// or an empty vector if the node did not exist.
    pub fn remove_node(&mut self, n: NodeId) -> Vec<(EdgeKey, f64)> {
        let Some(neighbours) = self.adj.remove(&n) else {
            return Vec::new();
        };
        let mut removed = Vec::with_capacity(neighbours.len());
        for (m, w) in neighbours {
            if let Some(adj_m) = self.adj.get_mut(&m) {
                if let Ok(pos) = adj_m.binary_search_by_key(&n, |&(k, _)| k) {
                    adj_m.remove(pos);
                }
            }
            self.edge_count -= 1;
            removed.push((EdgeKey::new(n, m), w));
        }
        removed
    }

    /// Adds (or updates) an undirected edge with the given weight.
    /// Endpoints are created if missing.  Returns `true` if the edge is new.
    #[expect(
        clippy::expect_used,
        reason = "both endpoints were added by the `add_node` calls above"
    )]
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, weight: f64) -> bool {
        assert_ne!(a, b, "self-loops are not allowed in the keyword graph");
        self.add_node(a);
        self.add_node(b);
        let insert = |list: &mut Vec<(NodeId, f64)>, key: NodeId| match list
            .binary_search_by_key(&key, |&(k, _)| k)
        {
            Ok(pos) => {
                list[pos].1 = weight;
                false
            }
            Err(pos) => {
                list.insert(pos, (key, weight));
                true
            }
        };
        let new = insert(self.adj.get_mut(&a).expect("node a just inserted"), b);
        insert(self.adj.get_mut(&b).expect("node b just inserted"), a);
        if new {
            self.edge_count += 1;
        }
        new
    }

    /// Removes an edge; returns its weight if it existed.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> Option<f64> {
        let adj_a = self.adj.get_mut(&a)?;
        let pos = adj_a.binary_search_by_key(&b, |&(k, _)| k).ok()?;
        let (_, w) = adj_a.remove(pos);
        if let Some(adj_b) = self.adj.get_mut(&b) {
            if let Ok(pos) = adj_b.binary_search_by_key(&a, |&(k, _)| k) {
                adj_b.remove(pos);
            }
        }
        self.edge_count -= 1;
        Some(w)
    }

    /// Returns the weight of the edge `(a, b)` if present.
    pub fn edge_weight(&self, a: NodeId, b: NodeId) -> Option<f64> {
        let adj_a = self.adj.get(&a)?;
        adj_a
            .binary_search_by_key(&b, |&(k, _)| k)
            .ok()
            .map(|pos| adj_a[pos].1)
    }

    /// Updates the weight of an existing edge; returns `false` if absent.
    pub fn set_edge_weight(&mut self, a: NodeId, b: NodeId, weight: f64) -> bool {
        let Some(adj_a) = self.adj.get_mut(&a) else {
            return false;
        };
        let Ok(pos) = adj_a.binary_search_by_key(&b, |&(k, _)| k) else {
            return false;
        };
        adj_a[pos].1 = weight;
        if let Some(adj_b) = self.adj.get_mut(&b) {
            if let Ok(pos) = adj_b.binary_search_by_key(&a, |&(k, _)| k) {
                adj_b[pos].1 = weight;
            }
        }
        true
    }

    /// Does the graph contain this node?
    pub fn contains_node(&self, n: NodeId) -> bool {
        self.adj.contains_key(&n)
    }

    /// Does the graph contain this edge?
    pub fn contains_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.adj
            .get(&a)
            .is_some_and(|m| m.binary_search_by_key(&b, |&(k, _)| k).is_ok())
    }

    /// Degree of a node (0 if absent).
    pub fn degree(&self, n: NodeId) -> usize {
        self.adj.get(&n).map_or(0, |m| m.len())
    }

    /// Iterates over the neighbours of `n` in **ascending id order**
    /// (empty if absent).  Callers that need canonical neighbour order can
    /// rely on this without sorting.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adj
            .get(&n)
            .into_iter()
            .flat_map(|m| m.iter().map(|&(k, _)| k))
    }

    /// Iterates over `(neighbour, weight)` pairs of `n`, ascending by id.
    pub fn neighbors_weighted(&self, n: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.adj.get(&n).into_iter().flat_map(|m| m.iter().copied())
    }

    /// Returns the common neighbours of `a` and `b`, ascending by id —
    /// a linear merge of the two sorted neighbour arrays.
    pub fn common_neighbors(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        let (Some(na), Some(nb)) = (self.adj.get(&a), self.adj.get(&b)) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < na.len() && j < nb.len() {
            match na[i].0.cmp(&nb[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(na[i].0);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Iterates over all node ids in unspecified (hash) order; callers
    /// that need determinism sort, as `to_json` does.
    #[expect(
        clippy::disallowed_methods,
        reason = "order-free accessor; deterministic consumers collect and sort"
    )]
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.adj.keys().copied()
    }

    /// Iterates over all edges as normalised keys with weights, in
    /// unspecified (hash) order.  Each undirected edge is yielded exactly
    /// once; callers that need determinism sort, as `to_json` does.
    #[expect(
        clippy::disallowed_methods,
        reason = "order-free accessor; deterministic consumers collect and sort"
    )]
    pub fn edges(&self) -> impl Iterator<Item = (EdgeKey, f64)> + '_ {
        self.adj.iter().flat_map(|(&a, nbrs)| {
            nbrs.iter()
                .filter(move |&&(b, _)| a <= b)
                .map(move |&(b, w)| (EdgeKey::new(a, b), w))
        })
    }

    /// Removes everything.
    pub fn clear(&mut self) {
        self.adj.clear();
        self.edge_count = 0;
    }

    /// Deep-checks the representation invariants: every neighbour list is
    /// strictly ascending by id (the documented canonical order), free of
    /// self-loops, symmetric (each `(a, b, w)` entry has a matching
    /// `(b, a, w)` with a **bit-identical** weight), and `edge_count`
    /// equals half the sum of degrees.
    ///
    /// This is the runtime side of the determinism contract: checkers call
    /// it at quantum boundaries under the `invariants` feature of
    /// `dengraph-core`.  Cost is `O(V + E log d)`, so it is not meant for
    /// per-message use.
    #[expect(
        clippy::iter_over_hash_type,
        reason = "validation walk; pass/fail is order-independent"
    )]
    pub fn validate_invariants(&self) -> Result<(), String> {
        let mut degree_sum = 0usize;
        for (&a, nbrs) in &self.adj {
            degree_sum += nbrs.len();
            let mut prev: Option<NodeId> = None;
            for &(b, w) in nbrs {
                if a == b {
                    return Err(format!("node {a} has a self-loop"));
                }
                if let Some(p) = prev {
                    if b <= p {
                        return Err(format!(
                            "neighbour list of {a} is not strictly ascending: {b} after {p}"
                        ));
                    }
                }
                prev = Some(b);
                let mirrored = self
                    .adj
                    .get(&b)
                    .and_then(|m| m.binary_search_by_key(&a, |&(n, _)| n).ok().map(|i| m[i].1));
                match mirrored {
                    None => {
                        return Err(format!("edge ({a}, {b}) has no mirror entry at {b}"));
                    }
                    Some(mw) if mw.to_bits() != w.to_bits() => {
                        return Err(format!(
                            "edge ({a}, {b}) weight differs between directions: {w} vs {mw}"
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
        if !degree_sum.is_multiple_of(2) {
            return Err(format!("degree sum {degree_sum} is odd"));
        }
        if degree_sum / 2 != self.edge_count {
            return Err(format!(
                "edge_count {} disagrees with degree sum / 2 = {}",
                self.edge_count,
                degree_sum / 2
            ));
        }
        Ok(())
    }
}

impl Encode for DynamicGraph {
    /// Serialises the graph to a [`dengraph_json::Value`]: the sorted node
    /// list plus the sorted `[a, b, weight]` edge list.  The output is
    /// canonical — two graphs with equal contents serialise identically,
    /// regardless of how their adjacency maps were populated.
    fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        let mut nodes: Vec<NodeId> = self.nodes().collect();
        nodes.sort_unstable();
        let mut edges: Vec<(EdgeKey, f64)> = self.edges().collect();
        edges.sort_by_key(|(k, _)| *k);
        Value::obj([
            (
                "nodes",
                Value::arr(nodes.into_iter().map(|n| Value::from(n.0))),
            ),
            (
                "edges",
                Value::arr(edges.into_iter().map(|(k, w)| {
                    Value::arr([Value::from(k.0 .0), Value::from(k.1 .0), Value::from(w)])
                })),
            ),
        ])
    }

    /// Appends the compact binary encoding: the delta-encoded sorted node
    /// column, then the edge list sorted by key with the first endpoint
    /// delta-encoded (edges sorted by `EdgeKey` repeat their first
    /// endpoint in runs, so it compresses to near one byte per edge).
    fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        let mut nodes: Vec<NodeId> = self.nodes().collect();
        nodes.sort_unstable();
        w.delta_u32s(nodes.iter().map(|n| n.0));
        let mut edges: Vec<(EdgeKey, f64)> = self.edges().collect();
        edges.sort_by_key(|(k, _)| *k);
        w.usize(edges.len());
        let mut prev_a = 0u32;
        for (i, (key, weight)) in edges.iter().enumerate() {
            w.u32(if i == 0 { key.0 .0 } else { key.0 .0 - prev_a });
            prev_a = key.0 .0;
            w.u32(key.1 .0);
            w.f64(*weight);
        }
    }
}

impl Decode for DynamicGraph {
    /// Reconstructs a graph serialised by [`Self::to_json`].
    fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        let mut graph = DynamicGraph::new();
        for node in value.get("nodes")?.as_arr()? {
            graph.add_node(NodeId(node.as_u32()?));
        }
        for edge in value.get("edges")?.as_arr()? {
            let parts = edge.as_arr()?;
            if parts.len() != 3 {
                return Err(dengraph_json::JsonError {
                    message: format!("edge triple has {} elements", parts.len()),
                    offset: 0,
                });
            }
            let a = NodeId(parts[0].as_u32()?);
            let b = NodeId(parts[1].as_u32()?);
            graph.add_edge(a, b, parts[2].as_f64()?);
        }
        Ok(graph)
    }

    /// Reconstructs a graph encoded by [`Self::to_bin`].
    fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        let mut graph = DynamicGraph::new();
        for n in r.delta_u32s()? {
            graph.add_node(NodeId(n));
        }
        let edges = r.seq_len(2)?;
        let mut prev_a = 0u32;
        for i in 0..edges {
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
            let weight = r.f64()?;
            if a == b {
                return Err(dengraph_json::JsonError {
                    message: "self-loop in encoded graph".into(),
                    offset: r.pos(),
                });
            }
            graph.add_edge(NodeId(a), NodeId(b), weight);
        }
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn add_and_query_nodes() {
        let mut g = DynamicGraph::new();
        assert!(g.add_node(n(1)));
        assert!(!g.add_node(n(1)));
        assert!(g.contains_node(n(1)));
        assert!(!g.contains_node(n(2)));
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.degree(n(1)), 0);
    }

    #[test]
    fn add_edge_creates_endpoints() {
        let mut g = DynamicGraph::new();
        assert!(g.add_edge(n(1), n(2), 0.5));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert!(g.contains_edge(n(1), n(2)));
        assert!(g.contains_edge(n(2), n(1)));
        assert_eq!(g.edge_weight(n(1), n(2)), Some(0.5));
        assert_eq!(g.edge_weight(n(2), n(1)), Some(0.5));
    }

    #[test]
    fn re_adding_edge_updates_weight_without_double_count() {
        let mut g = DynamicGraph::new();
        g.add_edge(n(1), n(2), 0.5);
        assert!(!g.add_edge(n(1), n(2), 0.9));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(n(1), n(2)), Some(0.9));
    }

    #[test]
    fn remove_edge_and_node() {
        let mut g = DynamicGraph::new();
        g.add_edge(n(1), n(2), 1.0);
        g.add_edge(n(2), n(3), 1.0);
        assert_eq!(g.remove_edge(n(1), n(2)), Some(1.0));
        assert_eq!(g.remove_edge(n(1), n(2)), None);
        assert_eq!(g.edge_count(), 1);
        let removed = g.remove_node(n(2));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].0, EdgeKey::new(n(2), n(3)));
        assert_eq!(g.edge_count(), 0);
        assert!(!g.contains_node(n(2)));
        assert!(g.contains_node(n(3)));
    }

    #[test]
    fn remove_missing_node_is_noop() {
        let mut g = DynamicGraph::new();
        assert!(g.remove_node(n(9)).is_empty());
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_are_rejected() {
        let mut g = DynamicGraph::new();
        g.add_edge(n(1), n(1), 1.0);
    }

    #[test]
    fn common_neighbors_work() {
        let mut g = DynamicGraph::new();
        g.add_edge(n(1), n(3), 1.0);
        g.add_edge(n(2), n(3), 1.0);
        g.add_edge(n(1), n(4), 1.0);
        g.add_edge(n(2), n(4), 1.0);
        g.add_edge(n(1), n(5), 1.0);
        let mut common = g.common_neighbors(n(1), n(2));
        common.sort();
        assert_eq!(common, vec![n(3), n(4)]);
        // nodes 3 and 4 share neighbours 1 and 2 even though they are not adjacent
        let mut common = g.common_neighbors(n(3), n(4));
        common.sort();
        assert_eq!(common, vec![n(1), n(2)]);
        assert!(g.common_neighbors(n(5), n(2)).is_empty());
    }

    #[test]
    fn common_neighbors_of_missing_nodes_empty() {
        let g = DynamicGraph::new();
        assert!(g.common_neighbors(n(1), n(2)).is_empty());
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let mut g = DynamicGraph::new();
        g.add_edge(n(1), n(2), 0.1);
        g.add_edge(n(2), n(3), 0.2);
        g.add_edge(n(1), n(3), 0.3);
        let mut edges: Vec<_> = g.edges().map(|(k, _)| k).collect();
        edges.sort();
        assert_eq!(
            edges,
            vec![
                EdgeKey::new(n(1), n(2)),
                EdgeKey::new(n(1), n(3)),
                EdgeKey::new(n(2), n(3))
            ]
        );
    }

    #[test]
    fn set_edge_weight_updates_both_directions() {
        let mut g = DynamicGraph::new();
        g.add_edge(n(1), n(2), 0.1);
        assert!(g.set_edge_weight(n(2), n(1), 0.7));
        assert_eq!(g.edge_weight(n(1), n(2)), Some(0.7));
        assert!(!g.set_edge_weight(n(1), n(3), 0.7));
    }

    #[test]
    fn edge_key_normalises_and_exposes_other() {
        let k = EdgeKey::new(n(5), n(2));
        assert_eq!(k, EdgeKey(n(2), n(5)));
        assert_eq!(k.other(n(2)), Some(n(5)));
        assert_eq!(k.other(n(5)), Some(n(2)));
        assert_eq!(k.other(n(9)), None);
        assert_eq!(k.endpoints(), (n(2), n(5)));
    }

    #[test]
    fn json_round_trip_preserves_contents() {
        let mut g = DynamicGraph::new();
        g.add_edge(n(3), n(1), 0.25);
        g.add_edge(n(1), n(2), 1.0 / 3.0);
        g.add_node(n(9)); // isolated node survives the round trip
        let back = DynamicGraph::from_json(&g.to_json()).unwrap();
        assert_eq!(back, g);
        // The encoding is canonical: a differently-built equal graph
        // serialises to the same string.
        let mut h = DynamicGraph::new();
        h.add_node(n(9));
        h.add_edge(n(1), n(2), 1.0 / 3.0);
        h.add_edge(n(1), n(3), 0.25);
        assert_eq!(
            dengraph_json::to_string(&g.to_json()),
            dengraph_json::to_string(&h.to_json())
        );
    }

    #[test]
    fn json_decode_rejects_malformed_edges() {
        let v = dengraph_json::parse("{\"nodes\":[1],\"edges\":[[1,2]]}").unwrap();
        assert!(DynamicGraph::from_json(&v).is_err());
    }

    #[test]
    fn clear_resets_counts() {
        let mut g = DynamicGraph::new();
        g.add_edge(n(1), n(2), 1.0);
        g.clear();
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
    }
}
