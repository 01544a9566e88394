//! The dynamic undirected graph.
//!
//! An adjacency representation tuned for the access pattern of the AKG:
//! very frequent node/edge insertion and deletion, frequent neighbourhood
//! and common-neighbour queries, and per-edge weights (the edge correlation
//! of Section 3.2) that are updated in place.
//!
//! Node ids are dense (the detector's keyword ids come from an interner),
//! so the graph is **indexed by id**: slot `i` of one `Vec` holds node
//! `i`'s neighbourhood, and a presence bitset says which ids are nodes.
//! Every adjacency read is one slot load; no access hashes an id.  The
//! slots and the bitset are sized by the largest id the graph has held
//! (an absent id's slot is an empty `Vec`, which owns no heap memory), so
//! [`DynamicGraph::nodes`] walks the bitset — ascending, in
//! `O(max id / 64 + nodes)` — and a decoder admits an id before anything
//! is sized by it ([`DynamicGraph::from_bin_admitting`]).
//!
//! Each node's neighbourhood is a **sorted dense array** of `(neighbour,
//! weight)` pairs rather than a hash map: AKG degrees stay small (the
//! paper's locality argument), so a membership probe is a branch-friendly
//! binary search over one cache line or two, neighbour iteration is
//! allocation-free and **ascending by id** (callers that need canonical
//! order get it without sorting), and edge insertion/removal is a short
//! `memmove`.  [`DynamicGraph::common_neighbors`] becomes a linear merge
//! of two sorted arrays.

use std::fmt::Display;

use dengraph_json::Encode;

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

/// A dynamic, weighted, undirected graph over dense node ids.
///
/// Equality compares the adjacency *contents* (node set, edge set, edge
/// weights), independent of the insertion history — the relation the
/// checkpoint round-trip tests rely on.  In particular it ignores how far
/// the slots have grown: a graph that once held a large id equals one
/// that never did.
#[derive(Default, Clone)]
pub struct DynamicGraph {
    /// node id -> sorted `(neighbour, weight)` pairs; empty for an id that
    /// is not a node.
    adj: Vec<Vec<(NodeId, f64)>>,
    /// One bit per id, set exactly for the nodes.
    present: Vec<u64>,
    node_count: usize,
    edge_count: usize,
}

/// The ascending node iterator of [`DynamicGraph::nodes`]: the set bits
/// of the presence column, one word at a time.
#[derive(Debug, Clone)]
pub struct Nodes<'a> {
    /// Words not yet loaded.
    words: &'a [u64],
    /// The unvisited set bits of the current word.
    bits: u64,
    /// The id of the current word's bit 0.
    base: u64,
    /// Nodes not yet yielded.
    remaining: usize,
}

impl Iterator for Nodes<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        while self.bits == 0 {
            let (&word, rest) = self.words.split_first()?;
            self.words = rest;
            self.bits = word;
            self.base += 64;
        }
        let id = self.base - 64 + u64::from(self.bits.trailing_zeros());
        self.bits &= self.bits - 1;
        self.remaining -= 1;
        Some(NodeId(id as u32))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Nodes<'_> {}

impl DynamicGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// The adjacency slot of `n`: its sorted `(neighbour, weight)` pairs,
    /// empty when `n` is not a node.
    #[inline]
    fn slot(&self, n: NodeId) -> &[(NodeId, f64)] {
        self.adj.get(n.index()).map_or(&[], Vec::as_slice)
    }

    /// Adds a node with no edges.  Returns `true` if the node was new.
    /// Grows the slots and the presence column to cover `n`.
    pub fn add_node(&mut self, n: NodeId) -> bool {
        if self.contains_node(n) {
            return false;
        }
        let word = n.index() / 64;
        if word >= self.present.len() {
            self.present.resize(word + 1, 0);
        }
        self.present[word] |= 1 << (n.0 % 64);
        if n.index() >= self.adj.len() {
            self.adj.resize_with(n.index() + 1, Vec::new);
        }
        self.node_count += 1;
        true
    }

    /// Removes a node and all its incident edges.  Returns the node's own
    /// adjacency — its former `(neighbour, weight)` pairs, ascending by
    /// neighbour — or an empty vector if the node did not exist.
    pub fn remove_node(&mut self, n: NodeId) -> Vec<(NodeId, f64)> {
        if !self.contains_node(n) {
            return Vec::new();
        }
        self.present[n.index() / 64] &= !(1 << (n.0 % 64));
        self.node_count -= 1;
        let neighbours = std::mem::take(&mut self.adj[n.index()]);
        for &(m, _) in &neighbours {
            let adj_m = &mut self.adj[m.index()];
            if let Ok(pos) = adj_m.binary_search_by_key(&n, |&(k, _)| k) {
                adj_m.remove(pos);
            }
        }
        self.edge_count -= neighbours.len();
        neighbours
    }

    /// Adds (or updates) an undirected edge with the given weight.
    /// Endpoints are created if missing.  Returns `true` if the edge is new.
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
        let new = insert(&mut self.adj[a.index()], b);
        insert(&mut self.adj[b.index()], a);
        if new {
            self.edge_count += 1;
        }
        new
    }

    /// Removes an edge; returns its weight if it existed.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> Option<f64> {
        let adj_a = self.adj.get_mut(a.index())?;
        let pos = adj_a.binary_search_by_key(&b, |&(k, _)| k).ok()?;
        let (_, w) = adj_a.remove(pos);
        let adj_b = &mut self.adj[b.index()];
        if let Ok(pos) = adj_b.binary_search_by_key(&a, |&(k, _)| k) {
            adj_b.remove(pos);
        }
        self.edge_count -= 1;
        Some(w)
    }

    /// Returns the weight of the edge `(a, b)` if present.
    pub fn edge_weight(&self, a: NodeId, b: NodeId) -> Option<f64> {
        let adj_a = self.slot(a);
        adj_a
            .binary_search_by_key(&b, |&(k, _)| k)
            .ok()
            .map(|pos| adj_a[pos].1)
    }

    /// Updates the weight of an existing edge; returns `false` if absent.
    pub fn set_edge_weight(&mut self, a: NodeId, b: NodeId, weight: f64) -> bool {
        let Some(adj_a) = self.adj.get_mut(a.index()) else {
            return false;
        };
        let Ok(pos) = adj_a.binary_search_by_key(&b, |&(k, _)| k) else {
            return false;
        };
        adj_a[pos].1 = weight;
        let adj_b = &mut self.adj[b.index()];
        if let Ok(pos) = adj_b.binary_search_by_key(&a, |&(k, _)| k) {
            adj_b[pos].1 = weight;
        }
        true
    }

    /// Does the graph contain this node?
    #[inline]
    pub fn contains_node(&self, n: NodeId) -> bool {
        self.present
            .get(n.index() / 64)
            .is_some_and(|&word| word >> (n.0 % 64) & 1 == 1)
    }

    /// Does the graph contain this edge?
    pub fn contains_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.slot(a).binary_search_by_key(&b, |&(k, _)| k).is_ok()
    }

    /// Degree of a node (0 if absent).
    pub fn degree(&self, n: NodeId) -> usize {
        self.slot(n).len()
    }

    /// Iterates over the neighbours of `n` in **ascending id order**
    /// (empty if absent).  Callers that need canonical neighbour order can
    /// rely on this without sorting.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.slot(n).iter().map(|&(k, _)| k)
    }

    /// Iterates over `(neighbour, weight)` pairs of `n`, ascending by id.
    pub fn neighbors_weighted(&self, n: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.slot(n).iter().copied()
    }

    /// Returns the common neighbours of `a` and `b`, ascending by id —
    /// a linear merge of the two sorted neighbour arrays.
    pub fn common_neighbors(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        let (na, nb) = (self.slot(a), self.slot(b));
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
        self.node_count
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.node_count == 0
    }

    /// Iterates over all node ids in **ascending order** — a walk of the
    /// presence bits, `O(max id / 64 + nodes)`.
    pub fn nodes(&self) -> Nodes<'_> {
        Nodes {
            words: &self.present,
            bits: 0,
            base: 0,
            remaining: self.node_count,
        }
    }

    /// Iterates over all edges as normalised keys with weights, in
    /// **ascending key order**.  Each undirected edge is yielded exactly
    /// once, from its smaller endpoint's slot.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeKey, f64)> + '_ {
        self.nodes().flat_map(move |a| {
            let nbrs = self.slot(a);
            nbrs[nbrs.partition_point(|&(b, _)| b < a)..]
                .iter()
                .map(move |&(b, w)| (EdgeKey(a, b), w))
        })
    }

    /// Removes everything.
    pub fn clear(&mut self) {
        self.adj.clear();
        self.present.clear();
        self.node_count = 0;
        self.edge_count = 0;
    }

    /// Deep-checks the representation invariants: a presence bit is set
    /// exactly for the ids whose slot belongs to a node (no bit beyond the
    /// slots, an absent id's slot is empty, `node_count` is the number of
    /// set bits); every neighbour list is strictly ascending by id (the
    /// documented canonical order), free of self-loops, symmetric (each
    /// `(a, b, w)` entry has a matching `(b, a, w)` with a
    /// **bit-identical** weight); and `edge_count` equals half the sum of
    /// degrees.
    ///
    /// This is the runtime side of the determinism contract: checkers call
    /// it at quantum boundaries under the `invariants` feature of
    /// `dengraph-core`.  Cost is `O(max id + E log d)`, so it is not meant
    /// for per-message use.
    pub fn validate_invariants(&self) -> Result<(), String> {
        let bits: usize = self.present.iter().map(|w| w.count_ones() as usize).sum();
        if bits != self.node_count {
            return Err(format!(
                "node_count {} disagrees with the {bits} presence bits",
                self.node_count
            ));
        }
        if let Some(stray) = self.nodes().find(|n| n.index() >= self.adj.len()) {
            return Err(format!("node {stray} has a presence bit but no slot"));
        }
        let mut degree_sum = 0usize;
        for (i, nbrs) in self.adj.iter().enumerate() {
            let a = NodeId(i as u32);
            if !self.contains_node(a) {
                if !nbrs.is_empty() {
                    return Err(format!("{a} is not a node but its slot holds edges"));
                }
                continue;
            }
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
                    .slot(b)
                    .binary_search_by_key(&a, |&(n, _)| n)
                    .ok()
                    .map(|i| self.slot(b)[i].1);
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

    /// A graph holding exactly the listed nodes, each vetted by `admit`
    /// before any slot is sized; the slots are then sized once, by the
    /// largest.  Shared by the two decoders.
    fn admitting_nodes<K: Display>(
        ids: &[u32],
        admit: &impl Fn(NodeId) -> Result<K, String>,
    ) -> Result<Self, String> {
        for &id in ids {
            admit(NodeId(id))?;
        }
        let mut graph = DynamicGraph::new();
        if let Some(&max) = ids.iter().max() {
            graph.adj.resize_with(max as usize + 1, Vec::new);
            graph.present.resize(max as usize / 64 + 1, 0);
        }
        for &id in ids {
            graph.add_node(NodeId(id));
        }
        Ok(graph)
    }

    /// Adds one decoded edge, which must join two distinct listed nodes
    /// (so it sizes nothing).  Shared by the two decoders.
    fn add_decoded_edge<K: Display>(
        &mut self,
        a: u32,
        b: u32,
        weight: f64,
        admit: &impl Fn(NodeId) -> Result<K, String>,
    ) -> Result<(), String> {
        let (a, b) = (NodeId(a), NodeId(b));
        for n in [a, b] {
            if !self.contains_node(n) {
                let name = admit(n)?;
                return Err(format!(
                    "an encoded edge names {name}, which is not a listed node"
                ));
            }
        }
        if a == b {
            return Err(format!("self-loop at {} in encoded graph", admit(a)?));
        }
        self.add_edge(a, b, weight);
        Ok(())
    }

    /// Reconstructs a graph serialised by [`Encode::to_json`].  `admit`
    /// vets every listed node before anything is sized by its id: it
    /// returns the node's name in the caller's vocabulary (used in error
    /// messages) or the reason the id cannot be a node.  Every edge must
    /// join two distinct listed nodes.
    pub fn from_json_admitting<K: Display>(
        value: &dengraph_json::Value,
        admit: impl Fn(NodeId) -> Result<K, String>,
    ) -> dengraph_json::Result<Self> {
        let failed = |message| dengraph_json::JsonError { message, offset: 0 };
        let ids = value
            .get("nodes")?
            .as_arr()?
            .iter()
            .map(dengraph_json::Value::as_u32)
            .collect::<dengraph_json::Result<Vec<u32>>>()?;
        let mut graph = Self::admitting_nodes(&ids, &admit).map_err(failed)?;
        for edge in value.get("edges")?.as_arr()? {
            let parts = edge.as_arr()?;
            if parts.len() != 3 {
                return Err(failed(format!("edge triple has {} elements", parts.len())));
            }
            graph
                .add_decoded_edge(
                    parts[0].as_u32()?,
                    parts[1].as_u32()?,
                    parts[2].as_f64()?,
                    &admit,
                )
                .map_err(failed)?;
        }
        Ok(graph)
    }

    /// Reconstructs a graph encoded by [`Encode::to_bin`], vetting node
    /// ids and edges exactly like [`Self::from_json_admitting`].
    pub fn from_bin_admitting<K: Display>(
        r: &mut dengraph_json::BinReader<'_>,
        admit: impl Fn(NodeId) -> Result<K, String>,
    ) -> dengraph_json::Result<Self> {
        let ids = r.delta_u32s()?;
        let mut graph =
            Self::admitting_nodes(&ids, &admit).map_err(|message| dengraph_json::JsonError {
                message,
                offset: r.pos(),
            })?;
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
            graph
                .add_decoded_edge(a, b, weight, &admit)
                .map_err(|message| dengraph_json::JsonError {
                    message,
                    offset: r.pos(),
                })?;
        }
        Ok(graph)
    }
}

impl PartialEq for DynamicGraph {
    fn eq(&self, other: &Self) -> bool {
        self.node_count == other.node_count
            && self.edge_count == other.edge_count
            && self.nodes().eq(other.nodes())
            && self.nodes().all(|n| self.slot(n) == other.slot(n))
    }
}

impl std::fmt::Debug for DynamicGraph {
    /// Each node with its adjacency, ascending; empty slots are left out.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.nodes().map(|n| (n, self.slot(n))))
            .finish()
    }
}

impl Encode for DynamicGraph {
    /// Serialises the graph to a [`dengraph_json::Value`]: the ascending
    /// node list plus the ascending `[a, b, weight]` edge list.  The
    /// output is canonical — two graphs with equal contents serialise
    /// identically, regardless of how they were populated.
    fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        Value::obj([
            ("nodes", Value::arr(self.nodes().map(|n| Value::from(n.0)))),
            (
                "edges",
                Value::arr(self.edges().map(|(k, w)| {
                    Value::arr([Value::from(k.0 .0), Value::from(k.1 .0), Value::from(w)])
                })),
            ),
        ])
    }

    /// Appends the compact binary encoding: the delta-encoded ascending
    /// node column, then the edge list ascending by key with the first
    /// endpoint delta-encoded (edges in `EdgeKey` order repeat their first
    /// endpoint in runs, so it compresses to near one byte per edge).
    fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        w.delta_u32s(self.nodes().map(|n| n.0));
        w.usize(self.edge_count);
        let mut prev_a = 0u32;
        for (i, (key, weight)) in self.edges().enumerate() {
            w.u32(if i == 0 { key.0 .0 } else { key.0 .0 - prev_a });
            prev_a = key.0 .0;
            w.u32(key.1 .0);
            w.f64(weight);
        }
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
        assert_eq!(removed, vec![(n(3), 1.0)]);
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
        let back = DynamicGraph::from_json_admitting(&g.to_json(), admit_all).unwrap();
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
        assert!(DynamicGraph::from_json_admitting(&v, admit_all).is_err());
    }

    /// Names a node `kN`, and admits only ids below 100.
    fn admit_below_100(node: NodeId) -> Result<String, String> {
        if node.0 < 100 {
            Ok(format!("k{}", node.0))
        } else {
            Err(format!("k{} is not live", node.0))
        }
    }

    fn decode_both(g: &DynamicGraph) -> [dengraph_json::Result<DynamicGraph>; 2] {
        let mut w = dengraph_json::BinWriter::new();
        g.to_bin(&mut w);
        let mut r = dengraph_json::BinReader::new(w.as_slice());
        [
            DynamicGraph::from_json_admitting(&g.to_json(), admit_below_100),
            DynamicGraph::from_bin_admitting(&mut r, admit_below_100),
        ]
    }

    #[test]
    fn both_decoders_round_trip_admitted_graphs() {
        let mut g = DynamicGraph::new();
        g.add_edge(n(3), n(1), 0.25);
        g.add_edge(n(99), n(1), 0.5);
        g.add_node(n(64));
        for back in decode_both(&g) {
            assert_eq!(back.unwrap(), g);
        }
    }

    /// An id the admission refuses fails the decode with the admission's
    /// message, before a slot is sized by it: `u32::MAX` slots would take
    /// 96 GiB.
    #[test]
    fn both_decoders_reject_an_unadmitted_node_before_sizing() {
        let mut g = DynamicGraph::new();
        g.add_edge(n(1), n(2), 0.5);
        let mut w = dengraph_json::BinWriter::new();
        w.delta_u32s([1u32, 2, u32::MAX].into_iter());
        w.usize(0);
        let mut r = dengraph_json::BinReader::new(w.as_slice());
        let err = DynamicGraph::from_bin_admitting(&mut r, admit_below_100).unwrap_err();
        assert!(
            err.message.contains("k4294967295 is not live"),
            "{}",
            err.message
        );
        let v = dengraph_json::parse("{\"nodes\":[1,4294967295],\"edges\":[]}").unwrap();
        let err = DynamicGraph::from_json_admitting(&v, admit_below_100).unwrap_err();
        assert!(
            err.message.contains("k4294967295 is not live"),
            "{}",
            err.message
        );
    }

    /// An edge must join two listed nodes: an admissible but unlisted
    /// endpoint is named, an inadmissible one fails its admission, and a
    /// self-loop is refused instead of tripping `add_edge`'s assertion.
    #[test]
    fn both_decoders_reject_edges_off_the_node_list() {
        for (edges, expected) in [
            ("[[1,7,0.5]]", "names k7, which is not a listed node"),
            ("[[1,700,0.5]]", "k700 is not live"),
            ("[[1,1,0.5]]", "self-loop at k1"),
        ] {
            let text = format!("{{\"nodes\":[1,2],\"edges\":{edges}}}");
            let err = DynamicGraph::from_json_admitting(
                &dengraph_json::parse(&text).unwrap(),
                admit_below_100,
            )
            .unwrap_err();
            assert!(err.message.contains(expected), "{edges}: {}", err.message);
        }
        // The binary edge list of a graph over 1 and 2 whose edge names 7.
        let mut w = dengraph_json::BinWriter::new();
        w.delta_u32s([1u32, 2].into_iter());
        w.usize(1);
        w.u32(1);
        w.u32(7);
        w.f64(0.5);
        let mut r = dengraph_json::BinReader::new(w.as_slice());
        let err = DynamicGraph::from_bin_admitting(&mut r, admit_below_100).unwrap_err();
        assert!(
            err.message.contains("names k7, which is not a listed node"),
            "{}",
            err.message
        );
    }

    /// Admits every id, naming it as the graph does.
    fn admit_all(node: NodeId) -> Result<NodeId, String> {
        Ok(node)
    }

    /// `DynamicGraph` against a `BTreeMap` reference under seeded random
    /// scripts: node and edge insertion and removal, weight updates and
    /// removed ids coming back, over ids clustered near zero and spread
    /// over 0..70 000.  Every few steps the queries, the ascending
    /// iterators and the invariants are compared; at the end the graph
    /// must equal (and encode like) one built from the reference in
    /// another order.
    #[test]
    fn the_graph_matches_a_btreemap_reference() {
        type Reference =
            std::collections::BTreeMap<NodeId, std::collections::BTreeMap<NodeId, f64>>;
        let mut state = 0x06EA_F5EEDu64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        for case in 0..60u64 {
            let spread = case % 2 == 1;
            let ids: Vec<u32> = (0..24)
                .map(|_| {
                    if spread {
                        next(70_000) as u32
                    } else {
                        next(40) as u32
                    }
                })
                .collect();
            let pick = |next: &mut dyn FnMut(u64) -> u64| n(ids[next(ids.len() as u64) as usize]);
            let mut g = DynamicGraph::new();
            let mut reference = Reference::new();
            for step in 0..400 {
                let (a, b) = (pick(&mut next), pick(&mut next));
                match next(8) {
                    0 => {
                        let new = !reference.contains_key(&a);
                        reference.entry(a).or_default();
                        assert_eq!(g.add_node(a), new);
                    }
                    1 => {
                        let expected: Vec<(NodeId, f64)> = reference
                            .remove(&a)
                            .map(|nbrs| nbrs.into_iter().collect())
                            .unwrap_or_default();
                        for &(m, _) in &expected {
                            if let Some(row) = reference.get_mut(&m) {
                                row.remove(&a);
                            }
                        }
                        assert_eq!(g.remove_node(a), expected);
                    }
                    2 => {
                        let expected = reference.get_mut(&a).and_then(|row| row.remove(&b));
                        if let (Some(_), Some(row)) = (expected, reference.get_mut(&b)) {
                            row.remove(&a);
                        }
                        assert_eq!(g.remove_edge(a, b), expected);
                    }
                    3 => {
                        let w = next(1000) as f64 / 1000.0;
                        let exists = reference.get(&a).is_some_and(|row| row.contains_key(&b));
                        if exists {
                            reference.entry(a).or_default().insert(b, w);
                            reference.entry(b).or_default().insert(a, w);
                        }
                        assert_eq!(g.set_edge_weight(a, b, w), exists);
                    }
                    _ if a != b => {
                        let w = next(1000) as f64 / 1000.0;
                        let new = !reference.get(&a).is_some_and(|row| row.contains_key(&b));
                        reference.entry(a).or_default().insert(b, w);
                        reference.entry(b).or_default().insert(a, w);
                        assert_eq!(g.add_edge(a, b, w), new);
                    }
                    _ => {}
                }
                if step % 20 != 19 {
                    continue;
                }
                assert_eq!(g.validate_invariants(), Ok(()), "case {case} step {step}");
                assert_eq!(g.node_count(), reference.len());
                assert!(
                    g.nodes().eq(reference.keys().copied()),
                    "case {case}: nodes"
                );
                let edges: Vec<(EdgeKey, f64)> = reference
                    .iter()
                    .flat_map(|(&x, row)| row.range(x..).map(move |(&y, &w)| (EdgeKey(x, y), w)))
                    .collect();
                assert_eq!(g.edges().collect::<Vec<_>>(), edges, "case {case}: edges");
                assert_eq!(g.edge_count(), edges.len());
                let empty = std::collections::BTreeMap::new();
                let row = |x: NodeId| reference.get(&x).unwrap_or(&empty);
                for &x in &ids {
                    let x = n(x);
                    assert_eq!(g.contains_node(x), reference.contains_key(&x));
                    assert_eq!(g.degree(x), row(x).len());
                    assert!(g
                        .neighbors_weighted(x)
                        .eq(row(x).iter().map(|(&y, &w)| (y, w))));
                    let y = pick(&mut next);
                    let common: Vec<NodeId> = row(x)
                        .keys()
                        .filter(|z| row(y).contains_key(z))
                        .copied()
                        .collect();
                    assert_eq!(g.common_neighbors(x, y), common);
                }
            }
            // The same contents built another way: every node first,
            // then the edges from the largest key down.
            let mut h = DynamicGraph::new();
            for &x in reference.keys().rev() {
                h.add_node(x);
            }
            for (key, w) in g.edges().collect::<Vec<_>>().into_iter().rev() {
                h.add_edge(key.1, key.0, w);
            }
            assert_eq!(h, g, "case {case}: equality depends on history");
            assert_eq!(
                dengraph_json::to_string(&h.to_json()),
                dengraph_json::to_string(&g.to_json())
            );
            // A graph that once held a larger id still equals it.
            h.add_node(n(69_999));
            h.remove_node(n(69_999));
            assert_eq!(h, g);
        }
    }

    #[test]
    fn validate_invariants_checks_the_presence_bits() {
        let mut g = DynamicGraph::new();
        g.add_edge(n(1), n(70), 0.5);
        assert_eq!(g.validate_invariants(), Ok(()));
        let mut counted = g.clone();
        counted.node_count = 3;
        assert!(counted
            .validate_invariants()
            .unwrap_err()
            .contains("presence bits"));
        let mut stray = g.clone();
        stray.present[0] &= !(1 << 1);
        stray.node_count -= 1;
        assert!(stray
            .validate_invariants()
            .unwrap_err()
            .contains("n1 is not a node but its slot holds edges"));
        let mut beyond = g.clone();
        beyond.present.push(1);
        beyond.node_count += 1;
        assert!(beyond
            .validate_invariants()
            .unwrap_err()
            .contains("no slot"));
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
