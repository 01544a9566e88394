//! Cluster storage and indexes.
//!
//! The registry owns all live clusters and maintains two indexes:
//!
//! * `edge → cluster` — an AKG edge belongs to at most one cluster (two
//!   clusters sharing an edge merge, Lemma 6), so this is a plain map;
//! * `node → clusters` — a node may belong to several clusters (two
//!   clusters may share an articulation node, e.g. after the split of
//!   Figure 6), so this is a multimap.

use dengraph_graph::dynamic_graph::EdgeKey;
use dengraph_graph::fxhash::{FxHashMap, FxHashSet};
use dengraph_graph::NodeId;
use dengraph_json::{Decode, Encode};

use super::{Cluster, ClusterId};

/// Owns every live cluster plus the edge and node indexes.
#[derive(Debug, Default, PartialEq)]
pub struct ClusterRegistry {
    clusters: FxHashMap<ClusterId, Cluster>,
    edge_index: FxHashMap<EdgeKey, ClusterId>,
    node_index: FxHashMap<NodeId, FxHashSet<ClusterId>>,
    next_id: u64,
}

impl ClusterRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Returns `true` when no cluster exists.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Iterates over all live clusters in unspecified (hash) order;
    /// deterministic consumers sort by id (the report path does).
    pub fn clusters(&self) -> impl Iterator<Item = &Cluster> {
        // lint: allow(L001, order-free accessor; deterministic consumers sort by cluster id)
        self.clusters.values()
    }

    /// Looks up a cluster by id.
    pub fn get(&self, id: ClusterId) -> Option<&Cluster> {
        self.clusters.get(&id)
    }

    /// The cluster owning this edge, if any.
    pub fn cluster_of_edge(&self, edge: EdgeKey) -> Option<ClusterId> {
        self.edge_index.get(&edge).copied()
    }

    /// The clusters containing this node (possibly several), sorted by id.
    /// The underlying index is an `FxHashSet`; sorting here keeps every
    /// downstream consumer (e.g. the node-deletion repair order, and hence
    /// fresh-id assignment after splits) independent of hash-iteration
    /// order.
    pub fn clusters_of_node(&self, node: NodeId) -> Vec<ClusterId> {
        let mut ids: Vec<ClusterId> = self
            .node_index
            .get(&node)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        ids.sort_unstable();
        ids
    }

    /// Is the node a member of at least one cluster?  (This is the
    /// hysteresis test the AKG maintenance asks about.)
    pub fn is_cluster_member(&self, node: NodeId) -> bool {
        self.node_index.get(&node).is_some_and(|s| !s.is_empty())
    }

    /// Allocates a fresh cluster id.
    fn fresh_id(&mut self) -> ClusterId {
        let id = ClusterId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Inserts a brand-new cluster built from explicit node and edge sets.
    /// Panics (debug assertion) if any edge is already owned by another
    /// cluster — callers must merge first.
    pub fn insert_new(
        &mut self,
        nodes: FxHashSet<NodeId>,
        edges: FxHashSet<EdgeKey>,
        quantum: u64,
    ) -> ClusterId {
        let id = self.fresh_id();
        debug_assert!(
            edges.iter().all(|e| !self.edge_index.contains_key(e)),
            "edge already owned by another cluster"
        );
        // lint: allow(L001, index insertion; the resulting maps are order-independent)
        for e in &edges {
            self.edge_index.insert(*e, id);
        }
        // lint: allow(L001, index insertion; the resulting maps are order-independent)
        for n in &nodes {
            self.node_index.entry(*n).or_default().insert(id);
        }
        self.clusters
            .insert(id, Cluster::new(id, nodes, edges, quantum));
        id
    }

    /// Removes a cluster entirely, cleaning both indexes.
    pub fn remove(&mut self, id: ClusterId) -> Option<Cluster> {
        let cluster = self.clusters.remove(&id)?;
        // lint: allow(L001, index removal; the resulting maps are order-independent)
        for e in &cluster.edges {
            if self.edge_index.get(e) == Some(&id) {
                self.edge_index.remove(e);
            }
        }
        // lint: allow(L001, index removal; the resulting maps are order-independent)
        for n in &cluster.nodes {
            if let Some(set) = self.node_index.get_mut(n) {
                set.remove(&id);
                if set.is_empty() {
                    self.node_index.remove(n);
                }
            }
        }
        Some(cluster)
    }

    /// Absorbs new nodes and edges into the cluster structure: every
    /// existing cluster sharing an edge with `new_edges` is merged with the
    /// new material into a single cluster (Lemma 6).  Returns the id of the
    /// resulting cluster.
    ///
    /// The merge happens in place in the oldest touched cluster: only the
    /// edges and nodes new to it are indexed, and only the clusters merged
    /// away are re-pointed.  `spend_id` is for a caller folding several
    /// short cycles into one call (EdgeAddition): when its first cycle
    /// touched no cluster, the per-cycle chain this call stands for gave
    /// that cycle a fresh id before a later cycle merged it into an older
    /// cluster, so the id is used up here as well and every later id lands
    /// where the chain put it.
    pub fn absorb(
        &mut self,
        new_nodes: &[NodeId],
        new_edges: &[EdgeKey],
        spend_id: bool,
        quantum: u64,
    ) -> ClusterId {
        // Which existing clusters share an edge with the new material?
        let mut touched: Vec<ClusterId> = new_edges
            .iter()
            .filter_map(|e| self.edge_index.get(e).copied())
            .collect();
        touched.sort_unstable();
        touched.dedup();
        // Merge everything into the oldest touched cluster (stable ids keep
        // event tracking simple).
        let Some((&target, merged_away)) = touched.split_first() else {
            let nodes = new_nodes.iter().copied().collect();
            let edges = new_edges.iter().copied().collect();
            return self.insert_new(nodes, edges, quantum);
        };
        if spend_id {
            self.fresh_id();
        }
        let mut cluster = self
            .clusters
            .remove(&target)
            .expect("touched cluster exists");
        for &cid in merged_away {
            let merged = self.clusters.remove(&cid).expect("touched cluster exists");
            // lint: allow(L001, index re-pointing; the resulting maps are order-independent)
            for e in &merged.edges {
                self.edge_index.insert(*e, target);
            }
            // lint: allow(L001, index re-pointing; the resulting maps are order-independent)
            for n in &merged.nodes {
                let ids = self.node_index.get_mut(n).expect("member node is indexed");
                ids.remove(&cid);
                ids.insert(target);
            }
            cluster.born_quantum = cluster.born_quantum.min(merged.born_quantum);
            cluster.edges.extend(merged.edges);
            cluster.nodes.extend(merged.nodes);
        }
        for &e in new_edges {
            if cluster.edges.insert(e) {
                self.edge_index.insert(e, target);
            }
        }
        for &n in new_nodes {
            if cluster.nodes.insert(n) {
                self.node_index.entry(n).or_default().insert(target);
            }
        }
        cluster.born_quantum = cluster.born_quantum.min(quantum);
        cluster.updated_quantum = quantum;
        self.clusters.insert(target, cluster);
        target
    }

    /// The merge as it was before [`Self::absorb`] merged in place, kept
    /// as the reference the one-merge EdgeAddition must match: remove
    /// every touched cluster, then re-index the union under the oldest id.
    #[cfg(test)]
    pub(crate) fn absorb_rebuilding(
        &mut self,
        nodes: FxHashSet<NodeId>,
        edges: FxHashSet<EdgeKey>,
        quantum: u64,
    ) -> ClusterId {
        let mut ids: Vec<ClusterId> = edges
            .iter()
            .filter_map(|e| self.edge_index.get(e).copied())
            .collect();
        if ids.is_empty() {
            return self.insert_new(nodes, edges, quantum);
        }
        ids.sort();
        ids.dedup();
        let target = ids[0];
        let mut all_nodes = nodes;
        let mut all_edges = edges;
        let mut born = quantum;
        for &cid in &ids {
            let c = self.remove(cid).expect("touched cluster exists");
            born = born.min(c.born_quantum);
            all_nodes.extend(c.nodes);
            all_edges.extend(c.edges);
        }
        for e in &all_edges {
            self.edge_index.insert(*e, target);
        }
        for n in &all_nodes {
            self.node_index.entry(*n).or_default().insert(target);
        }
        let mut cluster = Cluster::new(target, all_nodes, all_edges, born);
        cluster.updated_quantum = quantum;
        self.clusters.insert(target, cluster);
        self.next_id = self.next_id.max(target.0 + 1);
        target
    }

    /// Replaces a cluster with zero or more successor clusters (used by the
    /// deletion repair when a cluster shrinks, splits or dissolves).  The
    /// first successor keeps the original id (so long-running events keep a
    /// stable identity across shrinking); the rest get fresh ids.
    pub fn replace_with(
        &mut self,
        id: ClusterId,
        successors: Vec<(FxHashSet<NodeId>, FxHashSet<EdgeKey>)>,
        quantum: u64,
    ) -> Vec<ClusterId> {
        let original = self.remove(id);
        let born = original.as_ref().map_or(quantum, |c| c.born_quantum);
        let mut out = Vec::with_capacity(successors.len());
        for (i, (nodes, edges)) in successors.into_iter().enumerate() {
            if edges.is_empty() || nodes.len() < 3 {
                continue;
            }
            let new_id = if i == 0 { id } else { self.fresh_id() };
            // lint: allow(L001, index insertion; the resulting maps are order-independent)
            for e in &edges {
                self.edge_index.insert(*e, new_id);
            }
            // lint: allow(L001, index insertion; the resulting maps are order-independent)
            for n in &nodes {
                self.node_index.entry(*n).or_default().insert(new_id);
            }
            let mut cluster = Cluster::new(new_id, nodes, edges, born);
            cluster.updated_quantum = quantum;
            self.clusters.insert(new_id, cluster);
            self.next_id = self.next_id.max(new_id.0 + 1);
            out.push(new_id);
        }
        out
    }

    /// The next id [`Self::fresh_id`] would hand out.  Sharded cluster
    /// maintenance uses this to count placeholder allocations.
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Creates an empty registry whose fresh ids start at `base` — the
    /// placeholder id space of one maintenance shard.
    pub(crate) fn with_next_id(base: u64) -> Self {
        Self {
            next_id: base,
            ..Self::new()
        }
    }

    /// Overwrites the fresh-id counter.  Only the sharded-maintenance
    /// merge uses this, after renumbering placeholder ids.
    pub(crate) fn set_next_id(&mut self, next_id: u64) {
        self.next_id = next_id;
    }

    /// Installs a cluster under its existing id, indexing its nodes and
    /// edges, without touching the fresh-id counter.  Used to move
    /// clusters between the global registry and maintenance shards; the
    /// caller guarantees the id and edges collide with nothing present.
    pub(crate) fn install(&mut self, cluster: Cluster) {
        debug_assert!(!self.clusters.contains_key(&cluster.id));
        // lint: allow(L001, index insertion; the resulting maps are order-independent)
        for e in &cluster.edges {
            let previous = self.edge_index.insert(*e, cluster.id);
            debug_assert!(previous.is_none(), "edge owned by two clusters");
        }
        // lint: allow(L001, index insertion; the resulting maps are order-independent)
        for n in &cluster.nodes {
            self.node_index.entry(*n).or_default().insert(cluster.id);
        }
        self.clusters.insert(cluster.id, cluster);
    }

    /// Consumes the registry, returning its clusters sorted by id.  Used
    /// by the sharded-maintenance merge.
    pub(crate) fn into_clusters(self) -> Vec<Cluster> {
        let mut clusters: Vec<Cluster> = self.clusters.into_values().collect();
        clusters.sort_unstable_by_key(|c| c.id);
        clusters
    }

    /// Marks a cluster as updated in `quantum` (e.g. after a weight-only
    /// change relevant to event tracking).
    pub fn touch(&mut self, id: ClusterId, quantum: u64) {
        if let Some(c) = self.clusters.get_mut(&id) {
            c.updated_quantum = quantum;
        }
    }

    /// Removes one edge from a cluster's edge set and the edge index,
    /// without any repair.  Used as the first step of the deletion
    /// algorithms; callers must follow up with a repair.
    pub(crate) fn detach_edge(&mut self, id: ClusterId, edge: EdgeKey) {
        if self.edge_index.get(&edge) == Some(&id) {
            self.edge_index.remove(&edge);
        }
        if let Some(c) = self.clusters.get_mut(&id) {
            c.edges.remove(&edge);
        }
    }

    /// Assembles a registry from decoded parts, rebuilding both indexes
    /// from the cluster contents — the single validation path shared by
    /// the JSON and binary decoders.  Rejects documents whose id space is
    /// inconsistent — a duplicate cluster id, an edge owned by two
    /// clusters, or a `next_id` not strictly above every live id — since
    /// any of those would let a fresh id collide with (and silently
    /// corrupt) an existing cluster after restore.
    fn from_parts(next_id: u64, clusters: Vec<Cluster>) -> dengraph_json::Result<Self> {
        let mut registry = Self::new();
        for cluster in clusters {
            // lint: allow(L001, index rebuild; duplicate-edge rejection fires regardless of order)
            for e in &cluster.edges {
                if registry.edge_index.insert(*e, cluster.id).is_some() {
                    return Err(dengraph_json::JsonError {
                        message: format!("edge {e:?} owned by two serialised clusters"),
                        offset: 0,
                    });
                }
            }
            // lint: allow(L001, index rebuild; the resulting maps are order-independent)
            for n in &cluster.nodes {
                registry
                    .node_index
                    .entry(*n)
                    .or_default()
                    .insert(cluster.id);
            }
            let id = cluster.id;
            if registry.clusters.insert(id, cluster).is_some() {
                return Err(dengraph_json::JsonError {
                    message: format!("cluster id {id} serialised twice"),
                    offset: 0,
                });
            }
        }
        registry.next_id = next_id;
        if let Some(max_id) = registry.clusters.keys().max() {
            if registry.next_id <= max_id.0 {
                return Err(dengraph_json::JsonError {
                    message: format!(
                        "next_id {} is not above the highest live cluster id {max_id}",
                        registry.next_id
                    ),
                    offset: 0,
                });
            }
        }
        Ok(registry)
    }

    /// Checks the internal invariants (each edge owned by exactly the
    /// cluster the index says; node index consistent; clusters satisfy SCP
    /// and have ≥ 3 nodes; `next_id` strictly above every live id so fresh
    /// ids can never collide).  Used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        // lint: allow(L001, validation max-fold; max is order-independent)
        if let Some(max_id) = self.clusters.keys().max() {
            if self.next_id <= max_id.0 {
                return Err(format!(
                    "next_id {} is not above the highest live cluster id {max_id}",
                    self.next_id
                ));
            }
        }
        // lint: allow(L001, validation walk; pass/fail is order-independent and the first error reported is not part of the output contract)
        for (id, c) in &self.clusters {
            if c.nodes.len() < 3 {
                return Err(format!("cluster {id} has fewer than 3 nodes"));
            }
            if !c.satisfies_scp() {
                return Err(format!("cluster {id} violates the short-cycle property"));
            }
            // lint: allow(L001, validation walk; pass/fail is order-independent)
            for e in &c.edges {
                if self.edge_index.get(e) != Some(id) {
                    return Err(format!("edge {e:?} of cluster {id} not indexed to it"));
                }
            }
            // lint: allow(L001, validation walk; pass/fail is order-independent)
            for n in &c.nodes {
                if !self.node_index.get(n).is_some_and(|s| s.contains(id)) {
                    return Err(format!("node {n} of cluster {id} missing from node index"));
                }
            }
        }
        // lint: allow(L001, validation walk; pass/fail is order-independent)
        for (e, id) in &self.edge_index {
            if !self.clusters.get(id).is_some_and(|c| c.edges.contains(e)) {
                return Err(format!("edge index entry {e:?} -> {id} is dangling"));
            }
        }
        // lint: allow(L001, validation walk; pass/fail is order-independent)
        for (n, ids) in &self.node_index {
            for id in ids {
                if !self.clusters.get(id).is_some_and(|c| c.nodes.contains(n)) {
                    return Err(format!("node index entry {n} -> {id} is dangling"));
                }
            }
        }
        Ok(())
    }
}

impl Encode for ClusterRegistry {
    /// Serialises the registry: the next fresh id plus every live cluster,
    /// sorted by id.  The edge and node indexes are derived data and are
    /// rebuilt by [`Self::from_json`].
    fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        let mut ids: Vec<ClusterId> = self.clusters.keys().copied().collect();
        ids.sort_unstable();
        Value::obj([
            ("next_id", Value::from(self.next_id)),
            (
                "clusters",
                Value::arr(ids.into_iter().map(|id| self.clusters[&id].to_json())),
            ),
        ])
    }

    /// Appends the compact binary encoding: the next fresh id plus every
    /// live cluster, sorted by id.
    fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        w.u64(self.next_id);
        let mut ids: Vec<ClusterId> = self.clusters.keys().copied().collect();
        ids.sort_unstable();
        w.usize(ids.len());
        for id in ids {
            self.clusters[&id].to_bin(w);
        }
    }
}

impl Decode for ClusterRegistry {
    /// Reconstructs a registry serialised by [`Self::to_json`] (the
    /// decoded parts go through the validation shared with the binary
    /// decoder).
    fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        let clusters = value
            .get("clusters")?
            .as_arr()?
            .iter()
            .map(Cluster::from_json)
            .collect::<dengraph_json::Result<Vec<_>>>()?;
        Self::from_parts(value.get("next_id")?.as_u64()?, clusters)
    }

    /// Reconstructs a registry encoded by [`Self::to_bin`] (the decoded
    /// parts go through the validation shared with the JSON decoder).
    fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        let next_id = r.u64()?;
        let count = r.seq_len(4)?;
        let mut clusters = Vec::with_capacity(count);
        for _ in 0..count {
            clusters.push(Cluster::from_bin(r)?);
        }
        Self::from_parts(next_id, clusters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn e(a: u32, b: u32) -> EdgeKey {
        EdgeKey::new(n(a), n(b))
    }

    fn triangle(a: u32, b: u32, c: u32) -> (FxHashSet<NodeId>, FxHashSet<EdgeKey>) {
        let nodes = [n(a), n(b), n(c)].into_iter().collect();
        let edges = [e(a, b), e(b, c), e(a, c)].into_iter().collect();
        (nodes, edges)
    }

    #[test]
    fn insert_and_lookup() {
        let mut r = ClusterRegistry::new();
        let (nodes, edges) = triangle(1, 2, 3);
        let id = r.insert_new(nodes, edges, 0);
        assert_eq!(r.len(), 1);
        assert_eq!(r.cluster_of_edge(e(1, 2)), Some(id));
        assert_eq!(r.clusters_of_node(n(1)), vec![id]);
        assert!(r.is_cluster_member(n(2)));
        assert!(!r.is_cluster_member(n(9)));
        assert!(r.check_invariants().is_ok());
    }

    /// A triangle as the node and edge columns [`ClusterRegistry::absorb`]
    /// takes.
    fn triangle_columns(a: u32, b: u32, c: u32) -> ([NodeId; 3], [EdgeKey; 3]) {
        ([n(a), n(b), n(c)], [e(a, b), e(b, c), e(a, c)])
    }

    #[test]
    fn absorb_without_overlap_creates_new_cluster() {
        let mut r = ClusterRegistry::new();
        let (n1, e1) = triangle_columns(1, 2, 3);
        let (n2, e2) = triangle_columns(10, 11, 12);
        let a = r.absorb(&n1, &e1, false, 0);
        let b = r.absorb(&n2, &e2, false, 1);
        assert_ne!(a, b);
        assert_eq!(r.len(), 2);
        assert!(r.check_invariants().is_ok());
    }

    #[test]
    fn absorb_with_shared_edge_merges() {
        let mut r = ClusterRegistry::new();
        let (n1, e1) = triangle_columns(1, 2, 3);
        let a = r.absorb(&n1, &e1, false, 0);
        // Second triangle shares edge (2,3) with the first (Lemma 6).
        let (n2, e2) = triangle_columns(2, 3, 4);
        let b = r.absorb(&n2, &e2, false, 1);
        assert_eq!(a, b, "merge keeps the older cluster's id");
        assert_eq!(r.len(), 1);
        let c = r.get(a).unwrap();
        assert_eq!(c.size(), 4);
        assert_eq!(c.edge_count(), 5);
        assert_eq!(c.born_quantum, 0);
        assert_eq!(c.updated_quantum, 1);
        assert!(r.check_invariants().is_ok());
    }

    #[test]
    fn absorb_merging_two_existing_clusters() {
        let mut r = ClusterRegistry::new();
        let (n1, e1) = triangle_columns(1, 2, 3);
        let (n2, e2) = triangle_columns(5, 6, 7);
        let a = r.absorb(&n1, &e1, false, 0);
        let _b = r.absorb(&n2, &e2, false, 0);
        // A third cluster shares node 6 with the second but no edge.
        let (n3, e3) = triangle_columns(6, 8, 9);
        let c = r.absorb(&n3, &e3, false, 1);
        // New 4-cycle sharing an edge with the first two: 2-3-5-6-2.
        let nodes = [n(2), n(3), n(5), n(6)];
        let edges = [e(2, 3), e(3, 5), e(5, 6), e(6, 2)];
        let merged = r.absorb(&nodes, &edges, false, 2);
        assert_eq!(merged, a);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(merged).unwrap().size(), 6);
        assert_eq!(r.get(merged).unwrap().born_quantum, 0);
        assert_eq!(r.clusters_of_node(n(6)), vec![a, c]);
        assert_eq!(r.cluster_of_edge(e(6, 7)), Some(a));
        assert!(r.check_invariants().is_ok());
    }

    #[test]
    fn absorb_spends_an_id_only_when_it_merges() {
        let mut r = ClusterRegistry::new();
        let (n1, e1) = triangle_columns(1, 2, 3);
        let a = r.absorb(&n1, &e1, false, 0);
        // Merging into `a` uses up the id a per-cycle chain would have
        // given the caller's first cycle.
        let (n2, e2) = triangle_columns(2, 3, 4);
        assert_eq!(r.absorb(&n2, &e2, true, 1), a);
        assert_eq!(r.next_id(), 2);
        // Creating a cluster takes exactly one id either way.
        let (n3, e3) = triangle_columns(10, 11, 12);
        assert_eq!(r.absorb(&n3, &e3, true, 1), ClusterId(2));
        assert_eq!(r.next_id(), 3);
        assert!(r.check_invariants().is_ok());
    }

    #[test]
    fn remove_cleans_indexes() {
        let mut r = ClusterRegistry::new();
        let (nodes, edges) = triangle(1, 2, 3);
        let id = r.insert_new(nodes, edges, 0);
        let removed = r.remove(id).unwrap();
        assert_eq!(removed.size(), 3);
        assert!(r.is_empty());
        assert_eq!(r.cluster_of_edge(e(1, 2)), None);
        assert!(r.clusters_of_node(n(1)).is_empty());
        assert!(r.check_invariants().is_ok());
    }

    #[test]
    fn replace_with_splits_and_keeps_original_id_for_first() {
        let mut r = ClusterRegistry::new();
        // One big cluster: two triangles sharing node 3 (pretend it was valid).
        let nodes: FxHashSet<NodeId> = [n(1), n(2), n(3), n(4), n(5)].into_iter().collect();
        let edges: FxHashSet<EdgeKey> = [e(1, 2), e(2, 3), e(1, 3), e(3, 4), e(4, 5), e(3, 5)]
            .into_iter()
            .collect();
        let id = r.insert_new(nodes, edges, 0);
        let (na, ea) = triangle(1, 2, 3);
        let (nb, eb) = triangle(3, 4, 5);
        let new_ids = r.replace_with(id, vec![(na, ea), (nb, eb)], 5);
        assert_eq!(new_ids.len(), 2);
        assert_eq!(new_ids[0], id);
        assert_ne!(new_ids[1], id);
        assert_eq!(r.len(), 2);
        // Node 3 belongs to both successor clusters.
        assert_eq!(r.clusters_of_node(n(3)).len(), 2);
        assert!(r.check_invariants().is_ok());
    }

    #[test]
    fn replace_with_drops_too_small_successors() {
        let mut r = ClusterRegistry::new();
        let (nodes, edges) = triangle(1, 2, 3);
        let id = r.insert_new(nodes, edges, 0);
        // A successor with only one edge (2 nodes) must be discarded.
        let nodes2: FxHashSet<NodeId> = [n(1), n(2)].into_iter().collect();
        let edges2: FxHashSet<EdgeKey> = [e(1, 2)].into_iter().collect();
        let out = r.replace_with(id, vec![(nodes2, edges2)], 1);
        assert!(out.is_empty());
        assert!(r.is_empty());
        assert!(r.check_invariants().is_ok());
    }

    #[test]
    fn clusters_of_node_is_sorted_by_id() {
        let mut r = ClusterRegistry::new();
        // Many clusters sharing node 1 (pairwise edge-disjoint triangles).
        let mut ids = Vec::new();
        for i in 0..16u32 {
            ids.push(
                r.insert_new(
                    [n(1), n(100 + 2 * i), n(101 + 2 * i)].into_iter().collect(),
                    [
                        e(1, 100 + 2 * i),
                        e(100 + 2 * i, 101 + 2 * i),
                        e(1, 101 + 2 * i),
                    ]
                    .into_iter()
                    .collect(),
                    0,
                ),
            );
        }
        let got = r.clusters_of_node(n(1));
        let mut expected = ids.clone();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn json_decode_rejects_inconsistent_id_spaces() {
        let mut r = ClusterRegistry::new();
        let (nodes, edges) = triangle(1, 2, 3);
        r.insert_new(nodes, edges, 0);
        let good = dengraph_json::to_string(&r.to_json());
        assert!(ClusterRegistry::from_json(&dengraph_json::parse(&good).unwrap()).is_ok());
        // next_id at (or below) a live id would let a fresh id collide.
        let stale = good.replace("\"next_id\":1", "\"next_id\":0");
        assert_ne!(good, stale);
        assert!(ClusterRegistry::from_json(&dengraph_json::parse(&stale).unwrap()).is_err());
    }

    #[test]
    fn ids_are_never_reused() {
        let mut r = ClusterRegistry::new();
        let (nodes, edges) = triangle(1, 2, 3);
        let a = r.insert_new(nodes, edges, 0);
        r.remove(a);
        let (nodes, edges) = triangle(4, 5, 6);
        let b = r.insert_new(nodes, edges, 0);
        assert_ne!(a, b);
    }
}
