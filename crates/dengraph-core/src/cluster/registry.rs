//! Cluster storage and its node index.
//!
//! The registry owns all live clusters, by id, and one index: `node →
//! clusters`, each node's cluster ids strictly ascending.  A node may
//! belong to several clusters (two clusters may share an articulation
//! node, e.g. after the split of Figure 6), so the index holds a list.
//!
//! An AKG edge belongs to at most one cluster (two clusters sharing an
//! edge merge, Lemma 6), and that cluster holds both of its endpoints, so
//! an edge's owner is found without an index of its own:
//! [`ClusterRegistry::cluster_of_edge`] asks the clusters of the edge's
//! first endpoint — usually one or two — which of them has the edge in its
//! sorted edge column.
//!
//! Every edit keeps each cluster's two columns strictly ascending and its
//! nodes the endpoints of its edges: [`ClusterRegistry::absorb`] merges by
//! a sorted union, [`ClusterRegistry::replace_with`] builds each successor
//! from its edge column, and `ClusterRegistry::detach_edge` removes one
//! edge by binary search (the repair that must follow rebuilds the
//! nodes).  [`ClusterRegistry::check_invariants`] checks both, and that no
//! edge has two owners.

use dengraph_graph::dynamic_graph::EdgeKey;
use dengraph_graph::fxhash::FxHashMap;
use dengraph_graph::NodeId;
use dengraph_json::{Decode, Encode};

use super::{endpoints, Cluster, ClusterId};

/// Owns every live cluster plus the node index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterRegistry {
    clusters: FxHashMap<ClusterId, Cluster>,
    /// Each member node's clusters, strictly ascending and never empty.
    node_index: FxHashMap<NodeId, Vec<ClusterId>>,
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
    #[expect(
        clippy::disallowed_methods,
        reason = "order-free accessor; consumers sort by id"
    )]
    pub fn clusters(&self) -> impl Iterator<Item = &Cluster> {
        self.clusters.values()
    }

    /// Looks up a cluster by id.
    pub fn get(&self, id: ClusterId) -> Option<&Cluster> {
        self.clusters.get(&id)
    }

    /// The cluster owning this edge, if any: the one cluster of the edge's
    /// first endpoint whose edge column holds it (Lemma 6 allows no
    /// second).  It reads the edge column, not the node column: after
    /// `detach_edge` the node column keeps the detached edge's endpoints
    /// until the repair runs, and the edge has no owner.
    pub fn cluster_of_edge(&self, edge: EdgeKey) -> Option<ClusterId> {
        self.node_index
            .get(&edge.0)?
            .iter()
            .copied()
            .find(|id| self.clusters.get(id).is_some_and(|c| c.contains_edge(edge)))
    }

    /// The clusters containing this node (possibly several), sorted by id,
    /// so every downstream consumer (e.g. the node-deletion repair order,
    /// and hence fresh-id assignment after splits) is independent of hash
    /// order.
    pub fn clusters_of_node(&self, node: NodeId) -> Vec<ClusterId> {
        self.node_index.get(&node).cloned().unwrap_or_default()
    }

    /// Is the node a member of at least one cluster?  (This is the
    /// hysteresis test the AKG maintenance asks about.)
    pub fn is_cluster_member(&self, node: NodeId) -> bool {
        self.node_index.contains_key(&node)
    }

    /// Allocates a fresh cluster id.
    fn fresh_id(&mut self) -> ClusterId {
        let id = ClusterId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Inserts a brand-new cluster built from node and edge lists (in any
    /// order; [`Cluster::new`] sorts them into columns).  Panics (debug
    /// assertion) if any edge is already owned by another cluster —
    /// callers must merge first.
    pub fn insert_new(
        &mut self,
        nodes: Vec<NodeId>,
        edges: Vec<EdgeKey>,
        quantum: u64,
    ) -> ClusterId {
        let id = self.fresh_id();
        let cluster = Cluster::new(id, nodes, edges, quantum);
        debug_assert!(
            cluster
                .edges
                .iter()
                .all(|&e| self.cluster_of_edge(e).is_none()),
            "edge already owned by another cluster"
        );
        self.index(&cluster);
        self.clusters.insert(id, cluster);
        id
    }

    /// Points the node index at every node of `cluster`.
    fn index(&mut self, cluster: &Cluster) {
        for &n in &cluster.nodes {
            insert_id(self.node_index.entry(n).or_default(), cluster.id);
        }
    }

    /// Removes a cluster entirely, cleaning the node index.
    pub fn remove(&mut self, id: ClusterId) -> Option<Cluster> {
        let cluster = self.clusters.remove(&id)?;
        for n in &cluster.nodes {
            if let Some(ids) = self.node_index.get_mut(n) {
                ids.retain(|&c| c != id);
                if ids.is_empty() {
                    self.node_index.remove(n);
                }
            }
        }
        Some(cluster)
    }

    /// Absorbs new nodes and edges (in any order) into the cluster
    /// structure: every existing cluster sharing an edge with `new_edges`
    /// is merged with the new material into a single cluster (Lemma 6).
    /// Returns the id of the resulting cluster.
    ///
    /// The merge happens in place in the oldest touched cluster, whose
    /// columns take the others' and the new material by a sorted union.
    /// The node index is edited in place: each node of a cluster merged
    /// away swaps that cluster's id for the target's in its own list, and
    /// each new node gains the target's id if it lacks it.
    ///
    /// `spend_id` is for a caller folding several short cycles into one
    /// call (EdgeAddition): when its first cycle touched no cluster, the
    /// per-cycle chain this call stands for gave that cycle a fresh id
    /// before a later cycle merged it into an older cluster, so the id is
    /// used up here as well and every later id lands where the chain put
    /// it.
    #[expect(clippy::expect_used, reason = "touched ids come from the node index")]
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
            .filter_map(|&e| self.cluster_of_edge(e))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        // Merge everything into the oldest touched cluster (stable ids keep
        // event tracking simple).
        let Some((&target, merged_away)) = touched.split_first() else {
            return self.insert_new(new_nodes.to_vec(), new_edges.to_vec(), quantum);
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
            for n in &merged.nodes {
                let ids = self.node_index.get_mut(n).expect("member node is indexed");
                ids.retain(|&c| c != cid);
                insert_id(ids, target);
            }
            cluster.born_quantum = cluster.born_quantum.min(merged.born_quantum);
            union_into(&mut cluster.edges, &merged.edges);
            union_into(&mut cluster.nodes, &merged.nodes);
        }
        union_into(&mut cluster.edges, new_edges);
        union_into(&mut cluster.nodes, new_nodes);
        for &n in new_nodes {
            insert_id(self.node_index.entry(n).or_default(), target);
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
        nodes: Vec<NodeId>,
        edges: Vec<EdgeKey>,
        quantum: u64,
    ) -> ClusterId {
        let mut ids: Vec<ClusterId> = edges
            .iter()
            .filter_map(|&e| self.cluster_of_edge(e))
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
        let mut cluster = Cluster::new(target, all_nodes, all_edges, born);
        cluster.updated_quantum = quantum;
        self.index(&cluster);
        self.clusters.insert(target, cluster);
        self.next_id = self.next_id.max(target.0 + 1);
        target
    }

    /// Replaces a cluster with zero or more successor clusters, each given
    /// by its edge column (used by the deletion repair when a cluster
    /// shrinks, splits or dissolves; a successor's nodes are its edges'
    /// endpoints).  The first successor keeps the original id (so
    /// long-running events keep a stable identity across shrinking); the
    /// rest get fresh ids.  A successor with fewer than three nodes is
    /// dropped.
    pub fn replace_with(
        &mut self,
        id: ClusterId,
        successors: Vec<Vec<EdgeKey>>,
        quantum: u64,
    ) -> Vec<ClusterId> {
        let original = self.remove(id);
        let born = original.as_ref().map_or(quantum, |c| c.born_quantum);
        let mut out = Vec::with_capacity(successors.len());
        for (i, edges) in successors.into_iter().enumerate() {
            let nodes = endpoints(&edges);
            if nodes.len() < 3 {
                continue;
            }
            let new_id = if i == 0 { id } else { self.fresh_id() };
            let mut cluster = Cluster::new(new_id, nodes, edges, born);
            cluster.updated_quantum = quantum;
            self.index(&cluster);
            self.clusters.insert(new_id, cluster);
            self.next_id = self.next_id.max(new_id.0 + 1);
            out.push(new_id);
        }
        out
    }

    /// The next id [`Self::fresh_id`] would hand out; the id-allocation
    /// tests read it.
    #[cfg(test)]
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Removes one edge from a cluster's edge column, without any repair
    /// (the node column and the node index keep the edge's endpoints until
    /// the repair replaces the cluster).  Used as the first step of the
    /// deletion algorithms; callers must follow up with a repair.
    pub(crate) fn detach_edge(&mut self, id: ClusterId, edge: EdgeKey) {
        if let Some(c) = self.clusters.get_mut(&id) {
            if let Ok(row) = c.edges.binary_search(&edge) {
                c.edges.remove(row);
            }
        }
    }

    /// Assembles a registry from decoded parts, rebuilding the node index
    /// from the cluster contents — the single validation path shared by
    /// the JSON and binary decoders (checkpoints and journal snapshots
    /// alike).  Rejects a duplicate cluster id, then runs
    /// [`Self::check_invariants`], the check debug builds assert after
    /// every quantum: every restored cluster is one SCP cluster, no edge
    /// has two owners, and a fresh id can never collide with a live one.
    fn from_parts(next_id: u64, clusters: Vec<Cluster>) -> dengraph_json::Result<Self> {
        let mut registry = Self::new();
        for cluster in clusters {
            registry.index(&cluster);
            let id = cluster.id;
            if registry.clusters.insert(id, cluster).is_some() {
                return Err(dengraph_json::JsonError {
                    message: format!("cluster id {id} serialised twice"),
                    offset: 0,
                });
            }
        }
        registry.next_id = next_id;
        registry
            .check_invariants()
            .map_err(|message| dengraph_json::JsonError { message, offset: 0 })?;
        Ok(registry)
    }

    /// Checks the internal invariants: both columns of every cluster
    /// strictly ascending and its nodes exactly its edges' endpoints; no
    /// edge owned by two clusters (Lemma 6); each node's index list
    /// non-empty, strictly ascending and exactly the clusters holding the
    /// node; every cluster has ≥ 3 nodes and is one SCP cluster
    /// ([`Cluster::satisfies_scp`], one [`dengraph_graph::scp_edge_groups`]
    /// group holding all its edges); `next_id` strictly above every live
    /// id so fresh ids can never collide.  Both decoders end with it, so
    /// every restore runs it; debug builds also assert it after every
    /// quantum.
    #[expect(
        clippy::disallowed_methods,
        clippy::iter_over_hash_type,
        reason = "validation walk; pass/fail is order-independent"
    )]
    pub fn check_invariants(&self) -> Result<(), String> {
        if let Some(max_id) = self.clusters.keys().max() {
            if self.next_id <= max_id.0 {
                return Err(format!(
                    "next_id {} is not above the highest live cluster id {max_id}",
                    self.next_id
                ));
            }
        }
        for (n, ids) in &self.node_index {
            if ids.is_empty() || ids.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!(
                    "node index list of {n} is empty or not strictly ascending"
                ));
            }
            for id in ids {
                if !self.clusters.get(id).is_some_and(|c| c.contains_node(*n)) {
                    return Err(format!("node index entry {n} -> {id} is dangling"));
                }
            }
        }
        for (id, c) in &self.clusters {
            if c.nodes.len() < 3 {
                return Err(format!("cluster {id} has fewer than 3 nodes"));
            }
            if c.edges.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("cluster {id}: edges not strictly ascending"));
            }
            if c.nodes != endpoints(&c.edges) {
                return Err(format!(
                    "cluster {id}: nodes are not exactly its edges' endpoints"
                ));
            }
            if !c.satisfies_scp() {
                return Err(format!("cluster {id} violates the short-cycle property"));
            }
            for n in &c.nodes {
                if self
                    .node_index
                    .get(n)
                    .is_none_or(|ids| ids.binary_search(id).is_err())
                {
                    return Err(format!("node {n} of cluster {id} missing from node index"));
                }
            }
            // The edge's first endpoint lists this cluster, so the lookup
            // finds an owner; another one means two clusters hold the edge.
            for &e in &c.edges {
                if let Some(owner) = self.cluster_of_edge(e).filter(|owner| owner != id) {
                    return Err(format!(
                        "edge {e:?} owned by two clusters, {owner} and {id}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Inserts `id` into the strictly ascending `ids` unless it is there.
fn insert_id(ids: &mut Vec<ClusterId>, id: ClusterId) {
    if let Err(at) = ids.binary_search(&id) {
        ids.insert(at, id);
    }
}

/// Merges `add` (in any order) into the strictly ascending `column`, which
/// stays strictly ascending.
fn union_into<T: Ord + Copy>(column: &mut Vec<T>, add: &[T]) {
    let old = column.len();
    for &x in add {
        if column[..old].binary_search(&x).is_err() {
            column.push(x);
        }
    }
    if column.len() > old {
        column.sort_unstable();
        column.dedup();
    }
}

impl Encode for ClusterRegistry {
    /// Serialises the registry: the next fresh id plus every live cluster,
    /// sorted by id.  The node index is derived data and is rebuilt by
    /// [`Self::from_json`].
    fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        #[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
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
        #[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
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
    use dengraph_graph::fxhash::FxHashSet;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn e(a: u32, b: u32) -> EdgeKey {
        EdgeKey::new(n(a), n(b))
    }

    fn triangle(a: u32, b: u32, c: u32) -> (Vec<NodeId>, Vec<EdgeKey>) {
        (vec![n(a), n(b), n(c)], vec![e(a, b), e(b, c), e(a, c)])
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

    /// A triangle `a < b < c` as the node and edge columns
    /// [`ClusterRegistry::absorb`] takes.
    fn triangle_columns(a: u32, b: u32, c: u32) -> ([NodeId; 3], [EdgeKey; 3]) {
        ([n(a), n(b), n(c)], [e(a, b), e(a, c), e(b, c)])
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
        let edges = [e(2, 3), e(2, 6), e(3, 5), e(5, 6)];
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
        let nodes = vec![n(1), n(2), n(3), n(4), n(5)];
        let edges = vec![e(1, 2), e(2, 3), e(1, 3), e(3, 4), e(4, 5), e(3, 5)];
        let id = r.insert_new(nodes, edges, 0);
        let (_, ea) = triangle(1, 2, 3);
        let (_, eb) = triangle(3, 4, 5);
        let new_ids = r.replace_with(id, vec![ea, eb], 5);
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
        let out = r.replace_with(id, vec![vec![e(1, 2)]], 1);
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
            ids.push(r.insert_new(
                vec![n(1), n(100 + 2 * i), n(101 + 2 * i)],
                vec![
                    e(1, 100 + 2 * i),
                    e(100 + 2 * i, 101 + 2 * i),
                    e(1, 101 + 2 * i),
                ],
                0,
            ));
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

    /// `check_invariants` rejects what Lemma 6 and the node index forbid,
    /// in states built by hand (`insert_new` debug-asserts that no edge is
    /// shared, so no edit reaches them).
    #[test]
    fn check_invariants_rejects_a_shared_edge_and_a_bad_node_list() {
        let mut honest = ClusterRegistry::new();
        let (nodes, edges) = triangle(1, 2, 3);
        let a = honest.insert_new(nodes, edges, 0);
        let (nodes, edges) = triangle(3, 4, 5);
        let b = honest.insert_new(nodes, edges, 0);
        assert!(honest.check_invariants().is_ok());

        // Triangles 1-2-3 and 1-2-4 as two clusters share the edge 1-2.
        let mut shared = honest.clone();
        let (nodes, edges) = triangle(1, 2, 4);
        let c = ClusterId(shared.next_id);
        shared.next_id += 1;
        let cluster = Cluster::new(c, nodes, edges, 0);
        shared.index(&cluster);
        shared.clusters.insert(c, cluster);
        let err = shared.check_invariants().unwrap_err();
        assert!(err.contains("owned by two clusters, c0 and c2"), "{err}");

        // Node 1's list also names `b`, which lacks node 1.
        let mut dangling = honest.clone();
        dangling.node_index.get_mut(&n(1)).unwrap().push(b);
        let err = dangling.check_invariants().unwrap_err();
        assert!(
            err.contains("node index entry n1 -> c1 is dangling"),
            "{err}"
        );

        // Node 3 belongs to both clusters, listed in descending order.
        let mut unsorted = honest.clone();
        *unsorted.node_index.get_mut(&n(3)).unwrap() = vec![b, a];
        let err = unsorted.check_invariants().unwrap_err();
        assert!(err.contains("list of n3 is empty or not strictly"), "{err}");

        // An empty list is a member with no cluster.
        let mut empty = honest.clone();
        empty.node_index.insert(n(9), Vec::new());
        let err = empty.check_invariants().unwrap_err();
        assert!(err.contains("list of n9 is empty"), "{err}");
    }

    /// The registry as sets: what every cluster holds, by id, and the
    /// next id.  Each edit below is written from the registry's docs.
    #[derive(Default)]
    struct Model {
        clusters: std::collections::BTreeMap<u64, (FxHashSet<NodeId>, FxHashSet<EdgeKey>)>,
        next_id: u64,
    }

    impl Model {
        fn fresh(&mut self) -> u64 {
            self.next_id += 1;
            self.next_id - 1
        }

        fn owner(&self, e: EdgeKey) -> Option<u64> {
            self.clusters
                .iter()
                .find(|(_, (_, edges))| edges.contains(&e))
                .map(|(&id, _)| id)
        }

        fn absorb(&mut self, nodes: &[NodeId], edges: &[EdgeKey], spend_id: bool) -> u64 {
            let mut touched: Vec<u64> = edges.iter().filter_map(|&e| self.owner(e)).collect();
            touched.sort_unstable();
            touched.dedup();
            let target = match touched.first() {
                None => self.fresh(),
                Some(&target) => {
                    if spend_id {
                        self.fresh();
                    }
                    target
                }
            };
            let mut merged = self.clusters.remove(&target).unwrap_or_default();
            for id in touched.iter().skip(1) {
                let (n, e) = self.clusters.remove(id).unwrap();
                merged.0.extend(n);
                merged.1.extend(e);
            }
            merged.0.extend(nodes.iter().copied());
            merged.1.extend(edges.iter().copied());
            self.clusters.insert(target, merged);
            target
        }

        fn replace_with(&mut self, id: u64, successors: &[Vec<EdgeKey>]) -> Vec<u64> {
            self.clusters.remove(&id);
            let mut out = Vec::new();
            for (i, edges) in successors.iter().enumerate() {
                let nodes: FxHashSet<NodeId> = edges.iter().flat_map(|e| [e.0, e.1]).collect();
                if nodes.len() < 3 {
                    continue;
                }
                let new_id = if i == 0 { id } else { self.fresh() };
                self.clusters
                    .insert(new_id, (nodes, edges.iter().copied().collect()));
                out.push(new_id);
            }
            out
        }
    }

    /// Random `absorb` / `detach_edge` / `replace_with` scripts: after
    /// every edit both columns of every cluster are strictly ascending, a
    /// cluster whose edges were not detached since it was built has
    /// exactly their endpoints as nodes, and everything matches the set
    /// model — every edge of the universe has the model's owner (none for
    /// a detached edge), and every node the model's clusters.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "set equality and `all` are order-free"
    )]
    fn sorted_columns_match_a_set_model_under_random_scripts() {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_0049);
        let (mut merges, mut splits, mut detaches) = (0, 0, 0);
        for case in 0..60 {
            let universe = rng.gen_range(5..14u32);
            let mut r = ClusterRegistry::new();
            let mut model = Model::default();
            for step in 0..rng.gen_range(10..80u64) {
                let at = format!("case {case} step {step}");
                let live: Vec<ClusterId> = {
                    let mut ids: Vec<ClusterId> = r.clusters.keys().copied().collect();
                    ids.sort_unstable();
                    ids
                };
                let pick = rng.gen_range(0..10u32);
                if pick < 5 || live.is_empty() {
                    // New material: a few random edges and their endpoints,
                    // in random order, as an EdgeAddition might hand over.
                    let mut edges: Vec<EdgeKey> = (0..rng.gen_range(1..6usize))
                        .filter_map(|_| {
                            let (a, b) = (rng.gen_range(0..universe), rng.gen_range(0..universe));
                            (a != b).then(|| e(a, b))
                        })
                        .collect();
                    edges.sort_unstable();
                    edges.dedup();
                    edges.shuffle(&mut rng);
                    let mut nodes: Vec<NodeId> = edges.iter().flat_map(|e| [e.0, e.1]).collect();
                    nodes.sort_unstable();
                    nodes.dedup();
                    nodes.shuffle(&mut rng);
                    let spend_id = rng.gen_bool(0.3);
                    let before = r.len();
                    let got = r.absorb(&nodes, &edges, spend_id, step);
                    assert_eq!(got.0, model.absorb(&nodes, &edges, spend_id), "{at}");
                    if r.len() < before {
                        merges += 1;
                    }
                } else if pick < 7 {
                    let id = live[rng.gen_range(0..live.len())];
                    let edges = &r.get(id).unwrap().edges;
                    if edges.is_empty() {
                        continue;
                    }
                    let edge = edges[rng.gen_range(0..edges.len())];
                    r.detach_edge(id, edge);
                    model.clusters.get_mut(&id.0).unwrap().1.remove(&edge);
                    detaches += 1;
                } else {
                    // Split the edges into up to three random groups.
                    let id = live[rng.gen_range(0..live.len())];
                    let groups = rng.gen_range(0..4);
                    let mut successors: Vec<Vec<EdgeKey>> = vec![Vec::new(); groups];
                    if groups > 0 {
                        for &edge in &r.get(id).unwrap().edges {
                            successors[rng.gen_range(0..groups)].push(edge);
                        }
                    }
                    for group in &mut successors {
                        group.shuffle(&mut rng);
                    }
                    let got = r.replace_with(id, successors.clone(), step);
                    let want = model.replace_with(id.0, &successors);
                    assert_eq!(got.iter().map(|c| c.0).collect::<Vec<_>>(), want, "{at}");
                    splits += usize::from(got.len() > 1);
                }
                assert_eq!(r.next_id(), model.next_id, "{at}");
                assert_eq!(r.len(), model.clusters.len(), "{at}");
                for (&id, (nodes, edges)) in &model.clusters {
                    let c = r.get(ClusterId(id)).unwrap();
                    assert!(c.nodes.windows(2).all(|w| w[0] < w[1]), "{at}: nodes");
                    assert!(c.edges.windows(2).all(|w| w[0] < w[1]), "{at}: edges");
                    assert_eq!(
                        &c.nodes.iter().copied().collect::<FxHashSet<_>>(),
                        nodes,
                        "{at}"
                    );
                    assert_eq!(
                        &c.edges.iter().copied().collect::<FxHashSet<_>>(),
                        edges,
                        "{at}"
                    );
                    let ends: FxHashSet<NodeId> = edges.iter().flat_map(|e| [e.0, e.1]).collect();
                    if &ends == nodes {
                        assert_eq!(c.nodes, endpoints(&c.edges), "{at}: nodes are endpoints");
                    }
                }
                for a in 0..universe {
                    let want: Vec<ClusterId> = model
                        .clusters
                        .iter()
                        .filter(|(_, (nodes, _))| nodes.contains(&n(a)))
                        .map(|(&id, _)| ClusterId(id))
                        .collect();
                    assert_eq!(r.clusters_of_node(n(a)), want, "{at}: clusters of {a}");
                    assert_eq!(r.is_cluster_member(n(a)), !want.is_empty(), "{at}");
                    for b in a + 1..universe {
                        let owner = model.owner(e(a, b)).map(ClusterId);
                        assert_eq!(r.cluster_of_edge(e(a, b)), owner, "{at}: owner of {a}-{b}");
                    }
                }
            }
        }
        // The scripts reach what the columns have to survive.
        assert!(merges > 50, "only {merges} merges");
        assert!(splits > 20, "only {splits} splits");
        assert!(detaches > 100, "only {detaches} detached edges");
    }
}
