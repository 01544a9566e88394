//! Driving cluster maintenance from AKG deltas.
//!
//! The AKG maintainer (Section 3) reports every structural change it makes
//! as a [`GraphDelta`]; [`ClusterMaintainer`] applies the corresponding
//! Section-5 algorithm for each delta, keeping the cluster registry in sync
//! with the graph at the end of every quantum.
//!
//! ## Per-component sharding
//!
//! The paper's locality argument — dense clusters evolve inside connected
//! components of the AKG — means deltas touching different components are
//! fully independent: they read disjoint neighbourhoods and mutate
//! disjoint clusters.  The sharded paths exploit this by partitioning the
//! quantum's deltas by connected component, processing each shard on the
//! worker pool against its own sub-registry, and merging serially.  Fresh
//! cluster ids are allocated in a placeholder space per shard and
//! renumbered during the merge in `(delta index, allocation order)` —
//! exactly the order the serial loop allocates in — so every sharded path
//! is **bit-identical** to the serial one, cluster ids included
//! (`tests/parallel_determinism.rs` gates it).
//!
//! Two paths derive the partition:
//!
//! * [`ClusterMaintainer::apply_deltas_indexed`] (the hot path) reads the
//!   persistent [`ComponentIndex`] the AKG maintainer keeps in lock step
//!   with the graph, layering a **transient overlay union-find over this
//!   quantum's delta endpoints** on top.  The overlay is what keeps a
//!   deletion repair co-sharded with the cluster it repairs: a live
//!   cluster's edges are a subset of the *pre-quantum* graph, and every
//!   pre-quantum edge is either still in the post-quantum graph (so its
//!   endpoints share a persistent component) or was removed this quantum
//!   (so its endpoints are unioned by its `EdgeRemoved` delta) — hence
//!   every cluster stays inside a single overlay component and no walk
//!   over cluster edges is needed.  Partitioning cost: O(deltas), not
//!   O(AKG edges).
//! * [`ClusterMaintainer::apply_deltas_with`] recomputes the partition
//!   from scratch by unioning every AKG edge plus the delta endpoints and
//!   the live cluster edges — kept as the `ComponentIndexMode::Rebuild`
//!   ablation baseline `tests/parallel_determinism.rs` compares against.

use dengraph_graph::fxhash::FxHashMap;
use dengraph_graph::{ComponentIndex, DynamicGraph, NodeId};
use dengraph_json::{Decode, Encode};
use dengraph_parallel::{par_map_indexed, Parallelism};

use crate::akg::GraphDelta;

use super::addition::edge_addition;
use super::deletion::{edge_deletion, node_deletion};
use super::registry::ClusterRegistry;
use super::{Cluster, ClusterId};

/// Base of the placeholder cluster-id space used by maintenance shards.
/// Real ids are allocated sequentially from 0, so anything at or above the
/// base can only be a placeholder awaiting renumbering.
const PLACEHOLDER_BASE: u64 = 1 << 62;

/// Placeholder id budget per shard and per quantum — far beyond any real
/// allocation count.
const PLACEHOLDER_BLOCK: u64 = 1 << 32;

/// Per-quantum summary of cluster maintenance work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Edge-addition operations processed.
    pub edge_additions: usize,
    /// Edge-deletion operations processed.
    pub edge_deletions: usize,
    /// Node-removal operations processed.
    pub node_removals: usize,
    /// Clusters that were created or merged into during the quantum.
    pub clusters_touched: usize,
}

impl MaintenanceStats {
    /// Streams the object [`Self::to_json`] builds, byte for byte.
    pub fn write_json(&self, w: &mut dengraph_json::JsonWriter<'_>) {
        w.begin_obj();
        w.key("clusters_touched");
        w.u64(self.clusters_touched as u64);
        w.key("edge_additions");
        w.u64(self.edge_additions as u64);
        w.key("edge_deletions");
        w.u64(self.edge_deletions as u64);
        w.key("node_removals");
        w.u64(self.node_removals as u64);
        w.end_obj();
    }
}

impl Encode for MaintenanceStats {
    /// Serialises the statistics to a [`dengraph_json::Value`].
    fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        Value::obj([
            ("edge_additions", Value::from(self.edge_additions)),
            ("edge_deletions", Value::from(self.edge_deletions)),
            ("node_removals", Value::from(self.node_removals)),
            ("clusters_touched", Value::from(self.clusters_touched)),
        ])
    }

    /// Appends the compact binary encoding (four varints).
    fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        w.usize(self.edge_additions);
        w.usize(self.edge_deletions);
        w.usize(self.node_removals);
        w.usize(self.clusters_touched);
    }
}

impl Decode for MaintenanceStats {
    /// Reconstructs statistics serialised by [`Self::to_json`].
    fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        Ok(Self {
            edge_additions: value.get("edge_additions")?.as_usize()?,
            edge_deletions: value.get("edge_deletions")?.as_usize()?,
            node_removals: value.get("node_removals")?.as_usize()?,
            clusters_touched: value.get("clusters_touched")?.as_usize()?,
        })
    }

    /// Reconstructs statistics encoded by [`Self::to_bin`].
    fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        Ok(Self {
            edge_additions: r.usize()?,
            edge_deletions: r.usize()?,
            node_removals: r.usize()?,
            clusters_touched: r.usize()?,
        })
    }
}

/// Applies AKG deltas to the cluster registry.
#[derive(Debug, Default, PartialEq)]
pub struct ClusterMaintainer {
    registry: ClusterRegistry,
    last_stats: MaintenanceStats,
}

impl ClusterMaintainer {
    /// Creates a maintainer with an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the registry.
    pub fn registry(&self) -> &ClusterRegistry {
        &self.registry
    }

    /// Statistics of the most recent [`Self::apply_deltas`] call.
    pub fn last_stats(&self) -> MaintenanceStats {
        self.last_stats
    }

    /// Iterates over all live clusters.
    pub fn clusters(&self) -> impl Iterator<Item = &Cluster> {
        self.registry.clusters()
    }

    /// Number of live clusters.
    pub fn cluster_count(&self) -> usize {
        self.registry.len()
    }

    /// Looks up a cluster.
    pub fn get(&self, id: ClusterId) -> Option<&Cluster> {
        self.registry.get(id)
    }

    /// Applies one quantum's worth of AKG deltas.  `graph` must be the AKG
    /// *after* all deltas have been applied to it (which is how the AKG
    /// maintainer hands it over); Lemma 5 guarantees the per-delta
    /// processing order does not change the final clustering.
    pub fn apply_deltas(&mut self, graph: &DynamicGraph, deltas: &[GraphDelta], quantum: u64) {
        self.apply_deltas_with(graph, deltas, quantum, Parallelism::Serial);
    }

    /// Like [`Self::apply_deltas`], but shards the work by AKG connected
    /// component over the worker pool when `parallelism` allows.  The
    /// sharded path is bit-identical to the serial one — same clusters,
    /// same cluster ids, same statistics.
    pub fn apply_deltas_with(
        &mut self,
        graph: &DynamicGraph,
        deltas: &[GraphDelta],
        quantum: u64,
        parallelism: Parallelism,
    ) {
        let stats = if parallelism.is_parallel() && deltas.len() >= 2 {
            self.apply_deltas_sharded(graph, deltas, quantum, parallelism)
        } else {
            None
        };
        self.finish_quantum(graph, deltas, quantum, stats);
    }

    /// The stage-3 hot path: like [`Self::apply_deltas_with`], but derives
    /// the shard partition from the persistent [`ComponentIndex`] the AKG
    /// maintainer keeps in lock step with `graph`, instead of re-walking
    /// every AKG edge.  A transient union-find over this quantum's delta
    /// endpoints is layered on top of the persistent components so deletion
    /// repairs stay co-sharded with the clusters they repair (see the module
    /// docs for why delta unions alone suffice).  Partitioning is O(deltas);
    /// the result is bit-identical to the serial and from-scratch paths —
    /// same clusters, same cluster ids, same statistics.
    ///
    /// `index` must be the component index of `graph` (i.e. of the
    /// *post-delta* AKG, which is how [`crate::akg::AkgMaintainer`] hands
    /// both over).
    pub fn apply_deltas_indexed(
        &mut self,
        graph: &DynamicGraph,
        index: &ComponentIndex,
        deltas: &[GraphDelta],
        quantum: u64,
        parallelism: Parallelism,
    ) {
        let stats = if parallelism.is_parallel() && deltas.len() >= 2 {
            let mut overlay = DeltaOverlay::new(index);
            for delta in deltas {
                match *delta {
                    GraphDelta::NodeAdded { .. } | GraphDelta::NodeRemoved { .. } => {
                        // Pure node deltas carry no connectivity; their
                        // shard key resolves through the overlay on demand.
                    }
                    GraphDelta::EdgeAdded { a, b, .. }
                    | GraphDelta::EdgeWeightUpdated { a, b, .. }
                    | GraphDelta::EdgeRemoved { a, b } => {
                        overlay.union(a, b);
                    }
                }
            }
            self.partition_and_run(graph, deltas, quantum, parallelism, |n| overlay.root_of(n))
        } else {
            None
        };
        self.finish_quantum(graph, deltas, quantum, stats);
    }

    /// Installs a sharded outcome, or falls back to the serial per-delta
    /// loop when no fan-out happened, then checks registry invariants.
    fn finish_quantum(
        &mut self,
        graph: &DynamicGraph,
        deltas: &[GraphDelta],
        quantum: u64,
        stats: Option<MaintenanceStats>,
    ) {
        let stats = stats.unwrap_or_else(|| {
            let mut stats = MaintenanceStats::default();
            for delta in deltas {
                apply_one_delta(graph, &mut self.registry, *delta, quantum, &mut stats);
            }
            stats
        });
        self.last_stats = stats;
        debug_assert!(
            self.registry.check_invariants().is_ok(),
            "{:?}",
            self.registry.check_invariants()
        );
    }

    /// The from-scratch sharded path (`ComponentIndexMode::Rebuild`).
    /// Returns `None` when the quantum's deltas all live in one connected
    /// component (nothing to fan out); the caller then runs the serial
    /// loop.
    fn apply_deltas_sharded(
        &mut self,
        graph: &DynamicGraph,
        deltas: &[GraphDelta],
        quantum: u64,
        parallelism: Parallelism,
    ) -> Option<MaintenanceStats> {
        // Connected components over the post-delta graph *plus* the delta
        // edges and the live cluster edges: removed structure must still
        // connect, so a deletion repair lands in the same shard as the
        // cluster it repairs.  This walks the whole AKG once per parallel
        // quantum — the cost [`Self::apply_deltas_indexed`] exists to
        // avoid; it is kept as the ablation baseline the determinism
        // suite holds the index to.  (Isolated nodes need no
        // eager `ensure` here: the union-find interns any node the shard
        // grouping or cluster-move loop asks about on demand.)
        let mut components = NodeComponents::default();
        for (key, _) in graph.edges() {
            components.union(key.0, key.1);
        }
        for delta in deltas {
            match *delta {
                GraphDelta::NodeAdded { node } | GraphDelta::NodeRemoved { node } => {
                    components.ensure(node);
                }
                GraphDelta::EdgeAdded { a, b, .. }
                | GraphDelta::EdgeWeightUpdated { a, b, .. }
                | GraphDelta::EdgeRemoved { a, b } => {
                    components.union(a, b);
                }
            }
        }
        for cluster in self.registry.clusters() {
            for e in &cluster.edges {
                components.union(e.0, e.1);
            }
        }
        self.partition_and_run(graph, deltas, quantum, parallelism, |n| {
            components.root(n) as u64
        })
    }

    /// Shared tail of both sharded paths: group the deltas into shards by
    /// the component root `root_of` reports, move affected clusters in,
    /// fan the shards out over the worker pool and merge canonically.
    /// `root_of` must map two nodes to the same key exactly when a single
    /// delta's processing may touch both of their neighbourhoods.
    fn partition_and_run(
        &mut self,
        graph: &DynamicGraph,
        deltas: &[GraphDelta],
        quantum: u64,
        parallelism: Parallelism,
        mut root_of: impl FnMut(NodeId) -> u64,
    ) -> Option<MaintenanceStats> {
        // One shard per component that receives at least one delta,
        // keeping each shard's deltas in stream order.
        let mut shard_of_root: FxHashMap<u64, usize> = FxHashMap::default();
        let mut shards: Vec<Shard> = Vec::new();
        for (idx, delta) in deltas.iter().enumerate() {
            let node = match *delta {
                GraphDelta::NodeAdded { node } | GraphDelta::NodeRemoved { node } => node,
                GraphDelta::EdgeAdded { a, .. }
                | GraphDelta::EdgeWeightUpdated { a, .. }
                | GraphDelta::EdgeRemoved { a, .. } => a,
            };
            let root = root_of(node);
            let shard = *shard_of_root.entry(root).or_insert_with(|| {
                shards.push(Shard::default());
                shards.len() - 1
            });
            shards[shard].deltas.push((idx, *delta));
        }
        if shards.len() < 2 {
            return None;
        }
        // Move every cluster whose component receives deltas into its
        // shard; clusters in untouched components stay in place.
        let cluster_ids: Vec<ClusterId> = {
            let mut ids: Vec<ClusterId> = self.registry.clusters().map(|c| c.id).collect();
            ids.sort_unstable();
            ids
        };
        for id in cluster_ids {
            let node = *self
                .registry
                .get(id)
                .expect("live cluster")
                .nodes
                .iter()
                .next()
                .expect("clusters are non-empty");
            let root = root_of(node);
            if let Some(&shard) = shard_of_root.get(&root) {
                let cluster = self.registry.remove(id).expect("live cluster");
                shards[shard].seeds.push(cluster);
            }
        }

        // Fan the shards out.  Each works on its own sub-registry with a
        // disjoint placeholder id block, recording which delta triggered
        // each fresh-id allocation.
        let outcomes = par_map_indexed(parallelism, &shards, |shard_idx, shard| {
            let mut registry = ClusterRegistry::with_next_id(
                PLACEHOLDER_BASE + shard_idx as u64 * PLACEHOLDER_BLOCK,
            );
            for seed in &shard.seeds {
                registry.install(seed.clone());
            }
            let mut stats = MaintenanceStats::default();
            let mut allocations: Vec<(usize, u64)> = Vec::new();
            for &(delta_idx, delta) in &shard.deltas {
                let before = registry.next_id();
                apply_one_delta(graph, &mut registry, delta, quantum, &mut stats);
                for placeholder in before..registry.next_id() {
                    allocations.push((delta_idx, placeholder));
                }
            }
            (registry, stats, allocations)
        });

        // Canonical merge: renumber placeholder ids in (delta index,
        // allocation order) — the order the serial loop allocates in —
        // then install every shard's clusters back into the registry.
        let mut all_allocations: Vec<(usize, u64)> = outcomes
            .iter()
            .flat_map(|(_, _, allocations)| allocations.iter().copied())
            .collect();
        all_allocations.sort_unstable();
        let mut next_id = self.registry.next_id();
        let final_ids: FxHashMap<u64, u64> = all_allocations
            .into_iter()
            .map(|(_, placeholder)| {
                let id = next_id;
                next_id += 1;
                (placeholder, id)
            })
            .collect();
        let mut total = MaintenanceStats::default();
        for (registry, stats, _) in outcomes {
            total.edge_additions += stats.edge_additions;
            total.edge_deletions += stats.edge_deletions;
            total.node_removals += stats.node_removals;
            total.clusters_touched += stats.clusters_touched;
            for mut cluster in registry.into_clusters() {
                if cluster.id.0 >= PLACEHOLDER_BASE {
                    cluster.id = ClusterId(final_ids[&cluster.id.0]);
                }
                self.registry.install(cluster);
            }
        }
        self.registry.set_next_id(next_id);
        Some(total)
    }
}

impl Encode for ClusterMaintainer {
    /// Serialises the maintainer (registry plus last stats).
    fn to_json(&self) -> dengraph_json::Value {
        dengraph_json::Value::obj([
            ("registry", self.registry.to_json()),
            ("last_stats", self.last_stats.to_json()),
        ])
    }

    /// Appends the compact binary encoding (registry plus last stats).
    fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        self.registry.to_bin(w);
        self.last_stats.to_bin(w);
    }
}

impl Decode for ClusterMaintainer {
    /// Reconstructs a maintainer serialised by [`Self::to_json`].
    fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        Ok(Self {
            registry: ClusterRegistry::from_json(value.get("registry")?)?,
            last_stats: MaintenanceStats::from_json(value.get("last_stats")?)?,
        })
    }

    /// Reconstructs a maintainer encoded by [`Self::to_bin`].
    fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        Ok(Self {
            registry: ClusterRegistry::from_bin(r)?,
            last_stats: MaintenanceStats::from_bin(r)?,
        })
    }
}

/// Applies a single delta against a registry — the shared body of the
/// serial loop and the per-shard loop.
fn apply_one_delta(
    graph: &DynamicGraph,
    registry: &mut ClusterRegistry,
    delta: GraphDelta,
    quantum: u64,
    stats: &mut MaintenanceStats,
) {
    match delta {
        GraphDelta::NodeAdded { .. } => {
            // A node with no edges cannot be in any cluster; its
            // edges (if any) arrive as EdgeAdded deltas.
        }
        GraphDelta::EdgeAdded { a, b, .. } => {
            stats.edge_additions += 1;
            if edge_addition(graph, registry, a, b, quantum).is_some() {
                stats.clusters_touched += 1;
            }
        }
        GraphDelta::EdgeWeightUpdated { .. } => {
            // Weight changes do not affect cluster structure; the
            // ranking function reads weights straight from the graph.
        }
        GraphDelta::EdgeRemoved { a, b } => {
            stats.edge_deletions += 1;
            edge_deletion(registry, a, b, quantum);
        }
        GraphDelta::NodeRemoved { node } => {
            stats.node_removals += 1;
            // Incident edges have already been reported as
            // EdgeRemoved, so normally nothing is left; this call
            // covers direct API use where a node is dropped in one go.
            node_deletion(registry, node, quantum);
        }
    }
}

/// One maintenance shard: the deltas of one connected component (with
/// their global stream indices) plus the component's live clusters.
#[derive(Debug, Default)]
struct Shard {
    deltas: Vec<(usize, GraphDelta)>,
    seeds: Vec<Cluster>,
}

/// Union–find over arbitrary `NodeId`s (interned to dense slots on first
/// touch).
#[derive(Debug, Default)]
struct NodeComponents {
    slots: FxHashMap<NodeId, usize>,
    parent: Vec<usize>,
}

impl NodeComponents {
    fn ensure(&mut self, n: NodeId) -> usize {
        match self.slots.entry(n) {
            std::collections::hash_map::Entry::Occupied(o) => *o.get(),
            std::collections::hash_map::Entry::Vacant(v) => {
                let slot = self.parent.len();
                v.insert(slot);
                self.parent.push(slot);
                slot
            }
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: NodeId, b: NodeId) {
        let (sa, sb) = (self.ensure(a), self.ensure(b));
        let (ra, rb) = (self.find(sa), self.find(sb));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    fn root(&mut self, n: NodeId) -> usize {
        let slot = self.ensure(n);
        self.find(slot)
    }
}

/// Key-space tag for overlay nodes that are absent from the persistent
/// index (i.e. removed from the graph this quantum).  Persistent root
/// slots are dense `u32` indices, so every untagged key stays below it.
const OVERLAY_REMOVED_TAG: u64 = 1 << 32;

/// Transient per-quantum union-find layered on top of the persistent
/// [`ComponentIndex`]: each key is either a persistent component's root
/// slot (for nodes still in the graph) or a tagged raw node id (for nodes
/// removed this quantum, which the index no longer tracks).  Only this
/// quantum's delta endpoints are ever unioned, so its size — and the whole
/// partitioning step — is O(deltas) regardless of AKG size.
struct DeltaOverlay<'a> {
    index: &'a ComponentIndex,
    /// Sparse parent map: a key absent from the map is its own root.
    parent: FxHashMap<u64, u64>,
}

impl<'a> DeltaOverlay<'a> {
    fn new(index: &'a ComponentIndex) -> Self {
        Self {
            index,
            parent: FxHashMap::default(),
        }
    }

    fn key(&self, n: NodeId) -> u64 {
        match self.index.root_slot(n) {
            Some(slot) => u64::from(slot),
            None => OVERLAY_REMOVED_TAG | u64::from(n.0),
        }
    }

    fn find(&mut self, start: u64) -> u64 {
        let mut root = start;
        while let Some(&p) = self.parent.get(&root) {
            root = p;
        }
        // Full path compression: repoint every key on the walked chain.
        let mut cur = start;
        while cur != root {
            let next = self.parent.insert(cur, root).unwrap_or(root);
            cur = next;
        }
        root
    }

    fn union(&mut self, a: NodeId, b: NodeId) {
        let (ka, kb) = (self.key(a), self.key(b));
        let (ra, rb) = (self.find(ka), self.find(kb));
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }

    fn root_of(&mut self, n: NodeId) -> u64 {
        let key = self.key(n);
        self.find(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dengraph_graph::NodeId;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Helper that mirrors what the AKG maintainer does: apply the change to
    /// the graph, then report the delta.
    struct Sim {
        graph: DynamicGraph,
        maintainer: ClusterMaintainer,
        quantum: u64,
    }

    impl Sim {
        fn new() -> Self {
            Self {
                graph: DynamicGraph::new(),
                maintainer: ClusterMaintainer::new(),
                quantum: 0,
            }
        }

        fn add_edge(&mut self, a: u32, b: u32) {
            self.graph.add_edge(n(a), n(b), 1.0);
            self.maintainer.apply_deltas(
                &self.graph.clone(),
                &[GraphDelta::EdgeAdded {
                    a: n(a),
                    b: n(b),
                    weight: 1.0,
                }],
                self.quantum,
            );
        }

        fn remove_edge(&mut self, a: u32, b: u32) {
            self.graph.remove_edge(n(a), n(b));
            self.maintainer.apply_deltas(
                &self.graph.clone(),
                &[GraphDelta::EdgeRemoved { a: n(a), b: n(b) }],
                self.quantum,
            );
        }

        fn remove_node(&mut self, a: u32) {
            let removed = self.graph.remove_node(n(a));
            let mut deltas: Vec<GraphDelta> = removed
                .iter()
                .map(|(e, _)| GraphDelta::EdgeRemoved { a: e.0, b: e.1 })
                .collect();
            deltas.push(GraphDelta::NodeRemoved { node: n(a) });
            self.maintainer
                .apply_deltas(&self.graph.clone(), &deltas, self.quantum);
        }
    }

    #[test]
    fn building_a_triangle_creates_one_cluster() {
        let mut sim = Sim::new();
        sim.add_edge(1, 2);
        sim.add_edge(2, 3);
        assert_eq!(sim.maintainer.cluster_count(), 0);
        sim.add_edge(1, 3);
        assert_eq!(sim.maintainer.cluster_count(), 1);
        let c = sim.maintainer.clusters().next().unwrap();
        assert_eq!(c.sorted_nodes(), vec![n(1), n(2), n(3)]);
    }

    #[test]
    fn growing_and_shrinking_a_cluster() {
        let mut sim = Sim::new();
        for (a, b) in [(1, 2), (2, 3), (1, 3), (3, 4), (4, 1)] {
            sim.add_edge(a, b);
        }
        assert_eq!(sim.maintainer.cluster_count(), 1);
        assert_eq!(sim.maintainer.clusters().next().unwrap().size(), 4);
        // Removing the chord keeps the 4-cycle alive...
        sim.remove_edge(1, 3);
        assert_eq!(sim.maintainer.cluster_count(), 1);
        assert_eq!(sim.maintainer.clusters().next().unwrap().size(), 4);
        // ...but removing a cycle edge dissolves it.
        sim.remove_edge(3, 4);
        assert_eq!(sim.maintainer.cluster_count(), 0);
    }

    #[test]
    fn node_removal_via_deltas_matches_direct_node_deletion() {
        let edges = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5), (1, 4)];
        // Path A: remove node 3 edge by edge (what the AKG emits).
        let mut sim = Sim::new();
        for (a, b) in edges {
            sim.add_edge(a, b);
        }
        sim.remove_node(3);
        // Path B: same construction, then direct NodeDeletion call.
        let mut graph = DynamicGraph::new();
        let mut registry = ClusterRegistry::new();
        for (a, b) in edges {
            graph.add_edge(n(a), n(b), 1.0);
            edge_addition(&graph, &mut registry, n(a), n(b), 0);
        }
        graph.remove_node(n(3));
        node_deletion(&mut registry, n(3), 0);

        let mut a: Vec<Vec<NodeId>> = sim
            .maintainer
            .clusters()
            .map(|c| c.sorted_nodes())
            .collect();
        let mut b: Vec<Vec<NodeId>> = registry.clusters().map(|c| c.sorted_nodes()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn stats_are_tracked() {
        let mut sim = Sim::new();
        sim.add_edge(1, 2);
        sim.add_edge(2, 3);
        sim.add_edge(1, 3);
        assert_eq!(sim.maintainer.last_stats().edge_additions, 1);
        assert_eq!(sim.maintainer.last_stats().clusters_touched, 1);
        sim.remove_edge(1, 3);
        assert_eq!(sim.maintainer.last_stats().edge_deletions, 1);
    }

    /// Builds a multi-component delta stream (several disjoint triangle /
    /// square families growing, merging and dissolving) and checks both
    /// sharded paths — from-scratch partition and persistent-index
    /// partition — are bit-identical to the serial one: clusters, ids,
    /// indexes and stats.  The schedule includes node removals, so
    /// deletion-split quanta (components falling apart) are exercised.
    #[test]
    fn sharded_maintenance_is_bit_identical_to_serial() {
        // Deterministic pseudo-random edge schedule over 6 disjoint node
        // families (components), interleaved so every quantum's delta
        // batch spans several components.
        let mut state = 0x0DDB_1A5Eu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut graph = DynamicGraph::new();
        let mut index = ComponentIndex::new();
        let mut serial = ClusterMaintainer::new();
        let mut sharded = ClusterMaintainer::new();
        let mut indexed = ClusterMaintainer::new();
        for quantum in 0..30u64 {
            let mut deltas: Vec<GraphDelta> = Vec::new();
            // `apply_deltas` is specified against the *post-quantum* graph,
            // so each edge may change at most once per quantum (exactly how
            // the AKG emits deltas).  Node removal goes first; later edge
            // ops skip anything already touched.  The component index is
            // maintained in lock step with the graph, as the AKG
            // maintainer does.
            let mut touched: dengraph_graph::fxhash::FxHashSet<
                dengraph_graph::dynamic_graph::EdgeKey,
            > = Default::default();
            if quantum % 5 == 4 {
                let node = n((next() % 6) as u32 * 100 + (next() % 8) as u32);
                for (e, _) in graph.remove_node(node) {
                    touched.insert(e);
                    deltas.push(GraphDelta::EdgeRemoved { a: e.0, b: e.1 });
                }
                index.remove_node(&graph, node);
                deltas.push(GraphDelta::NodeRemoved { node });
            }
            for _ in 0..6 {
                let family = (next() % 6) as u32 * 100;
                let a = n(family + (next() % 8) as u32);
                let b = n(family + (next() % 8) as u32);
                let choice = next() % 4;
                if a == b || !touched.insert(dengraph_graph::dynamic_graph::EdgeKey::new(a, b)) {
                    continue;
                }
                if choice == 0 && graph.contains_edge(a, b) {
                    graph.remove_edge(a, b);
                    index.remove_edge(&graph, a, b);
                    deltas.push(GraphDelta::EdgeRemoved { a, b });
                } else if !graph.contains_edge(a, b) {
                    graph.add_edge(a, b, 1.0);
                    index.add_edge(a, b);
                    deltas.push(GraphDelta::EdgeAdded { a, b, weight: 1.0 });
                } else {
                    graph.set_edge_weight(a, b, 0.5);
                    deltas.push(GraphDelta::EdgeWeightUpdated { a, b, weight: 0.5 });
                }
            }
            index
                .validate_against(&graph)
                .expect("lock-step index matches graph");
            serial.apply_deltas(&graph, &deltas, quantum);
            sharded.apply_deltas_with(&graph, &deltas, quantum, Parallelism::Threads(4));
            indexed.apply_deltas_indexed(&graph, &index, &deltas, quantum, Parallelism::Threads(4));
            assert_eq!(
                serial, sharded,
                "sharded registry diverged from serial at quantum {quantum}"
            );
            assert_eq!(
                serial, indexed,
                "index-partitioned registry diverged from serial at quantum {quantum}"
            );
            assert!(serial.registry().check_invariants().is_ok());
        }
        assert!(
            serial.cluster_count() > 0 || serial.last_stats().edge_deletions > 0,
            "fixture must exercise real cluster maintenance"
        );
    }

    #[test]
    fn weight_updates_do_not_change_structure() {
        let mut sim = Sim::new();
        sim.add_edge(1, 2);
        sim.add_edge(2, 3);
        sim.add_edge(1, 3);
        let before: Vec<_> = sim
            .maintainer
            .clusters()
            .map(|c| c.sorted_nodes())
            .collect();
        sim.maintainer.apply_deltas(
            &sim.graph.clone(),
            &[GraphDelta::EdgeWeightUpdated {
                a: n(1),
                b: n(2),
                weight: 0.9,
            }],
            1,
        );
        let after: Vec<_> = sim
            .maintainer
            .clusters()
            .map(|c| c.sorted_nodes())
            .collect();
        assert_eq!(before, after);
    }
}
