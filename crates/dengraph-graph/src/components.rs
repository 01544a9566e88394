//! Persistent, incrementally maintained connected-component index.
//!
//! The sharded cluster-maintenance stage partitions each quantum's work by
//! AKG connected component.  Recomputing that partition from scratch costs
//! O(AKG edges) per parallel quantum; this module maintains it
//! incrementally from the same mutations that drive the graph, making the
//! per-quantum partition cost O(deltas) instead.
//!
//! # Structure
//!
//! A union-find over interned node slots, with three extras the stage-3
//! consumer needs:
//!
//! * **per-component node and edge counts**, kept at the root slot, so the
//!   deletion path can tell a split from a surviving cycle without
//!   re-walking the component;
//! * a **circular `next`-pointer member cycle** per component (the classic
//!   linked-list augmentation): unioning two components splices their
//!   cycles in O(1), and enumerating the members of one component is
//!   O(component) without touching the rest of the index;
//! * an **epoch-stamped visited column** plus retained scratch buffers, so
//!   steady-state maintenance performs no heap allocation.
//!
//! # Deletion strategy: rebuild-on-split, scoped to the component
//!
//! Insertions are trivial for union-find; deletions are not.  Of the two
//! standard options — a fully dynamic spanning forest (Holm et al.-style,
//! poly-log updates, heavy constant factors and code) versus
//! **rebuild-on-split scoped to the affected component** — this module
//! deliberately implements the latter:
//!
//! * [`ComponentIndex::remove_edge`] BFSes the *post-removal* graph from
//!   one endpoint.  If it reaches the other endpoint the component
//!   survived (a cycle absorbed the deletion) and only the edge count
//!   changes; otherwise the component split into exactly two connected
//!   parts, and one pass over the old member cycle re-parents both sides
//!   and rebuilds both cycles.
//! * [`ComponentIndex::remove_node`] re-fragments the remaining members of
//!   the removed node's component (node removal can shatter a star into
//!   arbitrarily many fragments), again touching only that component.
//!
//! AKG components are small by design (the paper's locality argument), so
//! a scoped BFS on the occasional split is far cheaper in practice — and
//! in code — than maintaining a spanning forest; a spanning-forest
//! structure remains the documented follow-up if component sizes ever stop
//! being small.  Either way the cost is bounded by the affected component,
//! never the whole graph.
//!
//! # Canonical serialization
//!
//! The wire encodings ([`ComponentIndex`]'s [`dengraph_json::Encode`]
//! impl) are **canonical**: sorted member lists,
//! components ordered by their smallest member, plus the edge count.  Slot
//! numbering and union-find shape never leak into the bytes, so two
//! indexes describing the same partition — e.g. one maintained
//! incrementally and one rebuilt after a checkpoint restore — encode
//! byte-identically, which is what keeps checkpoint/journal round trips
//! bit-identical.

use dengraph_json::{Decode, Encode};

use crate::dynamic_graph::{DynamicGraph, EdgeKey};
use crate::fxhash::FxHashMap;
use crate::node::NodeId;

/// An incrementally maintained connected-component index over a
/// [`DynamicGraph`].  See the module docs for structure and the deletion
/// strategy.
///
/// The index is maintained in lock step with the graph: call
/// [`add_node`](Self::add_node) / [`add_edge`](Self::add_edge) when the
/// graph gains a node or edge, and [`remove_edge`](Self::remove_edge) /
/// [`remove_node`](Self::remove_node) **after** the corresponding graph
/// mutation (the deletion paths BFS the post-removal graph).
#[derive(Debug, Default, Clone)]
pub struct ComponentIndex {
    /// node -> slot.  Slots are dense indices into the columns below.
    slots: FxHashMap<NodeId, u32>,
    /// Union-find parent per slot (roots point to themselves).
    parent: Vec<u32>,
    /// Circular member list per component: following `next` from any slot
    /// visits every member of its component exactly once.
    next: Vec<u32>,
    /// Slot -> node id (inverse of `slots`).
    node_of: Vec<NodeId>,
    /// Component node count, valid at root slots only.
    node_count: Vec<u32>,
    /// Component edge count, valid at root slots only.
    edge_count: Vec<u32>,
    /// Recycled slots of removed nodes.
    free: Vec<u32>,
    /// Number of live components (O(1) accessor, kept by every mutation).
    components: usize,
    /// Epoch-stamped visited column: slot is visited iff
    /// `visited[slot] == epoch`.  Bumping `epoch` clears the column in
    /// O(1) without writing it.
    visited: Vec<u64>,
    epoch: u64,
    /// Retained BFS queue (doubles as the fragment member list).
    queue: Vec<u32>,
    /// Retained member-cycle scratch for the deletion paths.
    cycle: Vec<u32>,
}

impl ComponentIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the index from scratch over a graph, in canonical (sorted)
    /// insertion order so the internal layout is deterministic.
    pub fn from_graph(graph: &DynamicGraph) -> Self {
        let mut index = Self::new();
        let mut nodes: Vec<NodeId> = graph.nodes().collect();
        nodes.sort_unstable();
        for n in nodes {
            index.add_node(n);
        }
        let mut edges: Vec<EdgeKey> = graph.edges().map(|(k, _)| k).collect();
        edges.sort_unstable();
        for k in edges {
            index.add_edge(k.0, k.1);
        }
        index
    }

    /// Number of indexed nodes.
    pub fn node_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of live components.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Returns `true` when no nodes are indexed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Is this node indexed?
    pub fn contains(&self, n: NodeId) -> bool {
        self.slots.contains_key(&n)
    }

    /// Removes everything (retaining allocated capacity).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.parent.clear();
        self.next.clear();
        self.node_of.clear();
        self.node_count.clear();
        self.edge_count.clear();
        self.free.clear();
        self.visited.clear();
        self.components = 0;
        self.epoch = 0;
    }

    fn alloc_slot(&mut self, n: NodeId) -> u32 {
        if let Some(s) = self.free.pop() {
            let i = s as usize;
            self.parent[i] = s;
            self.next[i] = s;
            self.node_of[i] = n;
            self.node_count[i] = 1;
            self.edge_count[i] = 0;
            self.visited[i] = 0;
            return s;
        }
        let s = self.parent.len() as u32;
        self.parent.push(s);
        self.next.push(s);
        self.node_of.push(n);
        self.node_count.push(1);
        self.edge_count.push(0);
        self.visited.push(0);
        s
    }

    /// Read-only find: no path compression, so it works through `&self`
    /// while stage 3 borrows the index immutably.  Union-by-size bounds
    /// the walk at O(log component).
    fn find(&self, mut s: u32) -> u32 {
        while self.parent[s as usize] != s {
            s = self.parent[s as usize];
        }
        s
    }

    /// Mutating find with path halving.
    fn find_mut(&mut self, mut s: u32) -> u32 {
        while self.parent[s as usize] != s {
            let grandparent = self.parent[self.parent[s as usize] as usize];
            self.parent[s as usize] = grandparent;
            s = grandparent;
        }
        s
    }

    /// Root slot of a node's component, or `None` if the node is not
    /// indexed.  The value is stable between mutations — equal root slots
    /// mean same component — which is what the stage-3 shard overlay keys
    /// on.
    pub fn root_slot(&self, n: NodeId) -> Option<u32> {
        self.slots.get(&n).map(|&s| self.find(s))
    }

    /// Are both nodes present and in the same component?
    pub fn same_component(&self, a: NodeId, b: NodeId) -> bool {
        match (self.slots.get(&a), self.slots.get(&b)) {
            (Some(&sa), Some(&sb)) => self.find(sa) == self.find(sb),
            _ => false,
        }
    }

    /// `(nodes, edges)` of the component containing `n`.
    pub fn component_counts(&self, n: NodeId) -> Option<(u32, u32)> {
        let root = self.root_slot(n)? as usize;
        Some((self.node_count[root], self.edge_count[root]))
    }

    /// Calls `f` with every member of `n`'s component (including `n`), in
    /// unspecified order, by walking the member cycle — O(component).
    pub fn for_each_member(&self, n: NodeId, mut f: impl FnMut(NodeId)) {
        let Some(&start) = self.slots.get(&n) else {
            return;
        };
        let mut s = start;
        loop {
            f(self.node_of[s as usize]);
            s = self.next[s as usize];
            if s == start {
                break;
            }
        }
    }

    /// Indexes a node as a fresh singleton component.  Returns `true` if
    /// the node was new.
    pub fn add_node(&mut self, n: NodeId) -> bool {
        if self.slots.contains_key(&n) {
            return false;
        }
        let s = self.alloc_slot(n);
        self.slots.insert(n, s);
        self.components += 1;
        true
    }

    /// Records a **new** graph edge `(a, b)`: unions the two components
    /// (splicing their member cycles in O(1)) or, if already joined,
    /// increments the component's edge count.  Missing endpoints are
    /// indexed first.  Weight updates to an existing edge must *not* be
    /// reported here.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) {
        self.add_node(a);
        self.add_node(b);
        let (Some(&sa), Some(&sb)) = (self.slots.get(&a), self.slots.get(&b)) else {
            return; // unreachable: both were just ensured
        };
        let ra = self.find_mut(sa);
        let rb = self.find_mut(sb);
        if ra == rb {
            self.edge_count[ra as usize] += 1;
            return;
        }
        let (big, small) = if self.node_count[ra as usize] >= self.node_count[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.node_count[big as usize] += self.node_count[small as usize];
        self.edge_count[big as usize] += self.edge_count[small as usize] + 1;
        // Splice the two member cycles: swapping the successors of one
        // member from each cycle concatenates them.
        self.next.swap(big as usize, small as usize);
        self.components -= 1;
    }

    /// Records the removal of edge `(a, b)`, **after** it was removed from
    /// `graph`.  BFSes the post-removal graph from `a`, scoped to the old
    /// component: if `b` is reached the component survived and only the
    /// edge count drops; otherwise the component split into exactly two
    /// connected parts and both are rebuilt in one pass over the old
    /// member cycle.
    pub fn remove_edge(&mut self, graph: &DynamicGraph, a: NodeId, b: NodeId) {
        let (Some(&sa), Some(&sb)) = (self.slots.get(&a), self.slots.get(&b)) else {
            return;
        };
        let root = self.find_mut(sa);
        if self.find_mut(sb) != root {
            return; // not an indexed edge; nothing to repair
        }
        self.epoch += 1;
        let epoch = self.epoch;
        let mut queue = std::mem::take(&mut self.queue);
        queue.clear();
        queue.push(sa);
        self.visited[sa as usize] = epoch;
        let mut head = 0usize;
        let mut degree_sum = 0usize;
        let mut reached_b = false;
        while head < queue.len() {
            let s = queue[head];
            head += 1;
            let node = self.node_of[s as usize];
            for m in graph.neighbors(node) {
                degree_sum += 1;
                let Some(&ms) = self.slots.get(&m) else {
                    continue; // unreachable: the index mirrors the graph
                };
                if self.visited[ms as usize] != epoch {
                    self.visited[ms as usize] = epoch;
                    queue.push(ms);
                }
            }
            if self.visited[sb as usize] == epoch {
                reached_b = true;
                break;
            }
        }
        if reached_b {
            // A cycle absorbed the deletion: same membership, one less edge.
            self.edge_count[root as usize] -= 1;
            self.queue = queue;
            return;
        }
        // Split: `queue` now holds exactly the members of `a`'s side, and
        // every neighbour seen during the drain stayed inside it, so
        // `degree_sum` double-counted its edges.
        let old_nodes = self.node_count[root as usize];
        let old_edges = self.edge_count[root as usize];
        let nodes_a = queue.len() as u32;
        let edges_a = (degree_sum / 2) as u32;
        // One pass over the old member cycle: re-parent each member to its
        // side's new root and rebuild both cycles.
        let mut cycle = std::mem::take(&mut self.cycle);
        cycle.clear();
        let mut s = root;
        loop {
            cycle.push(s);
            s = self.next[s as usize];
            if s == root {
                break;
            }
        }
        let (mut first_a, mut last_a) = (None, sa);
        let (mut first_b, mut last_b) = (None, sb);
        for &m in &cycle {
            if self.visited[m as usize] == epoch {
                self.parent[m as usize] = sa;
                match first_a {
                    None => first_a = Some(m),
                    Some(_) => self.next[last_a as usize] = m,
                }
                last_a = m;
            } else {
                self.parent[m as usize] = sb;
                match first_b {
                    None => first_b = Some(m),
                    Some(_) => self.next[last_b as usize] = m,
                }
                last_b = m;
            }
        }
        if let Some(f) = first_a {
            self.next[last_a as usize] = f;
        }
        if let Some(f) = first_b {
            self.next[last_b as usize] = f;
        }
        self.node_count[sa as usize] = nodes_a;
        self.edge_count[sa as usize] = edges_a;
        self.node_count[sb as usize] = old_nodes - nodes_a;
        self.edge_count[sb as usize] = old_edges - 1 - edges_a;
        self.components += 1;
        self.queue = queue;
        self.cycle = cycle;
    }

    /// Records the removal of node `n`, **after** `graph.remove_node(n)`
    /// dropped the node and all incident edges.  The remaining members of
    /// `n`'s old component are re-fragmented by scoped BFS — node removal
    /// can shatter a component into arbitrarily many fragments, so the
    /// two-sided `remove_edge` repair does not apply.
    pub fn remove_node(&mut self, graph: &DynamicGraph, n: NodeId) {
        let Some(&sn) = self.slots.get(&n) else {
            return;
        };
        // Collect the old component's members before dismantling it.
        let mut cycle = std::mem::take(&mut self.cycle);
        cycle.clear();
        let mut s = sn;
        loop {
            cycle.push(s);
            s = self.next[s as usize];
            if s == sn {
                break;
            }
        }
        self.slots.remove(&n);
        self.free.push(sn);
        self.components -= 1;
        if cycle.len() == 1 {
            // `n` was a singleton; nothing to re-fragment.
            self.cycle = cycle;
            return;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.visited[sn as usize] = epoch; // never re-visit the freed slot
        let mut queue = std::mem::take(&mut self.queue);
        for &start in &cycle {
            if self.visited[start as usize] == epoch {
                continue;
            }
            // New fragment rooted at `start`.
            queue.clear();
            queue.push(start);
            self.visited[start as usize] = epoch;
            let mut head = 0usize;
            let mut degree_sum = 0usize;
            while head < queue.len() {
                let s = queue[head];
                head += 1;
                let node = self.node_of[s as usize];
                for m in graph.neighbors(node) {
                    degree_sum += 1;
                    let Some(&ms) = self.slots.get(&m) else {
                        continue; // unreachable: the index mirrors the graph
                    };
                    if self.visited[ms as usize] != epoch {
                        self.visited[ms as usize] = epoch;
                        queue.push(ms);
                    }
                }
            }
            for (i, &m) in queue.iter().enumerate() {
                self.parent[m as usize] = start;
                self.next[m as usize] = queue[(i + 1) % queue.len()];
            }
            self.node_count[start as usize] = queue.len() as u32;
            self.edge_count[start as usize] = (degree_sum / 2) as u32;
            self.components += 1;
        }
        self.queue = queue;
        self.cycle = cycle;
    }

    /// The canonical component list: per component, `(edge_count, sorted
    /// members)`, components sorted by their smallest member.  Independent
    /// of slot numbering and union-find shape — the basis for both wire
    /// encodings, [`PartialEq`] and the validation cross-check.
    pub fn canonical_components(&self) -> Vec<(u32, Vec<NodeId>)> {
        let mut by_root: FxHashMap<u32, Vec<NodeId>> = FxHashMap::default();
        // lint: allow(L001, hash-order walk; members are sorted and components re-sorted below)
        for (&node, &slot) in &self.slots {
            by_root.entry(self.find(slot)).or_default().push(node);
        }
        let mut components: Vec<(u32, Vec<NodeId>)> = by_root
            .into_iter()
            .map(|(root, mut members)| {
                members.sort_unstable();
                (self.edge_count[root as usize], members)
            })
            .collect();
        components.sort_unstable_by(|(_, a), (_, b)| a[0].cmp(&b[0]));
        components
    }

    /// Installs one decoded component: `members` must be non-empty,
    /// strictly ascending, and disjoint from everything installed so far;
    /// `edges` must be enough to connect them and no more than the
    /// complete graph holds.
    fn install_component(&mut self, members: &[NodeId], edges: u32) -> Result<(), String> {
        let Some(&first) = members.first() else {
            return Err("empty component".to_string());
        };
        let k = members.len() as u64;
        if u64::from(edges) < k - 1 || u64::from(edges) > k * (k - 1) / 2 {
            return Err(format!("component of {k} nodes cannot have {edges} edges"));
        }
        let rep = self.alloc_slot(first);
        if self.slots.insert(first, rep).is_some() {
            return Err(format!("node {first} appears in two components"));
        }
        let mut prev_node = first;
        let mut prev_slot = rep;
        for &m in &members[1..] {
            if m <= prev_node {
                return Err(format!(
                    "component members not strictly ascending: {m} after {prev_node}"
                ));
            }
            prev_node = m;
            let s = self.alloc_slot(m);
            if self.slots.insert(m, s).is_some() {
                return Err(format!("node {m} appears in two components"));
            }
            self.parent[s as usize] = rep;
            self.next[prev_slot as usize] = s;
            prev_slot = s;
        }
        self.next[prev_slot as usize] = rep;
        self.node_count[rep as usize] = members.len() as u32;
        self.edge_count[rep as usize] = edges;
        self.components += 1;
        Ok(())
    }

    /// Deep-checks the index against the graph it mirrors: internal
    /// union-find/cycle/count consistency, then the partition itself
    /// against a from-scratch recompute ([`Self::from_graph`]).  This is
    /// the runtime side of the incremental-maintenance contract, called at
    /// quantum boundaries under the `invariants` feature of
    /// `dengraph-core`.  Cost is O(V + E) — not for per-message use.
    pub fn validate_against(&self, graph: &DynamicGraph) -> Result<(), String> {
        if self.slots.len() != graph.node_count() {
            return Err(format!(
                "index holds {} nodes, graph holds {}",
                self.slots.len(),
                graph.node_count()
            ));
        }
        let bound = self.parent.len();
        // lint: allow(L001, validation walk; pass/fail is order-independent)
        for (&node, &slot) in &self.slots {
            if !graph.contains_node(node) {
                return Err(format!("index node {node} is not in the graph"));
            }
            if self.node_of.get(slot as usize) != Some(&node) {
                return Err(format!("slot map of {node} disagrees with node_of"));
            }
            // find() must terminate within the slot count (no parent cycle).
            let mut s = slot;
            let mut steps = 0usize;
            while self.parent[s as usize] != s {
                s = self.parent[s as usize];
                steps += 1;
                if steps > bound {
                    return Err(format!("parent chain of {node} does not terminate"));
                }
            }
            // The member cycle from this node must return to it within the
            // component's node count, and stay within one component.
            let root = s;
            let count = self.node_count[root as usize] as usize;
            let mut c = slot;
            for _ in 0..count {
                c = self.next[c as usize];
            }
            if c != slot {
                return Err(format!(
                    "member cycle through {node} has the wrong length (component size {count})"
                ));
            }
        }
        // The partition and counts must match a from-scratch recompute.
        let reference = Self::from_graph(graph);
        let ours = self.canonical_components();
        let theirs = reference.canonical_components();
        if ours.len() != theirs.len() {
            return Err(format!(
                "index has {} components, recompute has {}",
                ours.len(),
                theirs.len()
            ));
        }
        for ((our_edges, our_members), (ref_edges, ref_members)) in ours.iter().zip(&theirs) {
            if our_members != ref_members {
                return Err(format!(
                    "component membership diverged around node {}",
                    our_members[0]
                ));
            }
            if our_edges != ref_edges {
                return Err(format!(
                    "component at node {} counts {our_edges} edges, recompute counts {ref_edges}",
                    our_members[0]
                ));
            }
        }
        if self.components != ours.len() {
            return Err(format!(
                "component counter {} disagrees with partition size {}",
                self.components,
                ours.len()
            ));
        }
        Ok(())
    }
}

/// Equality is over the partition (membership + edge counts), independent
/// of slot numbering and union-find shape — the same relation the
/// canonical encodings expose.
impl PartialEq for ComponentIndex {
    fn eq(&self, other: &Self) -> bool {
        self.canonical_components() == other.canonical_components()
    }
}

impl Encode for ComponentIndex {
    /// Serialises the canonical component list to a
    /// [`dengraph_json::Value`]: `{"components": [{"edges": e, "nodes":
    /// [...]}, ...]}` with members and components sorted.  Canonical — two
    /// indexes describing the same partition serialise identically.
    fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        Value::obj([(
            "components",
            Value::arr(
                self.canonical_components()
                    .into_iter()
                    .map(|(edges, members)| {
                        Value::obj([
                            ("edges", Value::from(edges)),
                            (
                                "nodes",
                                Value::arr(members.into_iter().map(|n| Value::from(n.0))),
                            ),
                        ])
                    }),
            ),
        )])
    }

    /// Appends the compact binary encoding: the component count, then per
    /// component the edge count and the delta-encoded sorted member
    /// column.  Canonical, like [`Self::to_json`].
    fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        let components = self.canonical_components();
        w.usize(components.len());
        for (edges, members) in components {
            w.u32(edges);
            w.delta_u32s(members.iter().map(|n| n.0));
        }
    }
}

impl Decode for ComponentIndex {
    /// Reconstructs an index serialised by [`Self::to_json`].
    fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        let mut index = Self::new();
        for component in value.get("components")?.as_arr()? {
            let edges = component.get("edges")?.as_u32()?;
            let mut members = Vec::new();
            for node in component.get("nodes")?.as_arr()? {
                members.push(NodeId(node.as_u32()?));
            }
            index
                .install_component(&members, edges)
                .map_err(|message| dengraph_json::JsonError { message, offset: 0 })?;
        }
        Ok(index)
    }

    /// Reconstructs an index encoded by [`Self::to_bin`].
    fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        let mut index = Self::new();
        let components = r.seq_len(2)?;
        let mut members = Vec::new();
        for _ in 0..components {
            let edges = r.u32()?;
            members.clear();
            members.extend(r.delta_u32s()?.into_iter().map(NodeId));
            index
                .install_component(&members, edges)
                .map_err(|message| dengraph_json::JsonError {
                    message,
                    offset: r.pos(),
                })?;
        }
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Mirrors a graph mutation into both the graph and the index, in the
    /// lock-step order the maintainer uses.
    struct Mirror {
        graph: DynamicGraph,
        index: ComponentIndex,
    }

    impl Mirror {
        fn new() -> Self {
            Mirror {
                graph: DynamicGraph::new(),
                index: ComponentIndex::new(),
            }
        }

        fn add_edge(&mut self, a: u32, b: u32) {
            if self.graph.add_edge(n(a), n(b), 1.0) {
                self.index.add_edge(n(a), n(b));
            }
        }

        fn remove_edge(&mut self, a: u32, b: u32) {
            if self.graph.remove_edge(n(a), n(b)).is_some() {
                self.index.remove_edge(&self.graph, n(a), n(b));
            }
        }

        fn remove_node(&mut self, a: u32) {
            self.graph.remove_node(n(a));
            self.index.remove_node(&self.graph, n(a));
        }

        fn check(&self) {
            self.index
                .validate_against(&self.graph)
                .expect("index must match a from-scratch recompute");
        }
    }

    #[test]
    fn insertions_union_components() {
        let mut m = Mirror::new();
        m.add_edge(1, 2);
        m.add_edge(3, 4);
        assert_eq!(m.index.component_count(), 2);
        assert!(!m.index.same_component(n(1), n(3)));
        m.add_edge(2, 3);
        assert_eq!(m.index.component_count(), 1);
        assert!(m.index.same_component(n(1), n(4)));
        assert_eq!(m.index.component_counts(n(1)), Some((4, 3)));
        m.check();
    }

    #[test]
    fn intra_component_edge_only_bumps_edge_count() {
        let mut m = Mirror::new();
        m.add_edge(1, 2);
        m.add_edge(2, 3);
        m.add_edge(1, 3); // closes a triangle
        assert_eq!(m.index.component_count(), 1);
        assert_eq!(m.index.component_counts(n(2)), Some((3, 3)));
        m.check();
    }

    #[test]
    fn cycle_edge_removal_does_not_split() {
        let mut m = Mirror::new();
        m.add_edge(1, 2);
        m.add_edge(2, 3);
        m.add_edge(1, 3);
        m.remove_edge(1, 2);
        assert_eq!(m.index.component_count(), 1);
        assert_eq!(m.index.component_counts(n(1)), Some((3, 2)));
        m.check();
    }

    #[test]
    fn bridge_removal_splits_in_two() {
        let mut m = Mirror::new();
        // Two triangles joined by a bridge 3–4.
        for (a, b) in [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (3, 4)] {
            m.add_edge(a, b);
        }
        assert_eq!(m.index.component_count(), 1);
        m.remove_edge(3, 4);
        assert_eq!(m.index.component_count(), 2);
        assert!(m.index.same_component(n(1), n(3)));
        assert!(m.index.same_component(n(4), n(6)));
        assert!(!m.index.same_component(n(3), n(4)));
        assert_eq!(m.index.component_counts(n(1)), Some((3, 3)));
        assert_eq!(m.index.component_counts(n(5)), Some((3, 3)));
        m.check();
    }

    #[test]
    fn node_removal_shatters_a_star() {
        let mut m = Mirror::new();
        for leaf in [1, 2, 3, 4] {
            m.add_edge(10, leaf);
        }
        assert_eq!(m.index.component_count(), 1);
        m.remove_node(10);
        assert_eq!(m.index.component_count(), 4);
        assert!(!m.index.contains(n(10)));
        for leaf in [1, 2, 3, 4] {
            assert_eq!(m.index.component_counts(n(leaf)), Some((1, 0)));
        }
        m.check();
    }

    #[test]
    fn removing_a_singleton_frees_its_slot() {
        let mut m = Mirror::new();
        m.graph.add_node(n(7));
        m.index.add_node(n(7));
        m.remove_node(7);
        assert!(m.index.is_empty());
        assert_eq!(m.index.component_count(), 0);
        // The freed slot is recycled.
        m.add_edge(8, 9);
        m.check();
    }

    #[test]
    fn member_enumeration_walks_the_cycle() {
        let mut m = Mirror::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4), (8, 9)] {
            m.add_edge(a, b);
        }
        let mut members = Vec::new();
        m.index.for_each_member(n(3), |node| members.push(node));
        members.sort_unstable();
        assert_eq!(members, vec![n(1), n(2), n(3), n(4)]);
    }

    #[test]
    fn randomised_mutations_match_recompute() {
        // Deterministic LCG stress: interleaved adds/removes with
        // occasional node removals, validated against from_graph at every
        // step.
        let mut state = 0x0DDB_1A5Eu64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut m = Mirror::new();
        for step in 0..600 {
            let a = (rng() % 24) as u32;
            let b = (rng() % 24) as u32;
            if a == b {
                continue;
            }
            match rng() % 10 {
                0..=5 => m.add_edge(a, b),
                6..=7 => m.remove_edge(a, b),
                8 => m.remove_node(a),
                _ => {
                    m.graph.add_node(n(a));
                    m.index.add_node(n(a));
                }
            }
            if step % 7 == 0 {
                m.check();
            }
        }
        m.check();
    }

    #[test]
    fn codecs_round_trip_and_are_canonical() {
        let mut m = Mirror::new();
        for (a, b) in [(5, 1), (1, 9), (2, 7), (7, 3), (2, 3), (11, 12)] {
            m.add_edge(a, b);
        }
        m.remove_edge(2, 3);
        // JSON round trip.
        let json = m.index.to_json();
        let back = ComponentIndex::from_json(&json).expect("json decodes");
        assert_eq!(back, m.index);
        // Binary round trip.
        let mut w = dengraph_json::BinWriter::new();
        m.index.to_bin(&mut w);
        let bytes = w.into_bytes();
        let mut r = dengraph_json::BinReader::new(&bytes);
        let back = ComponentIndex::from_bin(&mut r).expect("binary decodes");
        assert_eq!(back, m.index);
        // Canonical: a decoded copy re-encodes byte-identically even
        // though its slot layout differs from the incremental original.
        let mut w2 = dengraph_json::BinWriter::new();
        back.to_bin(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
        assert_eq!(
            dengraph_json::to_string(&back.to_json()),
            dengraph_json::to_string(&m.index.to_json())
        );
        // And from_graph agrees with the incrementally maintained index.
        assert_eq!(ComponentIndex::from_graph(&m.graph), m.index);
    }

    #[test]
    fn decode_rejects_corrupt_components() {
        // Overlapping membership.
        let v = dengraph_json::parse(
            "{\"components\":[{\"edges\":1,\"nodes\":[1,2]},{\"edges\":1,\"nodes\":[2,3]}]}",
        )
        .expect("test fixture parses");
        assert!(ComponentIndex::from_json(&v).is_err());
        // Too few edges to connect the members.
        let v = dengraph_json::parse("{\"components\":[{\"edges\":1,\"nodes\":[1,2,3]}]}")
            .expect("test fixture parses");
        assert!(ComponentIndex::from_json(&v).is_err());
        // More edges than the complete graph.
        let v = dengraph_json::parse("{\"components\":[{\"edges\":4,\"nodes\":[1,2,3]}]}")
            .expect("test fixture parses");
        assert!(ComponentIndex::from_json(&v).is_err());
        // Unsorted members.
        let v = dengraph_json::parse("{\"components\":[{\"edges\":1,\"nodes\":[2,1]}]}")
            .expect("test fixture parses");
        assert!(ComponentIndex::from_json(&v).is_err());
        // Empty component.
        let v = dengraph_json::parse("{\"components\":[{\"edges\":0,\"nodes\":[]}]}")
            .expect("test fixture parses");
        assert!(ComponentIndex::from_json(&v).is_err());
    }

    #[test]
    fn validate_catches_a_stale_index() {
        let mut m = Mirror::new();
        m.add_edge(1, 2);
        m.add_edge(3, 4);
        // Mutate the graph behind the index's back.
        m.graph.add_edge(n(2), n(3), 1.0);
        assert!(m.index.validate_against(&m.graph).is_err());
    }
}
