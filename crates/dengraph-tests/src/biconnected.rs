//! Articulation points and biconnected components (Hopcroft–Tarjan).
//!
//! The paper uses biconnectivity twice: the offline baseline of Section 7.3
//! reports the biconnected components of the whole AKG after every quantum,
//! and Theorem 2 shows that clusters discovered through the short-cycle
//! property are always biconnected (a fact the tests verify with this
//! module).  The implementation is the standard iterative low-link
//! algorithm, so it works on graphs far deeper than any stack limit.

use dengraph_graph::fxhash::{FxHashMap, FxHashSet};
use dengraph_graph::{DynamicGraph, EdgeKey, NodeId};

/// State of the iterative DFS used by both public functions.
struct LowLink<'g> {
    graph: &'g DynamicGraph,
    index: FxHashMap<NodeId, usize>,
    low: FxHashMap<NodeId, usize>,
    next_index: usize,
    /// Edge stack for biconnected-component extraction.
    edge_stack: Vec<EdgeKey>,
    components: Vec<Vec<EdgeKey>>,
    articulation: FxHashSet<NodeId>,
}

impl<'g> LowLink<'g> {
    fn new(graph: &'g DynamicGraph) -> Self {
        Self {
            graph,
            index: FxHashMap::default(),
            low: FxHashMap::default(),
            next_index: 0,
            edge_stack: Vec::new(),
            components: Vec::new(),
            articulation: FxHashSet::default(),
        }
    }

    /// Runs the DFS from every node not yet visited.
    fn run(mut self) -> Self {
        let graph = self.graph;
        for root in graph.nodes() {
            self.run_from(root);
        }
        self
    }

    /// Iterative DFS from `root`.
    fn run_from(&mut self, root: NodeId) {
        if self.index.contains_key(&root) {
            return;
        }
        // Frame: (node, parent, iterator over neighbours as Vec + position, child count for root)
        struct Frame {
            node: NodeId,
            parent: Option<NodeId>,
            neighbors: Vec<NodeId>,
            next: usize,
            root_children: usize,
        }
        let mut stack: Vec<Frame> = Vec::new();
        self.index.insert(root, self.next_index);
        self.low.insert(root, self.next_index);
        self.next_index += 1;
        stack.push(Frame {
            node: root,
            parent: None,
            neighbors: self.graph.neighbors(root).collect(),
            next: 0,
            root_children: 0,
        });
        while let Some(frame) = stack.last_mut() {
            if frame.next < frame.neighbors.len() {
                let w = frame.neighbors[frame.next];
                frame.next += 1;
                let v = frame.node;
                if Some(w) == frame.parent {
                    continue;
                }
                if let Some(&wi) = self.index.get(&w) {
                    // Back edge.
                    if wi < self.index[&v] {
                        self.edge_stack.push(EdgeKey::new(v, w));
                        let lv = self
                            .low
                            .get_mut(&v)
                            .expect("DFS invariant: every stacked node has a low entry");
                        *lv = (*lv).min(wi);
                    }
                } else {
                    // Tree edge: descend.
                    self.edge_stack.push(EdgeKey::new(v, w));
                    self.index.insert(w, self.next_index);
                    self.low.insert(w, self.next_index);
                    self.next_index += 1;
                    if frame.parent.is_none() {
                        frame.root_children += 1;
                    }
                    let neighbors = self.graph.neighbors(w).collect();
                    stack.push(Frame {
                        node: w,
                        parent: Some(v),
                        neighbors,
                        next: 0,
                        root_children: 0,
                    });
                }
            } else {
                // Post-order: propagate low-link to parent and pop components.
                let finished = stack.pop().expect("frame present");
                if let Some(parent) = finished.parent {
                    let child_low = self.low[&finished.node];
                    let parent_low = self.low.get_mut(&parent).expect("parent visited");
                    *parent_low = (*parent_low).min(child_low);
                    let parent_is_root = stack.last().is_some_and(|f| f.parent.is_none());
                    if child_low >= self.index[&parent] {
                        // `parent` separates `finished.node`'s subtree: pop one component.
                        if !parent_is_root {
                            self.articulation.insert(parent);
                        }
                        let cut = EdgeKey::new(parent, finished.node);
                        let mut comp = Vec::new();
                        while let Some(e) = self.edge_stack.pop() {
                            comp.push(e);
                            if e == cut {
                                break;
                            }
                        }
                        if !comp.is_empty() {
                            self.components.push(comp);
                        }
                    }
                } else if finished.root_children >= 2 {
                    self.articulation.insert(finished.node);
                }
            }
        }
        // Any remaining edges form one final component (e.g. the root's last block).
        if !self.edge_stack.is_empty() {
            let comp = std::mem::take(&mut self.edge_stack);
            self.components.push(comp);
        }
    }
}

/// Articulation points (cut vertices) of the whole graph.
pub fn articulation_points(graph: &DynamicGraph) -> FxHashSet<NodeId> {
    LowLink::new(graph).run().articulation
}

/// Biconnected components of the whole graph, as edge sets.  Every edge
/// belongs to exactly one component; isolated nodes yield no component.
pub fn biconnected_components(graph: &DynamicGraph) -> Vec<Vec<EdgeKey>> {
    LowLink::new(graph).run().components
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn edges(g: &mut DynamicGraph, pairs: &[(u32, u32)]) {
        for &(a, b) in pairs {
            g.add_edge(n(a), n(b), 1.0);
        }
    }

    #[test]
    fn single_triangle_is_one_component_no_articulation() {
        let mut g = DynamicGraph::new();
        edges(&mut g, &[(1, 2), (2, 3), (1, 3)]);
        assert!(articulation_points(&g).is_empty());
        let comps = biconnected_components(&g);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 3);
    }

    #[test]
    fn two_triangles_joined_at_a_node() {
        // Figure 6 shape in miniature: articulation at node 3.
        let mut g = DynamicGraph::new();
        edges(&mut g, &[(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)]);
        let aps = articulation_points(&g);
        assert_eq!(aps.len(), 1);
        assert!(aps.contains(&n(3)));
        let comps = biconnected_components(&g);
        assert_eq!(comps.len(), 2);
        assert!(comps.iter().all(|c| c.len() == 3));
    }

    #[test]
    fn path_graph_every_internal_node_is_articulation() {
        let mut g = DynamicGraph::new();
        edges(&mut g, &[(1, 2), (2, 3), (3, 4)]);
        let aps = articulation_points(&g);
        assert_eq!(aps, [n(2), n(3)].into_iter().collect());
        let comps = biconnected_components(&g);
        assert_eq!(comps.len(), 3);
        assert!(comps.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn figure6_deletion_splits_at_node_3() {
        // The paper's Figure 6: a 12-node ring-like cluster; deleting node 9
        // makes node 3 an articulation point with two biconnected halves.
        let mut g = DynamicGraph::new();
        edges(
            &mut g,
            &[
                (0, 1),
                (1, 11),
                (11, 10),
                (10, 2),
                (2, 3),
                (3, 0),
                (0, 2),
                (1, 10),
                (3, 4),
                (4, 5),
                (5, 8),
                (8, 7),
                (7, 6),
                (6, 3),
                (4, 8),
                (5, 7),
                (0, 9),
                (9, 6),
            ],
        );
        // Before the deletion node 3 is not an articulation point.
        assert!(!articulation_points(&g).contains(&n(3)));
        g.remove_node(n(9));
        let aps = articulation_points(&g);
        assert!(
            aps.contains(&n(3)),
            "node 3 should become an articulation point"
        );
        let comps = biconnected_components(&g);
        assert_eq!(comps.len(), 2);
    }

    #[test]
    fn disconnected_graph_handled_per_component() {
        let mut g = DynamicGraph::new();
        edges(
            &mut g,
            &[(1, 2), (2, 3), (1, 3), (10, 11), (11, 12), (10, 12)],
        );
        g.add_node(n(99));
        assert!(articulation_points(&g).is_empty());
        assert_eq!(biconnected_components(&g).len(), 2);
    }

    #[test]
    fn four_cycle_is_single_biconnected_component() {
        let mut g = DynamicGraph::new();
        edges(&mut g, &[(1, 2), (2, 3), (3, 4), (4, 1)]);
        let comps = biconnected_components(&g);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 4);
        assert!(articulation_points(&g).is_empty());
    }

    #[test]
    fn node_sets_cover_all_edges() {
        let mut g = DynamicGraph::new();
        edges(&mut g, &[(1, 2), (2, 3), (1, 3), (3, 4)]);
        let sets: Vec<FxHashSet<NodeId>> = biconnected_components(&g)
            .into_iter()
            .map(|edges| edges.iter().flat_map(|e| [e.0, e.1]).collect())
            .collect();
        assert_eq!(sets.len(), 2);
        let total_nodes: usize = sets.iter().map(|s| s.len()).sum();
        assert_eq!(total_nodes, 3 + 2); // triangle + bridge
    }

    #[test]
    fn empty_graph() {
        let g = DynamicGraph::new();
        assert!(articulation_points(&g).is_empty());
        assert!(biconnected_components(&g).is_empty());
    }

    #[test]
    fn bridge_between_two_cycles_yields_three_components() {
        let mut g = DynamicGraph::new();
        edges(
            &mut g,
            &[
                (1, 2),
                (2, 3),
                (1, 3),
                (3, 10),
                (10, 11),
                (11, 12),
                (10, 12),
            ],
        );
        let comps = biconnected_components(&g);
        assert_eq!(comps.len(), 3);
        let aps = articulation_points(&g);
        assert_eq!(aps, [n(3), n(10)].into_iter().collect());
    }
}
