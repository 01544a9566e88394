//! Section 5 checked exhaustively on small graphs.
//!
//! Cluster maintenance (EdgeAddition, the deletion repair, merges and
//! splits under the short-cycle property) is held to the global SCP
//! decomposition `dengraph_graph::scp_clusters_global` on **every**
//! labelled graph with at most `n` nodes, as an induction:
//!
//! * every graph is built by inserting its edges in ascending order, and
//!   its clusters must already equal the global ones;
//! * from every graph, every transition is applied to a copy of that
//!   state: each single edge toggle, each node removal, and every pair of
//!   toggles in one batch — graph first, then the deltas in the AKG's
//!   order (additions ascending before removals ascending; a removed
//!   node's edges before the node), against the post-batch graph.
//!
//! After each transition the clusters' node *and* edge sets must equal the
//! global decomposition's and `ClusterRegistry::check_invariants` must
//! pass.  Cluster sets depend only on the graph, so this covers every
//! history of single transitions on at most `n` nodes.  A failure reports
//! the smallest failing case found (fewest nodes, then fewest edges, then
//! the smallest transition) with its count.
//!
//! The default run covers `n ≤ 5` (well under ten seconds in a debug
//! build); `n = 6` (4.1 M transitions) is `#[ignore]`d and run in release:
//! `cargo test --release -p dengraph-tests --test cluster_exhaustive -- --ignored`.

use std::panic::AssertUnwindSafe;

use dengraph_core::akg::GraphDelta;
use dengraph_core::ClusterMaintainer;
use dengraph_graph::dynamic_graph::EdgeKey;
use dengraph_graph::{scp_clusters_global, DynamicGraph, NodeId};

/// One transition applied to a base state.
#[derive(Debug, Clone, Copy)]
enum Transition {
    /// Add the edge if absent, remove it if present.
    Toggle(EdgeKey),
    /// Remove the node and its edges.
    RemoveNode(NodeId),
    /// Two toggles in one batch.
    TogglePair(EdgeKey, EdgeKey),
}

impl Transition {
    /// Edge changes it makes, for ordering the minimal failure.
    fn size(self) -> usize {
        match self {
            Self::Toggle(_) | Self::RemoveNode(_) => 1,
            Self::TogglePair(..) => 2,
        }
    }
}

/// One mismatch: the base graph's edges, the transition (`None` for the
/// base state itself) and what went wrong.
#[derive(Debug)]
struct Failure {
    nodes: u32,
    edges: Vec<EdgeKey>,
    transition: Option<Transition>,
    message: String,
}

impl Failure {
    fn key(&self) -> (u32, usize, usize) {
        (
            self.nodes,
            self.edges.len(),
            self.transition.map_or(0, Transition::size),
        )
    }
}

/// Every failure seen, plus the smallest one (the first found among
/// equals).
#[derive(Default)]
struct Outcome {
    transitions: usize,
    failures: usize,
    minimal: Option<Failure>,
}

impl Outcome {
    fn record(&mut self, failure: Failure) {
        self.failures += 1;
        if self
            .minimal
            .as_ref()
            .is_none_or(|m| failure.key() < m.key())
        {
            self.minimal = Some(failure);
        }
    }
}

/// A clustering as sorted `(nodes, edges)` columns, sorted.
type Clustering = Vec<(Vec<NodeId>, Vec<EdgeKey>)>;

fn maintained(maintainer: &ClusterMaintainer) -> Clustering {
    let mut out: Clustering = maintainer
        .clusters()
        .map(|c| (c.nodes.clone(), c.edges.clone()))
        .collect();
    out.sort();
    out
}

fn global(graph: &DynamicGraph) -> Clustering {
    let mut out: Clustering = scp_clusters_global(graph)
        .into_iter()
        .map(|c| (c.nodes, c.edges))
        .collect();
    out.sort();
    out
}

/// `None` when the maintainer agrees with the global decomposition of
/// `graph` and its registry passes `check_invariants`.
fn check(graph: &DynamicGraph, maintainer: &ClusterMaintainer) -> Option<String> {
    if let Err(e) = maintainer.registry().check_invariants() {
        return Some(format!("check_invariants: {e}"));
    }
    let (got, want) = (maintained(maintainer), global(graph));
    (got != want).then(|| format!("maintained {got:?}\n  global     {want:?}"))
}

/// The graph after `transition` and the deltas the AKG would send for
/// it: additions ascending, then removals ascending (a removed node's
/// edges, then the node).
fn transitioned(graph: &DynamicGraph, transition: Transition) -> (DynamicGraph, Vec<GraphDelta>) {
    let mut graph = graph.clone();
    let mut added = Vec::new();
    let mut removed = Vec::new();
    let mut toggle = |graph: &mut DynamicGraph, e: EdgeKey| {
        if graph.remove_edge(e.0, e.1).is_some() {
            removed.push(GraphDelta::EdgeRemoved { a: e.0, b: e.1 });
        } else {
            graph.add_edge(e.0, e.1, 1.0);
            added.push(GraphDelta::EdgeAdded {
                a: e.0,
                b: e.1,
                weight: 1.0,
            });
        }
    };
    match transition {
        Transition::Toggle(e) => toggle(&mut graph, e),
        Transition::TogglePair(e, f) => {
            toggle(&mut graph, e);
            toggle(&mut graph, f);
        }
        Transition::RemoveNode(node) => {
            for (other, _) in graph.remove_node(node) {
                removed.push(GraphDelta::EdgeRemoved {
                    a: node.min(other),
                    b: node.max(other),
                });
            }
            removed.push(GraphDelta::NodeRemoved { node });
        }
    }
    added.append(&mut removed);
    (graph, added)
}

/// A copy of `maintainer` after `deltas` against `graph`, or the message
/// of the panic they raised (debug builds assert the registry's
/// invariants after every batch), so a failure is still reported as a
/// case.
fn applied(
    maintainer: &ClusterMaintainer,
    graph: &DynamicGraph,
    deltas: &[GraphDelta],
    quantum: u64,
) -> Result<ClusterMaintainer, String> {
    let mut maintainer = maintainer.clone();
    std::panic::catch_unwind(AssertUnwindSafe(move || {
        maintainer.apply_deltas(graph, deltas, quantum);
        maintainer
    }))
    .map_err(|payload| {
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("panicked: {message}")
    })
}

/// Checks the base state (graph built from the edges of `all` picked so
/// far) and every transition from it, then recurses into each graph with
/// one more edge above the last one inserted.
fn visit(
    nodes: u32,
    all: &[EdgeKey],
    from: usize,
    graph: &DynamicGraph,
    maintainer: &ClusterMaintainer,
    outcome: &mut Outcome,
) {
    let fail = |transition, message| Failure {
        nodes,
        edges: graph.edges().map(|(e, _)| e).collect(),
        transition,
        message,
    };
    if let Some(message) = check(graph, maintainer) {
        outcome.record(fail(None, message));
    }
    let toggles = all.iter().map(|&e| Transition::Toggle(e));
    let removals = (0..nodes).map(|v| Transition::RemoveNode(NodeId(v)));
    let pairs = (0..all.len())
        .flat_map(|i| (i + 1..all.len()).map(move |j| Transition::TogglePair(all[i], all[j])));
    for transition in toggles.chain(removals).chain(pairs) {
        outcome.transitions += 1;
        let (after, deltas) = transitioned(graph, transition);
        let failure = match applied(maintainer, &after, &deltas, 1) {
            Ok(after_maintainer) => check(&after, &after_maintainer),
            Err(message) => Some(message),
        };
        if let Some(message) = failure {
            outcome.record(fail(Some(transition), message));
        }
    }
    for (i, &e) in all.iter().enumerate().skip(from) {
        let (next, deltas) = transitioned(graph, Transition::Toggle(e));
        match applied(maintainer, &next, &deltas, 0) {
            Ok(next_maintainer) => visit(nodes, all, i + 1, &next, &next_maintainer, outcome),
            Err(message) => outcome.record(fail(Some(Transition::Toggle(e)), message)),
        }
    }
}

/// Runs every labelled graph on `1..=max_nodes` nodes; panics with the
/// smallest failing case.  Returns the number of transitions checked.
fn exhaust(max_nodes: u32) -> usize {
    let mut outcome = Outcome::default();
    for nodes in 1..=max_nodes {
        let all: Vec<EdgeKey> = (0..nodes)
            .flat_map(|a| (a + 1..nodes).map(move |b| EdgeKey(NodeId(a), NodeId(b))))
            .collect();
        let mut graph = DynamicGraph::new();
        for v in 0..nodes {
            graph.add_node(NodeId(v));
        }
        visit(
            nodes,
            &all,
            0,
            &graph,
            &ClusterMaintainer::new(),
            &mut outcome,
        );
        if let Some(m) = &outcome.minimal {
            panic!(
                "{} of {} cases disagree with the global SCP clusters; the smallest:\n  \
                 {} nodes, edges {:?}\n  transition {:?}\n  {}",
                outcome.failures, outcome.transitions, m.nodes, m.edges, m.transition, m.message
            );
        }
    }
    outcome.transitions
}

#[test]
fn every_transition_on_five_nodes_matches_the_global_decomposition() {
    // Σ over n ≤ 5 of 2^C(n,2) graphs × (C(n,2) toggles + n removals +
    // C(C(n,2), 2) toggle pairs).
    assert_eq!(exhaust(5), 63_119);
}

#[test]
#[ignore = "4.1 M transitions: run in release"]
fn every_transition_on_six_nodes_matches_the_global_decomposition() {
    assert_eq!(exhaust(6), 4_191_887);
}
