//! A held name: the connected-component index the engine no longer keeps.
//!
//! The paper's cluster maintenance (Section 5) is local to the edges a
//! quantum changes and defines clusters by the short-cycle property, not
//! by connected components, so the engine keeps no component index; a
//! reader that needs components derives them from the graph at use.
//!
//! [`ComponentIndex`] is a stateless stand-in, held only because the repo
//! benchmark's staged re-composition of the pipeline
//! (`benchmark/src/staged.rs`) names it.  It goes with the commit that
//! moves that file onto the engine's one path (ROADMAP item 1(b)).

use crate::dynamic_graph::DynamicGraph;
use crate::node::NodeId;

/// A stateless stand-in for the retired component index: every method is a
/// no-op.  See the module docs.
#[derive(Debug, Default)]
pub struct ComponentIndex;

impl ComponentIndex {
    /// The one (empty) value.
    pub const fn new() -> Self {
        Self
    }

    /// Does nothing; returns `false`.
    pub fn add_node(&mut self, _n: NodeId) -> bool {
        false
    }

    /// Does nothing.
    pub fn add_edge(&mut self, _a: NodeId, _b: NodeId) {}

    /// Does nothing.
    pub fn remove_edge(&mut self, _graph: &DynamicGraph, _a: NodeId, _b: NodeId) {}

    /// Does nothing.
    pub fn remove_node(&mut self, _graph: &DynamicGraph, _n: NodeId) {}
}
