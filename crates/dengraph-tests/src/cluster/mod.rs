//! Section 5's cluster maintenance rules the engine does not run.
//!
//! * [`addition`] — `NodeAddition` (Section 5.1).  The engine's AKG adds
//!   a node with no edges and then each edge through
//!   [`dengraph_core::cluster::edge_addition`], so the per-node rule is
//!   kept here as the paper states it, and held to the per-edge one.

pub mod addition;
