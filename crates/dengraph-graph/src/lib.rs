//! Dynamic undirected-graph substrate for `dengraph`.
//!
//! The correlated-keyword graph (CKG) and its active subgraph (AKG) of
//! Agarwal et al. (VLDB 2012) are *highly dynamic*: nodes and edges appear
//! and disappear every quantum as the sliding window moves.  This crate
//! provides the graph machinery those structures are built on, independent
//! of anything keyword- or stream-specific:
//!
//! * [`dynamic_graph`] — a graph indexed by dense node id (one sorted
//!   adjacency slot per id, a presence bitset) with amortised O(1) node
//!   insertion, weighted edges, ascending node and edge iteration and
//!   common-neighbour queries.
//! * [`components`] — a stateless stand-in for the retired
//!   connected-component index, held only for the repo benchmark.
//! * [`scp`] — the short-cycle property itself: the one SCP decomposition
//!   and test.  [`scp_edge_groups`] decomposes a sorted edge list; the
//!   deletion repair, a cluster's own SCP test and the *global* test
//!   oracle for the incremental algorithms (property P3 of Section 4.3)
//!   all call it.
//! * [`fxhash`] — a small, fast integer hasher for the id-keyed sets and
//!   maps of the layers above.
//!
//! Biconnectivity (the Section 7.3 baseline and Theorem 2's check) and the
//! quasi-clique tests of Section 1.1 are reference code the engine never
//! runs; they live in the `dengraph-tests` library.

pub mod components;
pub mod dynamic_graph;
pub mod fxhash;
pub mod node;
pub mod scp;

pub use components::ComponentIndex;
pub use dynamic_graph::{DynamicGraph, EdgeKey};
pub use node::NodeId;
pub use scp::{scp_clusters_global, scp_edge_groups};
