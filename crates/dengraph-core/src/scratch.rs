//! Reusable per-quantum scratch buffers.
//!
//! Every quantum of the hot path used to allocate its working vectors
//! fresh — candidate keyword lists, candidate pairs, the delta log, the
//! `(keyword, user)` staging buffer for window aggregation, the
//! ranking-support node list.  The [`ScratchArena`] is owned by the
//! detector and threaded through the pipeline stages instead, so
//! steady-state quanta reuse the previous quantum's capacity and perform
//! (near) zero heap allocation (`tests/allocation_gate.rs` pins this).
//!
//! Scratch contents are **never** semantically meaningful across quanta:
//! every user clears its buffer before filling it, so a freshly restored
//! detector (whose arena starts empty) is bit-identical to one that has
//! been running — the arena is excluded from checkpoints for exactly that
//! reason.

use dengraph_graph::NodeId;
use dengraph_stream::UserId;
use dengraph_text::KeywordId;

use crate::akg::{GraphDelta, MinimaJoin};
use crate::keyword_state::{PairSortScratch, RecordStorage};

/// Reusable buffers for one detector's per-quantum pipeline.
#[derive(Debug, Default)]
pub(crate) struct ScratchArena {
    /// `(keyword, user)` staging for quantum aggregation (stage 1).
    pub pairs: Vec<(KeywordId, UserId)>,
    /// Packed key column + ping-pong buffer for the radix pair sort
    /// (stage 1).
    pub pair_sort: PairSortScratch,
    /// Backing storage recycled from the most recently evicted
    /// [`QuantumRecord`](crate::keyword_state::QuantumRecord).
    pub record_storage: Option<RecordStorage>,
    /// The AKG delta log of the current quantum (stage 2 → stage 3).
    pub deltas: Vec<GraphDelta>,
    /// Stale / lazy-demotion candidate nodes (stage 2).
    pub nodes: Vec<NodeId>,
    /// Set 1 of Section 3.2.1: this quantum's bursty keywords, sorted.
    pub set1: Vec<KeywordId>,
    /// Set 2 of Section 3.2.1: AKG keywords occurring this quantum, sorted.
    pub set2: Vec<KeywordId>,
    /// Candidate pairs along existing AKG edges, sorted.
    pub edge_pairs: Vec<(KeywordId, KeywordId)>,
    /// Both candidate sets as `involved`-slot pairs — the set-1 join's
    /// output, then `edge_pairs` — for the single scoring fan-out.
    pub all_pairs: Vec<(u32, u32)>,
    /// Set 1 plus the endpoints of `edge_pairs`, sorted + deduped — the
    /// key column of the correlation cache.
    pub involved: Vec<KeywordId>,
    /// The set-1 shared-minimum join index (stage 2).
    pub join: MinimaJoin,
    /// Every live cluster's member keywords, sorted + deduped — the key
    /// column of the ranking-support pass and lookup (stage 4).
    pub cluster_keywords: Vec<KeywordId>,
    /// The sorted member nodes of the cluster being ranked (stage 5).
    pub rank_nodes: Vec<NodeId>,
}
