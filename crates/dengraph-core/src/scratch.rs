//! Reusable per-quantum scratch buffers.
//!
//! Every quantum of the hot path used to allocate its working vectors
//! fresh — candidate keyword lists, candidate pairs, the delta log, the
//! `(keyword, user)` staging buffer for window aggregation, the member
//! rows of the cluster being ranked.  The [`ScratchArena`] is owned by
//! the detector and threaded through the pipeline stages instead, so
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
    /// One bit per keyword id, all zero between stages; grown to the
    /// largest id marked, never shrunk.  Set 1 while the AKG is maintained
    /// (stage 2), then the keywords whose rank inputs may have moved while
    /// clusters are ranked (stage 5).
    pub keyword_bits: KeywordBits,
    /// Set 2 of Section 3.2.1: AKG keywords occurring this quantum, sorted.
    pub set2: Vec<KeywordId>,
    /// Candidate pairs along existing AKG edges, sorted.
    pub edge_pairs: Vec<(KeywordId, KeywordId)>,
    /// The set-1 shared-minimum join index (stage 2).
    pub join: MinimaJoin,
    /// One row sum per member of the cluster being ranked (stage 5).
    pub rank_rows: Vec<f64>,
}

/// A set of keyword ids as one bit per id, grown on demand and never
/// shrunk.  Its users clear it by zeroing the words of the ids they
/// marked, in O(marks) whatever the largest id.
#[derive(Debug, Default)]
pub(crate) struct KeywordBits {
    words: Vec<u64>,
}

impl KeywordBits {
    /// Adds `keyword`.
    pub fn mark(&mut self, keyword: KeywordId) {
        let word = keyword.0 as usize / 64;
        if self.words.len() <= word {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (keyword.0 % 64);
    }

    /// Is `keyword` marked?
    pub fn contains(&self, keyword: KeywordId) -> bool {
        self.words
            .get(keyword.0 as usize / 64)
            .is_some_and(|&word| word >> (keyword.0 % 64) & 1 == 1)
    }

    /// Zeroes the word holding `keyword`: unmarks it and every id that
    /// shares its word.
    pub fn clear_word(&mut self, keyword: KeywordId) {
        if let Some(word) = self.words.get_mut(keyword.0 as usize / 64) {
            *word = 0;
        }
    }
}
