//! Full correlated-keyword-graph (CKG) bookkeeping.
//!
//! The detector itself never materialises the full CKG — that is the whole
//! point of the AKG reduction of Section 3 — but the evaluation of Section
//! 7.4 reports *how much smaller* the AKG is ("the number of edges in AKG
//! was less than 2 % of CKG … less than 5 % nodes in CKG show burstiness").
//! [`CkgTracker`] maintains exactly enough information about the full CKG
//! (its node and edge counts over the sliding window) to reproduce those
//! numbers, without being part of the hot path.

use std::collections::VecDeque;

use dengraph_graph::fxhash::{FxHashMap, FxHashSet};
use dengraph_stream::Message;
use dengraph_text::KeywordId;

/// Per-quantum CKG contribution: the keywords seen and the keyword pairs
/// co-mentioned by at least one user within the quantum.
#[derive(Debug, Clone, Default)]
struct CkgQuantum {
    nodes: FxHashSet<KeywordId>,
    edges: FxHashSet<(KeywordId, KeywordId)>,
}

/// Tracks the size of the full CKG over the sliding window.
#[derive(Debug)]
pub struct CkgTracker {
    window: VecDeque<CkgQuantum>,
    capacity: usize,
}

impl CkgTracker {
    /// Creates a tracker for a window of `capacity` quanta.
    pub fn new(capacity: usize) -> Self {
        Self {
            window: VecDeque::with_capacity(capacity + 1),
            capacity: capacity.max(1),
        }
    }

    /// Ingests the messages of one quantum.
    pub fn push_quantum(&mut self, messages: &[Message]) {
        let mut q = CkgQuantum::default();
        // Group keywords by user: an edge links two keywords used by the
        // same user within the quantum (Section 3.2's user-level spatial
        // correlation).
        let mut per_user: FxHashMap<u64, FxHashSet<KeywordId>> = FxHashMap::default();
        for m in messages {
            let entry = per_user.entry(m.user.raw()).or_default();
            for &k in &m.keywords {
                q.nodes.insert(k);
                entry.insert(k);
            }
        }
        for (_, kws) in per_user {
            let mut sorted: Vec<KeywordId> = kws.into_iter().collect();
            sorted.sort_unstable();
            for i in 0..sorted.len() {
                for j in (i + 1)..sorted.len() {
                    q.edges.insert((sorted[i], sorted[j]));
                }
            }
        }
        self.window.push_back(q);
        if self.window.len() > self.capacity {
            self.window.pop_front();
        }
    }

    /// Number of distinct keywords in the CKG over the current window.
    pub fn node_count(&self) -> usize {
        let mut nodes = FxHashSet::default();
        for q in &self.window {
            #[expect(clippy::disallowed_methods, reason = "a distinct count is order-free")]
            nodes.extend(q.nodes.iter().copied());
        }
        nodes.len()
    }

    /// Number of distinct co-occurrence edges in the CKG over the current
    /// window.
    pub fn edge_count(&self) -> usize {
        let mut edges = FxHashSet::default();
        for q in &self.window {
            #[expect(clippy::disallowed_methods, reason = "a distinct count is order-free")]
            edges.extend(q.edges.iter().copied());
        }
        edges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dengraph_stream::UserId;

    fn msg(user: u64, kws: &[u32]) -> Message {
        Message::new(UserId(user), 0, kws.iter().map(|&k| KeywordId(k)).collect())
    }

    #[test]
    fn nodes_and_edges_counted_over_window() {
        let mut t = CkgTracker::new(2);
        t.push_quantum(&[msg(1, &[1, 2, 3])]);
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.edge_count(), 3); // triangle from one user
        t.push_quantum(&[msg(2, &[3, 4])]);
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.edge_count(), 4);
    }

    #[test]
    fn window_eviction_drops_old_contributions() {
        let mut t = CkgTracker::new(2);
        t.push_quantum(&[msg(1, &[1, 2])]);
        t.push_quantum(&[msg(2, &[3, 4])]);
        t.push_quantum(&[msg(3, &[5, 6])]);
        assert_eq!(t.node_count(), 4); // 3,4,5,6
        assert_eq!(t.edge_count(), 2);
    }

    #[test]
    fn same_user_across_messages_in_a_quantum_links_keywords() {
        let mut t = CkgTracker::new(3);
        t.push_quantum(&[msg(7, &[1]), msg(7, &[2])]);
        assert_eq!(t.edge_count(), 1);
    }

    #[test]
    fn different_users_do_not_link_keywords() {
        let mut t = CkgTracker::new(3);
        t.push_quantum(&[msg(1, &[1]), msg(2, &[2])]);
        assert_eq!(t.edge_count(), 0);
        assert_eq!(t.node_count(), 2);
    }
}
