//! In-memory traces and their statistics.

use dengraph_text::KeywordInterner;

use crate::ground_truth::GroundTruth;
use crate::message::Message;

/// A fully generated trace: the message stream plus everything
/// the evaluation needs to score a detector run against it.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Name of the generating profile.
    pub profile_name: String,
    /// The generator's round size (≈ nominal quantum).
    pub round_size: usize,
    /// All messages in arrival order.
    pub messages: Vec<Message>,
    /// The injected-event registry.
    pub ground_truth: GroundTruth,
    /// Keyword id ↔ string mapping shared by messages and ground truth.
    pub interner: KeywordInterner,
}

impl Trace {
    /// Number of messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Returns `true` when the trace has no messages.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Computes summary statistics.
    pub fn stats(&self) -> TraceStats {
        let mut users = std::collections::HashSet::new();
        let mut keywords = std::collections::HashSet::new();
        let mut keyword_occurrences = 0usize;
        for m in &self.messages {
            users.insert(m.user);
            keyword_occurrences += m.keywords.len();
            for k in &m.keywords {
                keywords.insert(*k);
            }
        }
        TraceStats {
            messages: self.messages.len(),
            distinct_users: users.len(),
            distinct_keywords: keywords.len(),
            keyword_occurrences,
            ground_truth_events: self.ground_truth.events.len(),
            detectable_events: self.ground_truth.detectable_count(),
        }
    }
}

/// Summary statistics of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Total messages.
    pub messages: usize,
    /// Number of distinct users.
    pub distinct_users: usize,
    /// Number of distinct keywords.
    pub distinct_keywords: usize,
    /// Total keyword occurrences across all messages.
    pub keyword_occurrences: usize,
    /// Number of injected ground-truth events (all kinds).
    pub ground_truth_events: usize,
    /// Number of events counting towards recall.
    pub detectable_events: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::profiles::{tw_profile, ProfileScale};
    use crate::generator::StreamGenerator;

    fn small_trace() -> Trace {
        StreamGenerator::new(tw_profile(11, ProfileScale::Small)).generate()
    }

    #[test]
    fn stats_are_consistent() {
        let t = small_trace();
        let s = t.stats();
        assert_eq!(s.messages, t.len());
        assert!(s.distinct_users > 100);
        assert!(s.distinct_keywords > 500);
        assert!(s.keyword_occurrences >= s.messages);
        assert_eq!(s.ground_truth_events, t.ground_truth.events.len());
        assert!(s.detectable_events <= s.ground_truth_events);
    }

    #[test]
    fn empty_trace_helpers() {
        let t = Trace {
            profile_name: "empty".into(),
            round_size: 160,
            messages: vec![],
            ground_truth: GroundTruth::default(),
            interner: KeywordInterner::new(),
        };
        assert!(t.is_empty());
        assert_eq!(t.stats().messages, 0);
    }
}
