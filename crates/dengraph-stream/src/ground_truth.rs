//! Ground-truth registry for injected events.
//!
//! The paper compares discovered clusters against Google News headlines
//! (Section 7.1): 60 unique real-world events, of which 27 were "too weak"
//! (fewer than σ related tweets) and excluded, plus roughly six times as
//! many *local* events that never made the headlines.  The synthetic
//! workload generator records exactly which events it injected — including
//! the too-weak and local-only ones and the spurious bursts — so the
//! evaluation harness can compute precision and recall without any manual
//! labelling step.

use dengraph_text::KeywordId;

/// The kind of an injected event, mirroring the categories of Section 7.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroundTruthEventKind {
    /// A real-world event that also has a "news headline" (the Google News
    /// analogue).  Counts towards recall.
    Headline,
    /// A real event that is only of local interest — no headline, but the
    /// detector should still be credited for finding it (the paper's "6×
    /// additional events").
    LocalOnly,
    /// An event with so few messages (below the high-state threshold σ)
    /// that no technique could detect it; excluded from the recall
    /// denominator, exactly as the paper excludes its 27 weak headlines.
    TooWeak,
    /// A spurious burst (advertisement, rumour): a sudden burst that dies
    /// immediately.  Matching a spurious burst costs precision.
    Spurious,
}

/// One injected event.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruthEvent {
    /// Dense event id within the trace.
    pub id: u32,
    /// Human-readable name (the simulated "headline").
    pub name: String,
    /// The event's keyword vocabulary (every keyword the event can emit).
    pub keywords: Vec<KeywordId>,
    /// The subset of [`Self::keywords`] present in the simulated headline.
    pub headline_keywords: Vec<KeywordId>,
    /// Generation round (≈ quantum at the generator's round size) at which
    /// the event starts emitting messages.
    pub start_round: u64,
    /// Number of rounds the event stays active.
    pub duration_rounds: u64,
    /// Peak number of event messages per round.
    pub peak_messages_per_round: u32,
    /// Category of the event.
    pub kind: GroundTruthEventKind,
}

impl GroundTruthEvent {
    /// Returns `true` when this event should count in the recall
    /// denominator (headline or local-only, not too weak, not spurious).
    pub fn is_detectable_real_event(&self) -> bool {
        matches!(
            self.kind,
            GroundTruthEventKind::Headline | GroundTruthEventKind::LocalOnly
        )
    }
}

/// The full ground truth of a generated trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroundTruth {
    /// All injected events, indexed by their id.
    pub events: Vec<GroundTruthEvent>,
}

impl GroundTruth {
    /// All events of a given kind.
    pub fn of_kind(&self, kind: GroundTruthEventKind) -> impl Iterator<Item = &GroundTruthEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Events that count towards recall.
    pub fn detectable_events(&self) -> impl Iterator<Item = &GroundTruthEvent> {
        self.events.iter().filter(|e| e.is_detectable_real_event())
    }

    /// Number of events that count towards recall.
    pub fn detectable_count(&self) -> usize {
        self.detectable_events().count()
    }

    /// Number of headline events (the Google News analogue).
    pub fn headline_count(&self) -> usize {
        self.of_kind(GroundTruthEventKind::Headline).count()
    }

    /// Looks up an event by id.
    pub fn get(&self, id: u32) -> Option<&GroundTruthEvent> {
        self.events.iter().find(|e| e.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(id: u32, kind: GroundTruthEventKind) -> GroundTruthEvent {
        GroundTruthEvent {
            id,
            name: format!("event {id}"),
            keywords: vec![KeywordId(id * 10), KeywordId(id * 10 + 1)],
            headline_keywords: vec![KeywordId(id * 10)],
            start_round: 5,
            duration_rounds: 10,
            peak_messages_per_round: 20,
            kind,
        }
    }

    #[test]
    fn kind_filters_and_counts() {
        let gt = GroundTruth {
            events: vec![
                event(0, GroundTruthEventKind::Headline),
                event(1, GroundTruthEventKind::Headline),
                event(2, GroundTruthEventKind::LocalOnly),
                event(3, GroundTruthEventKind::TooWeak),
                event(4, GroundTruthEventKind::Spurious),
            ],
        };
        assert_eq!(gt.headline_count(), 2);
        assert_eq!(gt.detectable_count(), 3);
        assert_eq!(gt.of_kind(GroundTruthEventKind::Spurious).count(), 1);
        assert!(gt.get(3).unwrap().kind == GroundTruthEventKind::TooWeak);
        assert!(gt.get(99).is_none());
    }

    #[test]
    fn detectability_rules() {
        assert!(event(0, GroundTruthEventKind::Headline).is_detectable_real_event());
        assert!(event(0, GroundTruthEventKind::LocalOnly).is_detectable_real_event());
        assert!(!event(0, GroundTruthEventKind::TooWeak).is_detectable_real_event());
        assert!(!event(0, GroundTruthEventKind::Spurious).is_detectable_real_event());
    }
}
