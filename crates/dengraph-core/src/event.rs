//! Discovered-event records and their lifecycle.
//!
//! A *cluster* is a per-quantum structural object; an *event* is its
//! identity over time: the same real-world story keeps (roughly) the same
//! cluster as keywords join and leave, thanks to the stable cluster ids the
//! registry maintains across merges and splits.  The tracker records, per
//! event, its keyword evolution and rank history — exactly the information
//! the paper's post-hoc spuriousness analysis (Section 7.2.2) needs: "events
//! which do not evolve and have monotonically decreasing rank scores are
//! considered spurious".

use dengraph_graph::fxhash::FxHashMap;
use dengraph_json::{Decode, Encode, JsonWriter, Value};
use dengraph_text::KeywordId;

use crate::cluster::ClusterId;

fn keywords_to_json(keywords: &[KeywordId]) -> Value {
    Value::arr(keywords.iter().map(|k| Value::from(k.0)))
}

fn write_keywords(keywords: &[KeywordId], w: &mut JsonWriter<'_>) {
    w.begin_arr();
    for k in keywords {
        w.u64(u64::from(k.0));
    }
    w.end_arr();
}

fn keywords_from_json(value: &Value) -> dengraph_json::Result<Vec<KeywordId>> {
    value
        .as_arr()?
        .iter()
        .map(|k| k.as_u32().map(KeywordId))
        .collect()
}

/// Keyword lists here are sorted, so the binary form is a delta column.
fn keywords_to_bin(keywords: &[KeywordId], w: &mut dengraph_json::BinWriter) {
    w.delta_u32s(keywords.iter().map(|k| k.0));
}

fn keywords_from_bin(
    r: &mut dengraph_json::BinReader<'_>,
) -> dengraph_json::Result<Vec<KeywordId>> {
    Ok(r.delta_u32s()?.into_iter().map(KeywordId).collect())
}

/// A per-quantum snapshot of a reported event (one ranked cluster).
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedEvent {
    /// The underlying cluster id.
    pub cluster_id: ClusterId,
    /// Quantum at which this snapshot was taken.
    pub quantum: u64,
    /// Keywords of the cluster at this quantum, sorted.
    pub keywords: Vec<KeywordId>,
    /// Rank score (Section 6).
    pub rank: f64,
    /// Total support (distinct-user weight) behind the cluster.
    pub support: usize,
}

impl DetectedEvent {
    /// Streams the object [`Self::to_json`] builds, byte for byte.
    pub fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_obj();
        w.key("cluster_id");
        w.u64(self.cluster_id.0);
        w.key("keywords");
        write_keywords(&self.keywords, w);
        w.key("quantum");
        w.u64(self.quantum);
        w.key("rank");
        w.f64(self.rank);
        w.key("support");
        w.u64(self.support as u64);
        w.end_obj();
    }
}

impl Encode for DetectedEvent {
    /// Serialises the snapshot to a [`dengraph_json::Value`].
    fn to_json(&self) -> Value {
        Value::obj([
            ("cluster_id", Value::from(self.cluster_id.0)),
            ("quantum", Value::from(self.quantum)),
            ("keywords", keywords_to_json(&self.keywords)),
            ("rank", Value::from(self.rank)),
            ("support", Value::from(self.support)),
        ])
    }

    /// Appends the compact binary encoding.
    fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        w.u64(self.cluster_id.0);
        w.u64(self.quantum);
        keywords_to_bin(&self.keywords, w);
        w.f64(self.rank);
        w.usize(self.support);
    }
}

impl Decode for DetectedEvent {
    /// Reconstructs a snapshot serialised by [`Self::to_json`].
    fn from_json(value: &Value) -> dengraph_json::Result<Self> {
        Ok(Self {
            cluster_id: ClusterId(value.get("cluster_id")?.as_u64()?),
            quantum: value.get("quantum")?.as_u64()?,
            keywords: keywords_from_json(value.get("keywords")?)?,
            rank: value.get("rank")?.as_f64()?,
            support: value.get("support")?.as_usize()?,
        })
    }

    /// Reconstructs a snapshot encoded by [`Self::to_bin`].
    fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        Ok(Self {
            cluster_id: ClusterId(r.u64()?),
            quantum: r.u64()?,
            keywords: keywords_from_bin(r)?,
            rank: r.f64()?,
            support: r.usize()?,
        })
    }
}

/// The full history of one event across quanta.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventRecord {
    /// The cluster id the event is anchored to.
    pub cluster_id: ClusterId,
    /// First quantum in which the event was reported.
    pub first_seen: u64,
    /// Last quantum in which the event was reported.
    pub last_seen: u64,
    /// Keywords at the most recent report, sorted.
    pub keywords: Vec<KeywordId>,
    /// Union of every keyword the event has ever contained, sorted.
    pub all_keywords: Vec<KeywordId>,
    /// `(quantum, rank)` history in quantum order.
    pub rank_history: Vec<(u64, f64)>,
    /// Highest rank ever reached.
    pub peak_rank: f64,
    /// Highest support ever reached.
    pub peak_support: usize,
    /// Size of the keyword set at the first report (used by the evolution
    /// test; checkpoints preserve it so a restored tracker keeps judging
    /// evolution exactly as the uninterrupted run would).
    pub initial_size: usize,
}

impl EventRecord {
    /// Number of quanta for which the event was reported.
    pub fn reported_quanta(&self) -> usize {
        self.rank_history.len()
    }

    /// Did the keyword set ever change after the first report?
    pub fn evolved(&self) -> bool {
        if self.initial_size > 0 {
            self.all_keywords.len() > self.initial_size
        } else {
            // Deserialised records lose `initial_size`; fall back to
            // comparing the union against the latest snapshot.
            self.all_keywords.len() > self.keywords.len()
        }
    }

    /// Post-hoc spuriousness heuristic of Section 7.2.2: an event that never
    /// evolved and whose rank only ever decreased after its first report is
    /// considered spurious (a burst that flared and died).
    pub fn is_spurious_posthoc(&self) -> bool {
        if self.evolved() {
            return false;
        }
        if self.rank_history.len() <= 1 {
            // A single flash in the pan: no build-up, no evolution.
            return true;
        }
        self.rank_history.windows(2).all(|w| w[1].1 <= w[0].1)
    }

    /// Streams the *report* form of the record — what a
    /// [`JsonLinesSink`](crate::session::JsonLinesSink) `event` line
    /// carries: every field except `rank_history`, plus `"rank"` (the
    /// newest history point; its quantum is `last_seen`) and `"reports"`
    /// (the history's length).  The cost is O(keywords) whatever the
    /// event's age; [`Self::absorb_report`] folds the forms back into the
    /// full record.  Fields only, no braces, so the sink can add its
    /// `"type"` tag (which sorts after every key here).
    pub(crate) fn write_report_fields(&self, w: &mut JsonWriter<'_>) {
        w.key("all_keywords");
        write_keywords(&self.all_keywords, w);
        w.key("cluster_id");
        w.u64(self.cluster_id.0);
        w.key("first_seen");
        w.u64(self.first_seen);
        w.key("initial_size");
        w.u64(self.initial_size as u64);
        w.key("keywords");
        write_keywords(&self.keywords, w);
        w.key("last_seen");
        w.u64(self.last_seen);
        w.key("peak_rank");
        w.f64(self.peak_rank);
        w.key("peak_support");
        w.u64(self.peak_support as u64);
        w.key("rank");
        match self.rank_history.last() {
            Some(&(_, rank)) => w.f64(rank),
            None => w.null(),
        }
        w.key("reports");
        w.u64(self.rank_history.len() as u64);
    }

    /// Folds one report form (see [`Self::write_report_fields`]) into the
    /// record: overwrites every header field and appends
    /// `(last_seen, rank)` to the history.  Returns the form's `reports`
    /// count.  The record is untouched when the form is malformed.
    fn absorb_report(&mut self, value: &Value) -> dengraph_json::Result<usize> {
        let header = Self {
            cluster_id: ClusterId(value.get("cluster_id")?.as_u64()?),
            first_seen: value.get("first_seen")?.as_u64()?,
            last_seen: value.get("last_seen")?.as_u64()?,
            keywords: keywords_from_json(value.get("keywords")?)?,
            all_keywords: keywords_from_json(value.get("all_keywords")?)?,
            rank_history: Vec::new(),
            peak_rank: value.get("peak_rank")?.as_f64()?,
            peak_support: value.get("peak_support")?.as_usize()?,
            initial_size: value.get("initial_size")?.as_usize()?,
        };
        let rank = value.get("rank")?.as_f64()?;
        let reports = value.get("reports")?.as_usize()?;
        let mut rank_history = std::mem::take(&mut self.rank_history);
        rank_history.push((header.last_seen, rank));
        *self = Self {
            rank_history,
            ..header
        };
        Ok(reports)
    }
}

impl Encode for EventRecord {
    /// Serialises the full record, `initial_size` included.
    fn to_json(&self) -> Value {
        Value::obj([
            ("cluster_id", Value::from(self.cluster_id.0)),
            ("first_seen", Value::from(self.first_seen)),
            ("last_seen", Value::from(self.last_seen)),
            ("keywords", keywords_to_json(&self.keywords)),
            ("all_keywords", keywords_to_json(&self.all_keywords)),
            (
                "rank_history",
                Value::arr(
                    self.rank_history
                        .iter()
                        .map(|&(q, r)| Value::arr([Value::from(q), Value::from(r)])),
                ),
            ),
            ("peak_rank", Value::from(self.peak_rank)),
            ("peak_support", Value::from(self.peak_support)),
            ("initial_size", Value::from(self.initial_size)),
        ])
    }

    /// Appends the compact binary encoding.  Rank-history quanta are
    /// ascending (one report per quantum), so they delta-encode.
    fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        w.u64(self.cluster_id.0);
        w.u64(self.first_seen);
        w.u64(self.last_seen);
        keywords_to_bin(&self.keywords, w);
        keywords_to_bin(&self.all_keywords, w);
        w.usize(self.rank_history.len());
        let mut prev = 0u64;
        for (i, &(q, rank)) in self.rank_history.iter().enumerate() {
            w.u64(if i == 0 { q } else { q - prev });
            prev = q;
            w.f64(rank);
        }
        w.f64(self.peak_rank);
        w.usize(self.peak_support);
        w.usize(self.initial_size);
    }
}

impl Decode for EventRecord {
    /// Reconstructs a record serialised by [`Self::to_json`].
    fn from_json(value: &Value) -> dengraph_json::Result<Self> {
        let mut rank_history = Vec::new();
        for pair in value.get("rank_history")?.as_arr()? {
            let parts = pair.as_arr()?;
            if parts.len() != 2 {
                return Err(dengraph_json::JsonError {
                    message: format!("rank history pair has {} elements", parts.len()),
                    offset: 0,
                });
            }
            rank_history.push((parts[0].as_u64()?, parts[1].as_f64()?));
        }
        Ok(Self {
            cluster_id: ClusterId(value.get("cluster_id")?.as_u64()?),
            first_seen: value.get("first_seen")?.as_u64()?,
            last_seen: value.get("last_seen")?.as_u64()?,
            keywords: keywords_from_json(value.get("keywords")?)?,
            all_keywords: keywords_from_json(value.get("all_keywords")?)?,
            rank_history,
            peak_rank: value.get("peak_rank")?.as_f64()?,
            peak_support: value.get("peak_support")?.as_usize()?,
            initial_size: value.get("initial_size")?.as_usize()?,
        })
    }

    /// Reconstructs a record encoded by [`Self::to_bin`].
    fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        let cluster_id = ClusterId(r.u64()?);
        let first_seen = r.u64()?;
        let last_seen = r.u64()?;
        let keywords = keywords_from_bin(r)?;
        let all_keywords = keywords_from_bin(r)?;
        let history = r.seq_len(9)?;
        let mut rank_history = Vec::with_capacity(history);
        let mut prev = 0u64;
        for i in 0..history {
            let d = r.u64()?;
            let q = if i == 0 {
                d
            } else {
                prev.checked_add(d).ok_or(dengraph_json::JsonError {
                    message: "rank-history quantum overflows u64".into(),
                    offset: r.pos(),
                })?
            };
            prev = q;
            rank_history.push((q, r.f64()?));
        }
        Ok(Self {
            cluster_id,
            first_seen,
            last_seen,
            keywords,
            all_keywords,
            rank_history,
            peak_rank: r.f64()?,
            peak_support: r.usize()?,
            initial_size: r.usize()?,
        })
    }
}

/// Accumulates [`DetectedEvent`] snapshots into [`EventRecord`]s.
#[derive(Debug, Default, PartialEq)]
pub struct EventTracker {
    records: FxHashMap<ClusterId, EventRecord>,
}

impl EventTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one per-quantum event snapshot.
    pub fn observe(&mut self, event: &DetectedEvent) {
        // Every observe leaves `all_keywords` sorted, so it needs sorting
        // again only when this one created or extended it.
        let mut union_changed = false;
        let record = self.records.entry(event.cluster_id).or_insert_with(|| {
            union_changed = true;
            EventRecord {
                cluster_id: event.cluster_id,
                first_seen: event.quantum,
                last_seen: event.quantum,
                keywords: Vec::new(),
                all_keywords: event.keywords.clone(),
                rank_history: Vec::new(),
                peak_rank: 0.0,
                peak_support: 0,
                initial_size: event.keywords.len(),
            }
        });
        record.last_seen = event.quantum;
        // Reuses the record's buffer: this runs once per reported event
        // per quantum.
        record.keywords.clone_from(&event.keywords);
        for k in &event.keywords {
            if !record.all_keywords.contains(k) {
                record.all_keywords.push(*k);
                union_changed = true;
            }
        }
        if union_changed {
            record.all_keywords.sort_unstable();
        }
        record.rank_history.push((event.quantum, event.rank));
        if event.rank > record.peak_rank {
            record.peak_rank = event.rank;
        }
        if event.support > record.peak_support {
            record.peak_support = event.support;
        }
    }

    /// Folds one *report form* (what a `JsonLinesSink` `event` line
    /// carries, see [`EventRecord::write_report_fields`]) into the record
    /// of its event, created on its first report — [`Self::observe`] for a
    /// consumer on the far side of the sink.  Returns the event, the
    /// form's own `reports` count and the record's history length now; the
    /// two counts differ when earlier reports of the event were never
    /// folded.  A malformed form changes nothing.
    pub(crate) fn absorb_report(
        &mut self,
        value: &Value,
    ) -> dengraph_json::Result<(ClusterId, usize, usize)> {
        let cluster_id = ClusterId(value.get("cluster_id")?.as_u64()?);
        let mut first = EventRecord::default();
        let known = self.records.get_mut(&cluster_id);
        let is_first = known.is_none();
        let record = known.unwrap_or(&mut first);
        let reports = record.absorb_report(value)?;
        let seen = record.rank_history.len();
        if is_first {
            self.records.insert(cluster_id, first);
        }
        Ok((cluster_id, reports, seen))
    }

    /// All event records, in order of first appearance.
    pub fn records(&self) -> Vec<&EventRecord> {
        #[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
        let mut v: Vec<&EventRecord> = self.records.values().collect();
        v.sort_by_key(|r| (r.first_seen, r.cluster_id));
        v
    }

    /// Number of distinct events seen so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records that are not flagged spurious by the post-hoc heuristic.
    pub fn non_spurious_records(&self) -> Vec<&EventRecord> {
        self.records()
            .into_iter()
            .filter(|r| !r.is_spurious_posthoc())
            .collect()
    }

    /// The record of the event anchored to `cluster_id`, if any.
    pub fn get(&self, cluster_id: ClusterId) -> Option<&EventRecord> {
        self.records.get(&cluster_id)
    }

    /// The rank the event of `cluster_id` was reported with at `quantum`,
    /// if its newest report is from that quantum.
    pub(crate) fn outcome_at(&self, cluster_id: ClusterId, quantum: u64) -> Option<f64> {
        match self.records.get(&cluster_id)?.rank_history.last() {
            Some(&(at, rank)) if at == quantum => Some(rank),
            _ => None,
        }
    }
}

impl Encode for EventTracker {
    /// Serialises every record, ordered by cluster id for a canonical
    /// encoding.
    fn to_json(&self) -> Value {
        #[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
        let mut ids: Vec<ClusterId> = self.records.keys().copied().collect();
        ids.sort_unstable();
        Value::obj([(
            "records",
            Value::arr(ids.into_iter().map(|id| self.records[&id].to_json())),
        )])
    }

    /// Appends the compact binary encoding: every record, ordered by
    /// cluster id.
    fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        #[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
        let mut records: Vec<(&ClusterId, &EventRecord)> = self.records.iter().collect();
        records.sort_unstable_by_key(|&(id, _)| *id);
        w.usize(records.len());
        for (_, record) in records {
            record.to_bin(w);
        }
    }
}

impl Decode for EventTracker {
    /// Reconstructs a tracker serialised by [`Self::to_json`].
    fn from_json(value: &Value) -> dengraph_json::Result<Self> {
        let mut records = FxHashMap::default();
        for encoded in value.get("records")?.as_arr()? {
            let record = EventRecord::from_json(encoded)?;
            records.insert(record.cluster_id, record);
        }
        Ok(Self { records })
    }

    /// Reconstructs a tracker encoded by [`Self::to_bin`].
    fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        let count = r.seq_len(8)?;
        let mut records = FxHashMap::default();
        for _ in 0..count {
            let record = EventRecord::from_bin(r)?;
            records.insert(record.cluster_id, record);
        }
        Ok(Self { records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(ids: &[u32]) -> Vec<KeywordId> {
        ids.iter().map(|&i| KeywordId(i)).collect()
    }

    fn snapshot(cluster: u64, quantum: u64, keywords: &[u32], rank: f64) -> DetectedEvent {
        DetectedEvent {
            cluster_id: ClusterId(cluster),
            quantum,
            keywords: k(keywords),
            rank,
            support: (rank * 2.0) as usize,
        }
    }

    #[test]
    fn tracker_accumulates_history() {
        let mut t = EventTracker::new();
        t.observe(&snapshot(1, 10, &[1, 2, 3], 12.0));
        t.observe(&snapshot(1, 11, &[1, 2, 3, 4], 20.0));
        t.observe(&snapshot(1, 12, &[1, 2, 3, 4], 15.0));
        assert_eq!(t.len(), 1);
        let r = t.records()[0];
        assert_eq!(r.first_seen, 10);
        assert_eq!(r.last_seen, 12);
        assert_eq!(r.reported_quanta(), 3);
        assert_eq!(r.peak_rank, 20.0);
        assert_eq!(r.all_keywords, k(&[1, 2, 3, 4]));
        assert!(r.evolved());
        assert!(!r.is_spurious_posthoc());
    }

    #[test]
    fn keyword_union_stays_sorted_through_first_report_growth_and_repeats() {
        let mut t = EventTracker::new();
        // Unsorted on purpose: the union is sorted even on the report
        // that creates the record.
        t.observe(&snapshot(1, 5, &[9, 2, 5], 10.0));
        let r = t.get(ClusterId(1)).unwrap();
        assert_eq!(r.keywords, k(&[9, 2, 5]));
        assert_eq!(r.all_keywords, k(&[2, 5, 9]));
        // A repeat adds nothing; growth re-sorts; the latest snapshot
        // replaces `keywords` each time.
        t.observe(&snapshot(1, 6, &[2, 5, 9], 11.0));
        assert_eq!(t.get(ClusterId(1)).unwrap().all_keywords, k(&[2, 5, 9]));
        t.observe(&snapshot(1, 7, &[12, 5, 1], 9.0));
        let r = t.get(ClusterId(1)).unwrap();
        assert_eq!(r.keywords, k(&[12, 5, 1]));
        assert_eq!(r.all_keywords, k(&[1, 2, 5, 9, 12]));
        assert_eq!(r.initial_size, 3);
        assert_eq!(r.reported_quanta(), 3);
    }

    #[test]
    fn separate_clusters_are_separate_events() {
        let mut t = EventTracker::new();
        t.observe(&snapshot(1, 5, &[1, 2, 3], 10.0));
        t.observe(&snapshot(2, 5, &[7, 8, 9], 10.0));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn spurious_heuristic_flags_non_evolving_decaying_events() {
        let mut t = EventTracker::new();
        t.observe(&snapshot(1, 5, &[1, 2, 3], 30.0));
        t.observe(&snapshot(1, 6, &[1, 2, 3], 20.0));
        t.observe(&snapshot(1, 7, &[1, 2, 3], 10.0));
        let r = t.records()[0];
        assert!(!r.evolved());
        assert!(r.is_spurious_posthoc());
        assert!(t.non_spurious_records().is_empty());
    }

    #[test]
    fn single_flash_is_spurious() {
        let mut t = EventTracker::new();
        t.observe(&snapshot(1, 5, &[1, 2, 3], 30.0));
        assert!(t.records()[0].is_spurious_posthoc());
    }

    #[test]
    fn rank_buildup_marks_event_as_real() {
        let mut t = EventTracker::new();
        t.observe(&snapshot(1, 5, &[1, 2, 3], 10.0));
        t.observe(&snapshot(1, 6, &[1, 2, 3], 25.0));
        t.observe(&snapshot(1, 7, &[1, 2, 3], 18.0));
        let r = t.records()[0];
        assert!(
            !r.is_spurious_posthoc(),
            "non-monotonic rank history is a real event"
        );
    }

    #[test]
    fn keyword_evolution_marks_event_as_real_even_with_decaying_rank() {
        let mut t = EventTracker::new();
        t.observe(&snapshot(1, 5, &[1, 2, 3], 30.0));
        t.observe(&snapshot(1, 6, &[1, 2, 3, 4], 20.0));
        assert!(!t.records()[0].is_spurious_posthoc());
    }

    #[test]
    fn records_are_ordered_by_first_appearance() {
        let mut t = EventTracker::new();
        t.observe(&snapshot(5, 20, &[1, 2, 3], 10.0));
        t.observe(&snapshot(3, 10, &[4, 5, 6], 10.0));
        let order: Vec<u64> = t.records().iter().map(|r| r.cluster_id.0).collect();
        assert_eq!(order, vec![3, 5]);
    }
}
