//! Event-quality statistics (Section 7.2.4).
//!
//! Besides precision and recall the paper tracks two quality measures:
//! the *average cluster size* (small, focused clusters are preferable) and
//! the *average cluster rank* (a proxy for how strong the discovered
//! clusters are).

use dengraph_core::EventRecord;

/// Quality statistics over a set of discovered events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityStats {
    /// Number of events the statistics were computed over.
    pub events: usize,
    /// Mean number of keywords per event (using the event's full keyword
    /// union, i.e. the evolved cluster).
    pub avg_cluster_size: f64,
    /// Mean peak rank of the events.
    pub avg_rank: f64,
    /// Mean number of quanta an event stayed reported.
    pub avg_lifetime_quanta: f64,
    /// Fraction of events whose keyword set evolved after first report.
    pub evolved_fraction: f64,
}

impl Default for QualityStats {
    fn default() -> Self {
        Self {
            events: 0,
            avg_cluster_size: 0.0,
            avg_rank: 0.0,
            avg_lifetime_quanta: 0.0,
            evolved_fraction: 0.0,
        }
    }
}

/// Computes quality statistics from event records.
pub fn quality_stats(records: &[&EventRecord]) -> QualityStats {
    if records.is_empty() {
        return QualityStats::default();
    }
    let n = records.len() as f64;
    let avg_cluster_size = records
        .iter()
        .map(|r| r.all_keywords.len() as f64)
        .sum::<f64>()
        / n;
    let avg_rank = records.iter().map(|r| r.peak_rank).sum::<f64>() / n;
    let avg_lifetime_quanta = records
        .iter()
        .map(|r| r.reported_quanta() as f64)
        .sum::<f64>()
        / n;
    let evolved_fraction = records.iter().filter(|r| r.evolved()).count() as f64 / n;
    QualityStats {
        events: records.len(),
        avg_cluster_size,
        avg_rank,
        avg_lifetime_quanta,
        evolved_fraction,
    }
}

/// Quality statistics computed directly from per-quantum cluster snapshots
/// (used by the offline baselines, which have no cross-quantum identity).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SnapshotQuality {
    /// Number of cluster snapshots.
    pub clusters: usize,
    /// Mean cluster size (nodes).
    pub avg_cluster_size: f64,
    /// Mean cluster rank.
    pub avg_rank: f64,
}

/// Accumulates snapshot quality incrementally.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotQualityAccumulator {
    count: usize,
    size_sum: f64,
    rank_sum: f64,
}

impl SnapshotQualityAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one cluster snapshot.
    pub fn add(&mut self, size: usize, rank: f64) {
        self.count += 1;
        self.size_sum += size as f64;
        self.rank_sum += rank;
    }

    /// Finalises the statistics.
    pub fn finish(&self) -> SnapshotQuality {
        if self.count == 0 {
            return SnapshotQuality::default();
        }
        SnapshotQuality {
            clusters: self.count,
            avg_cluster_size: self.size_sum / self.count as f64,
            avg_rank: self.rank_sum / self.count as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dengraph_core::ClusterId;
    use dengraph_text::KeywordId;

    fn record(keywords: usize, peak_rank: f64, quanta: usize) -> EventRecord {
        EventRecord {
            cluster_id: ClusterId(0),
            first_seen: 0,
            last_seen: quanta as u64,
            keywords: (0..keywords as u32).map(KeywordId).collect(),
            all_keywords: (0..keywords as u32).map(KeywordId).collect(),
            rank_history: (0..quanta as u64).map(|q| (q, peak_rank)).collect(),
            peak_rank,
            peak_support: 10,
            ..Default::default()
        }
    }

    #[test]
    fn averages_are_computed() {
        let a = record(4, 10.0, 2);
        let b = record(8, 30.0, 4);
        let stats = quality_stats(&[&a, &b]);
        assert_eq!(stats.events, 2);
        assert!((stats.avg_cluster_size - 6.0).abs() < 1e-12);
        assert!((stats.avg_rank - 20.0).abs() < 1e-12);
        assert!((stats.avg_lifetime_quanta - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input_gives_zeroed_stats() {
        let stats = quality_stats(&[]);
        assert_eq!(stats.events, 0);
        assert_eq!(stats.avg_cluster_size, 0.0);
    }

    #[test]
    fn snapshot_accumulator() {
        let mut acc = SnapshotQualityAccumulator::new();
        acc.add(3, 10.0);
        acc.add(5, 20.0);
        let q = acc.finish();
        assert_eq!(q.clusters, 2);
        assert!((q.avg_cluster_size - 4.0).abs() < 1e-12);
        assert!((q.avg_rank - 15.0).abs() < 1e-12);
        assert_eq!(
            SnapshotQualityAccumulator::new().finish(),
            SnapshotQuality::default()
        );
    }
}
