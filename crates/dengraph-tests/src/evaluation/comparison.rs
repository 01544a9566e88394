//! SCP clusters vs offline biconnected clusters (Section 7.3, Table 3).
//!
//! The comparison runs every clustering scheme over *exactly the same AKG*:
//! one [`DetectorSession`] processes the stream, and per quantum
//!
//! * the SCP column is the session's own report — the incremental SCP
//!   clusters, ranked and filtered as the engine reports them;
//! * the offline biconnected baseline recomputes the BCs of the session's
//!   whole AKG (with and without size-2 edge clusters) and ranks them with
//!   the same ranking function and window support; and
//! * the baselines' clusters are tracked into events by node-set overlap,
//!   so precision/recall can be compared.

use dengraph_core::akg::keyword_of;
use dengraph_core::evaluation::matching::match_records;
use dengraph_core::evaluation::precision_recall::precision_recall;
use dengraph_core::ranking::cluster_support;
use dengraph_core::{
    cluster_rank, ClusterId, DetectedEvent, DetectorBuilder, DetectorConfig, DetectorSession,
    EventRecord, EventTracker,
};
use dengraph_graph::NodeId;
use dengraph_stream::Trace;
use dengraph_text::KeywordId;

use super::quality::SnapshotQualityAccumulator;
use crate::baseline::offline_bc::{offline_bc_clusters, OfflineClusterScheme};

/// Per-scheme results (one column of Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeReport {
    /// Scheme name.
    pub name: String,
    /// Number of distinct events discovered over the run.
    pub events_discovered: usize,
    /// Precision against the trace's ground truth.
    pub precision: f64,
    /// Recall against the trace's ground truth.
    pub recall: f64,
    /// Average rank of reported clusters.
    pub avg_rank: f64,
    /// Average cluster size (nodes) of reported clusters.
    pub avg_cluster_size: f64,
    /// Total cluster snapshots reported across all quanta.
    pub cluster_snapshots: usize,
}

/// The full comparison (Table 3 plus the §7.3 derived statistics).
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeComparison {
    /// Incremental SCP clustering (the paper's technique).
    pub scp: SchemeReport,
    /// Offline biconnected clusters only.
    pub biconnected: SchemeReport,
    /// Offline biconnected clusters plus size-2 edge clusters.
    pub biconnected_plus_edges: SchemeReport,
    /// Additional cluster snapshots in the offline (+edges) method relative
    /// to SCP, in percent (the paper's `Ac`, +276 %).
    pub additional_clusters_pct: f64,
    /// Additional events in the offline (+edges) method relative to SCP, in
    /// percent (the paper's `AE`, −11.1 %).
    pub additional_events_pct: f64,
    /// Percentage of offline BC clusters (≥3 nodes) that exactly match an
    /// SCP cluster of the same quantum (the paper reports 74.5 %).
    pub exact_overlap_pct: f64,
}

/// One reported cluster of a quantum: its sorted keywords, rank and
/// support.
type Snapshot = (Vec<KeywordId>, f64, usize);

/// One offline baseline across quanta.  Its clusters have no identity of
/// their own, so each is tracked into an event by node-set overlap with
/// the previous quantum's clusters.
#[derive(Debug, Default)]
struct OfflineScheme {
    tracker: EventTracker,
    quality: SnapshotQualityAccumulator,
    /// The previous quantum's clusters and their synthetic ids.
    previous: Vec<(Vec<KeywordId>, ClusterId)>,
    next_id: u64,
}

impl OfflineScheme {
    /// Tracks one quantum's clusters, sorted by keyword set.  A cluster
    /// continues the previous quantum's cluster it shares the most
    /// keywords with, if that is at least half of its own; each previous
    /// cluster is claimed at most once, in snapshot order.  Otherwise the
    /// cluster starts a new event.
    fn observe_quantum(&mut self, snapshot: &[Snapshot], quantum: u64) {
        let mut unclaimed = std::mem::take(&mut self.previous);
        for (keywords, rank, support) in snapshot {
            let mut best: Option<(usize, usize)> = None;
            for (i, (previous, _)) in unclaimed.iter().enumerate() {
                let shared = keywords.iter().filter(|k| previous.contains(k)).count();
                if shared * 2 >= keywords.len().max(1) && best.is_none_or(|(s, _)| shared > s) {
                    best = Some((shared, i));
                }
            }
            let cluster_id = match best {
                Some((_, i)) => unclaimed.remove(i).1,
                None => {
                    let id = ClusterId(self.next_id);
                    self.next_id += 1;
                    id
                }
            };
            self.previous.push((keywords.clone(), cluster_id));
            self.quality.add(keywords.len(), *rank);
            self.tracker.observe(&DetectedEvent {
                cluster_id,
                quantum,
                keywords: keywords.clone(),
                rank: *rank,
                support: *support,
            });
        }
    }
}

/// The offline baselines' clusters of the session's current AKG, each
/// sorted by keyword set: the biconnected clusters of three or more nodes
/// that clear the rank threshold, and every cluster including the size-2
/// edge clusters, unfiltered.
fn offline_snapshots(session: &DetectorSession) -> (Vec<Snapshot>, Vec<Snapshot>) {
    let graph = session.akg();
    let window = session.detector().window();
    let support = |node: NodeId| window.window_user_count(keyword_of(node));
    let rank_threshold = session.config().rank_report_threshold();
    let (mut bc, mut bce) = (Vec::new(), Vec::new());
    for cluster in offline_bc_clusters(graph, OfflineClusterScheme::BiconnectedPlusEdges) {
        let rank = cluster_rank(&cluster, graph, &support);
        let keywords: Vec<KeywordId> = cluster.sorted_nodes().into_iter().map(keyword_of).collect();
        let snapshot = (keywords, rank, cluster_support(&cluster, &support));
        if cluster.size() >= 3 && rank >= rank_threshold {
            bc.push(snapshot.clone());
        }
        // The +edges scheme reports everything, including size-2 clusters
        // (no rank filter can save them: that is the point of the
        // baseline's poor precision).
        bce.push(snapshot);
    }
    // The BC decomposition walks hash-ordered adjacency maps.
    bc.sort_by(|a, b| a.0.cmp(&b.0));
    bce.sort_by(|a, b| a.0.cmp(&b.0));
    (bc, bce)
}

/// Runs the full scheme comparison over one trace.
pub fn compare_schemes(trace: &Trace, config: &DetectorConfig) -> SchemeComparison {
    let mut session = DetectorBuilder::from_config(config.clone())
        .build()
        .expect("evaluation configs are validated upstream");
    let mut scp_quality = SnapshotQualityAccumulator::new();
    let mut bc = OfflineScheme::default();
    let mut bce = OfflineScheme::default();
    let (mut exact_overlap_hits, mut exact_overlap_total) = (0usize, 0usize);

    for messages in trace.messages.chunks(config.quantum_size.max(1)) {
        let summary = session.process_quantum(messages);
        // Report order is by rank; the quality sums run in keyword-set
        // order, like the baselines'.
        let mut scp = summary.events;
        scp.sort_by(|a, b| a.keywords.cmp(&b.keywords));
        for event in &scp {
            scp_quality.add(event.keywords.len(), event.rank);
        }

        let (bc_snapshot, bce_snapshot) = offline_snapshots(&session);
        exact_overlap_total += bc_snapshot.len();
        exact_overlap_hits += bc_snapshot
            .iter()
            .filter(|(keywords, _, _)| scp.iter().any(|e| e.keywords == *keywords))
            .count();
        bc.observe_quantum(&bc_snapshot, summary.quantum);
        bce.observe_quantum(&bce_snapshot, summary.quantum);
    }

    let scheme_report =
        |name: &str, records: &[&EventRecord], quality: &SnapshotQualityAccumulator| {
            let match_report = match_records(records, &trace.ground_truth);
            let pr = precision_recall(&match_report, &trace.ground_truth);
            let q = quality.finish();
            SchemeReport {
                name: name.to_string(),
                events_discovered: records.len(),
                precision: pr.precision,
                recall: pr.recall,
                avg_rank: q.avg_rank,
                avg_cluster_size: q.avg_cluster_size,
                cluster_snapshots: q.clusters,
            }
        };
    let scp = scheme_report("SCP clusters", &session.event_records(), &scp_quality);
    let biconnected = scheme_report("Bi-connected clusters", &bc.tracker.records(), &bc.quality);
    let biconnected_plus_edges = scheme_report(
        "Bi-connected clusters + edges",
        &bce.tracker.records(),
        &bce.quality,
    );

    let pct = |offline: usize, scp_value: usize| {
        if scp_value == 0 {
            0.0
        } else {
            (offline as f64 - scp_value as f64) / scp_value as f64 * 100.0
        }
    };
    SchemeComparison {
        additional_clusters_pct: pct(
            biconnected_plus_edges.cluster_snapshots,
            scp.cluster_snapshots,
        ),
        additional_events_pct: pct(
            biconnected_plus_edges.events_discovered,
            scp.events_discovered,
        ),
        exact_overlap_pct: if exact_overlap_total == 0 {
            0.0
        } else {
            exact_overlap_hits as f64 / exact_overlap_total as f64 * 100.0
        },
        scp,
        biconnected,
        biconnected_plus_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dengraph_stream::generator::profiles::{tw_profile, ProfileScale};
    use dengraph_stream::StreamGenerator;

    #[test]
    fn comparison_runs_and_produces_sane_shapes() {
        let trace = StreamGenerator::new(tw_profile(5, ProfileScale::Small)).generate();
        let config = DetectorConfig {
            quantum_size: 160,
            window_quanta: 20,
            ..Default::default()
        };
        let cmp = compare_schemes(&trace, &config);
        // The SCP scheme must find at least one event on a trace with
        // injected events.
        assert!(cmp.scp.events_discovered > 0);
        // The +edges baseline reports far more cluster snapshots …
        assert!(cmp.biconnected_plus_edges.cluster_snapshots >= cmp.scp.cluster_snapshots);
        // … and its precision is no better than the SCP scheme's.
        assert!(cmp.biconnected_plus_edges.precision <= cmp.scp.precision + 1e-9);
        // Exact overlap is a percentage.
        assert!((0.0..=100.0).contains(&cmp.exact_overlap_pct));
    }

    /// After `{a,b,c}`, the size-2 clusters `{a,b}` and `{a,c}` both
    /// overlap it by half; only the first continues its event.
    #[test]
    fn a_previous_cluster_is_claimed_at_most_once_per_quantum() {
        let (a, b, c) = (KeywordId(1), KeywordId(2), KeywordId(3));
        let mut scheme = OfflineScheme::default();
        scheme.observe_quantum(&[(vec![a, b, c], 1.0, 3)], 0);
        scheme.observe_quantum(&[(vec![a, b], 1.0, 2), (vec![a, c], 1.0, 2)], 1);
        let records = scheme.tracker.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].keywords, vec![a, b]);
        assert_eq!(records[0].rank_history.len(), 2);
        assert_eq!(records[1].all_keywords, vec![a, c]);
        assert_eq!(records[1].rank_history, vec![(1, 1.0)]);
    }
}
