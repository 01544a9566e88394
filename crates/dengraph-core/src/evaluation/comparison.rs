//! SCP clusters vs offline biconnected clusters (Section 7.3, Table 3).
//!
//! The comparison runs all clustering schemes over *exactly the same AKG*:
//! one shared AKG maintainer processes the stream, and per quantum
//!
//! * the incremental SCP maintenance applies the AKG deltas locally,
//! * the offline biconnected baseline recomputes the BCs of the whole AKG
//!   (with and without size-2 edge clusters), and
//! * every scheme's clusters are ranked with the same ranking function and
//!   tracked into events so precision/recall can be compared.

use std::time::Instant;

use dengraph_graph::NodeId;
use dengraph_minhash::UserHasher;
use dengraph_stream::Trace;
use dengraph_text::KeywordId;

use crate::akg::{keyword_of, AkgMaintainer};
use crate::baseline::offline_bc::{offline_bc_clusters, OfflineClusterScheme};
use crate::cluster::{Cluster, ClusterId, ClusterMaintainer};
use crate::config::DetectorConfig;
use crate::detector::WINDOW_HASHER_SEED;
use crate::evaluation::matching::match_records;
use crate::evaluation::precision_recall::precision_recall;
use crate::evaluation::quality::SnapshotQualityAccumulator;
use crate::event::{DetectedEvent, EventTracker};
use crate::keyword_state::{QuantumRecord, WindowState};
use crate::ranking::{cluster_rank, cluster_support};

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
    /// Wall-clock milliseconds spent on clustering + ranking.
    pub clustering_ms: f64,
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
    /// How much faster the incremental SCP clustering ran than the offline
    /// recomputation, in percent (the paper reports 46 %).
    pub scp_speedup_pct: f64,
}

/// Tracks offline clusters across quanta by node-set overlap, giving them a
/// synthetic stable identity so events can be counted for the baselines.
#[derive(Debug, Default)]
struct OfflineEventTracker {
    tracker: EventTracker,
    /// node-set (sorted) of previous quantum's clusters -> synthetic id
    previous: Vec<(Vec<NodeId>, ClusterId)>,
    next_id: u64,
}

impl OfflineEventTracker {
    fn assign_id(&mut self, nodes: &[NodeId]) -> ClusterId {
        // Same event if at least half the nodes overlap with a previous
        // quantum's cluster.
        let mut best: Option<(usize, ClusterId)> = None;
        for (prev_nodes, id) in &self.previous {
            let shared = nodes.iter().filter(|n| prev_nodes.contains(n)).count();
            if shared * 2 >= nodes.len().max(1) && best.is_none_or(|(s, _)| shared > s) {
                best = Some((shared, *id));
            }
        }
        match best {
            Some((_, id)) => id,
            None => {
                let id = ClusterId(self.next_id);
                self.next_id += 1;
                id
            }
        }
    }

    fn observe_quantum(&mut self, clusters: &[(Vec<NodeId>, f64, usize)], quantum: u64) {
        let mut current = Vec::with_capacity(clusters.len());
        for (nodes, rank, support) in clusters {
            let id = self.assign_id(nodes);
            current.push((nodes.clone(), id));
            let keywords: Vec<KeywordId> = nodes.iter().map(|&n| keyword_of(n)).collect();
            self.tracker.observe(&DetectedEvent {
                cluster_id: id,
                quantum,
                keywords,
                rank: *rank,
                support: *support,
            });
        }
        self.previous = current;
    }
}

/// Runs the full scheme comparison over one trace.
pub fn compare_schemes(trace: &Trace, config: &DetectorConfig) -> SchemeComparison {
    let mut window = WindowState::new(
        config.window_quanta,
        config.sketch_size(),
        UserHasher::new(WINDOW_HASHER_SEED),
    );
    let mut akg = AkgMaintainer::new(config.clone());
    let mut scp_clusters = ClusterMaintainer::new();
    let mut scp_tracker = EventTracker::new();
    let mut bc_tracker = OfflineEventTracker::default();
    let mut bce_tracker = OfflineEventTracker::default();

    let mut scp_quality = SnapshotQualityAccumulator::new();
    let mut bc_quality = SnapshotQualityAccumulator::new();
    let mut bce_quality = SnapshotQualityAccumulator::new();

    let mut scp_snapshots = 0usize;
    let mut bc_snapshots = 0usize;
    let mut bce_snapshots = 0usize;

    let mut scp_time = 0.0f64;
    let mut offline_time = 0.0f64;

    let mut exact_overlap_hits = 0usize;
    let mut exact_overlap_total = 0usize;

    for (index, messages) in (0u64..).zip(trace.messages.chunks(config.quantum_size.max(1))) {
        let record = QuantumRecord::from_messages(index, messages);
        window.push(record.clone());
        let registry_probe = &scp_clusters;
        let deltas = akg.process_quantum(&record, &window, |kw| {
            registry_probe
                .registry()
                .is_cluster_member(crate::akg::node_of(kw))
        });

        let support = |node: NodeId| window.window_user_count(keyword_of(node));

        // --- incremental SCP -------------------------------------------------
        let start = Instant::now();
        scp_clusters.apply_deltas(akg.graph(), &deltas, index);
        let mut scp_snapshot: Vec<(Vec<NodeId>, f64, usize)> = Vec::new();
        for c in scp_clusters.clusters() {
            let rank = cluster_rank(c, akg.graph(), &support);
            if rank < config.rank_report_threshold() {
                continue;
            }
            scp_snapshot.push((c.sorted_nodes(), rank, cluster_support(c, &support)));
        }
        scp_time += start.elapsed().as_secs_f64();
        // `clusters()` iterates an FxHashMap; sort each snapshot by node
        // set so downstream synthetic-id assignment and record ordering
        // never see hash-iteration order.
        scp_snapshot.sort_by(|a, b| a.0.cmp(&b.0));
        scp_snapshots += scp_snapshot.len();
        for (nodes, rank, support_value) in &scp_snapshot {
            scp_quality.add(nodes.len(), *rank);
            let keywords: Vec<KeywordId> = nodes.iter().map(|&n| keyword_of(n)).collect();
            // Anchor SCP events to the real (stable) cluster ids.
            let id = scp_clusters
                .clusters()
                .find(|c| c.sorted_nodes() == *nodes)
                .map(|c| c.id)
                .unwrap_or(ClusterId(u64::MAX));
            scp_tracker.observe(&DetectedEvent {
                cluster_id: id,
                quantum: index,
                keywords,
                rank: *rank,
                support: *support_value,
            });
        }

        // --- offline biconnected (both flavours) -----------------------------
        let start = Instant::now();
        let bce = offline_bc_clusters(akg.graph(), OfflineClusterScheme::BiconnectedPlusEdges);
        let rank_of = |c: &Cluster| cluster_rank(c, akg.graph(), &support);
        let mut bc_snapshot: Vec<(Vec<NodeId>, f64, usize)> = Vec::new();
        let mut bce_snapshot: Vec<(Vec<NodeId>, f64, usize)> = Vec::new();
        for c in &bce {
            let rank = rank_of(c);
            let entry = (c.sorted_nodes(), rank, cluster_support(c, &support));
            if c.size() >= 3 && rank >= config.rank_report_threshold() {
                bc_snapshot.push(entry.clone());
            }
            // The +edges scheme reports everything, including size-2 clusters
            // (no rank filter can save them: that is the point of the
            // baseline's poor precision).
            bce_snapshot.push(entry);
        }
        offline_time += start.elapsed().as_secs_f64();
        // Same hash-order shielding for the offline baselines (the BC
        // decomposition walks hash-ordered adjacency maps).
        bc_snapshot.sort_by(|a, b| a.0.cmp(&b.0));
        bce_snapshot.sort_by(|a, b| a.0.cmp(&b.0));

        bc_snapshots += bc_snapshot.len();
        bce_snapshots += bce_snapshot.len();
        for (nodes, rank, _) in &bc_snapshot {
            bc_quality.add(nodes.len(), *rank);
        }
        for (nodes, rank, _) in &bce_snapshot {
            bce_quality.add(nodes.len(), *rank);
        }
        bc_tracker.observe_quantum(&bc_snapshot, index);
        bce_tracker.observe_quantum(&bce_snapshot, index);

        // --- exact overlap between BC(≥3) clusters and SCP clusters ----------
        for (nodes, _, _) in &bc_snapshot {
            exact_overlap_total += 1;
            if scp_snapshot
                .iter()
                .any(|(scp_nodes, _, _)| scp_nodes == nodes)
            {
                exact_overlap_hits += 1;
            }
        }
    }

    let scheme_report = |name: &str,
                         tracker: &EventTracker,
                         quality: &SnapshotQualityAccumulator,
                         snapshots: usize,
                         clustering_ms: f64| {
        let records = tracker.records();
        let match_report = match_records(&records, &trace.ground_truth);
        let pr = precision_recall(&match_report, &trace.ground_truth);
        let q = quality.finish();
        SchemeReport {
            name: name.to_string(),
            events_discovered: records.len(),
            precision: pr.precision,
            recall: pr.recall,
            avg_rank: q.avg_rank,
            avg_cluster_size: q.avg_cluster_size,
            cluster_snapshots: snapshots,
            clustering_ms,
        }
    };

    let scp = scheme_report(
        "SCP clusters",
        &scp_tracker,
        &scp_quality,
        scp_snapshots,
        scp_time * 1000.0,
    );
    let biconnected = scheme_report(
        "Bi-connected clusters",
        &bc_tracker.tracker,
        &bc_quality,
        bc_snapshots,
        offline_time * 1000.0,
    );
    let biconnected_plus_edges = scheme_report(
        "Bi-connected clusters + edges",
        &bce_tracker.tracker,
        &bce_quality,
        bce_snapshots,
        offline_time * 1000.0,
    );

    let pct = |offline: f64, scp_value: f64| {
        if scp_value == 0.0 {
            0.0
        } else {
            (offline - scp_value) / scp_value * 100.0
        }
    };
    SchemeComparison {
        additional_clusters_pct: pct(bce_snapshots as f64, scp_snapshots as f64),
        additional_events_pct: pct(
            biconnected_plus_edges.events_discovered as f64,
            scp.events_discovered as f64,
        ),
        exact_overlap_pct: if exact_overlap_total == 0 {
            0.0
        } else {
            exact_overlap_hits as f64 / exact_overlap_total as f64 * 100.0
        },
        scp_speedup_pct: if offline_time > 0.0 {
            (offline_time - scp_time) / offline_time * 100.0
        } else {
            0.0
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
}
