//! The per-quantum pipeline re-composed from the layers' public functions,
//! one span per call.
//!
//! `DetectorSession::push_message` is one opaque call; to give every layer
//! its own number *without touching the engine*, this module performs the
//! same steps in the same order through the same public entry points the
//! detector uses internally — aggregate → slide → `process_quantum` →
//! `apply_deltas_indexed` → support counts → rank/filter/report → tracker
//! → sink — and wraps each in a [`Recorder`] span.  It reports exactly the
//! session's events, quantum for quantum (`trace.replay_match_pct`), and
//! `trace.coverage_pct` states how much of the untraced session's wall
//! time the spans account for.  Drift in either is the signal that tracing
//! has to move inside the engine.
//!
//! What cannot be re-composed from outside is the journal append (it takes
//! the detector itself); the WAL's cost is measured as the difference
//! between a journaled and a plain session pass instead.

use dengraph_core::akg::{keyword_of, node_of};
use dengraph_core::keyword_state::{QuantumRecord, WindowState};
use dengraph_core::ranking::cluster_support;
use dengraph_core::session::QuantumNotifications;
use dengraph_core::{
    cluster_rank, AkgMaintainer, ClusterMaintainer, DetectedEvent, DetectorConfig, EventRecord,
    EventSink, EventTracker, GraphDelta, JsonLinesSink, Parallelism, QuantumSummary,
    WindowIndexMode,
};
use dengraph_graph::{ComponentIndex, DynamicGraph, NodeId};
use dengraph_minhash::kernel::SketchLanes;
use dengraph_minhash::UserHasher;
use dengraph_stream::Message;
use dengraph_text::{KeywordId, KeywordInterner, NounHeuristic};

use crate::drive::CountingWriter;
use crate::trace::Recorder;

/// The seed of the detector's window hasher — the private
/// `WINDOW_HASHER_SEED` of `dengraph_core::detector`, copied because the
/// staged window must hash users exactly as a session's does to report
/// the same events.  `trace.replay_match_pct` falls below 100 if the two
/// ever part.
const WINDOW_HASHER_SEED: u64 = 0x5EED_CAFE;

/// Work counters of the quanta processed so far (sums; the caller
/// divides by the number of quanta).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Quanta counted.
    pub quanta: u64,
    /// `(keyword, user)` pairs aggregated.
    pub window_pairs: u64,
    /// Distinct keywords aggregated.
    pub window_keywords: u64,
    /// Candidate pairs whose correlation was scored.
    pub pairs_scored: u64,
    /// Bursty keywords.
    pub bursty: u64,
    /// AKG deltas emitted.
    pub deltas: u64,
    /// Deltas that added or re-weighted an edge: the useful outcomes of
    /// the pairs scored.
    pub edge_deltas: u64,
    /// AKG nodes resident after the quantum.
    pub akg_nodes: u64,
    /// AKG edges resident after the quantum.
    pub akg_edges: u64,
    /// Cluster-maintenance operations (edge additions, edge deletions,
    /// node removals).
    pub cluster_ops: u64,
    /// Live clusters after the quantum — every one is ranked.
    pub clusters: u64,
    /// Events reported.
    pub events: u64,
}

/// The re-composed detector.
pub struct Staged {
    config: DetectorConfig,
    window: WindowState,
    lanes: SketchLanes,
    akg: AkgMaintainer,
    clusters: ClusterMaintainer,
    tracker: EventTracker,
    vocabulary: KeywordInterner,
    nouns: NounHeuristic,
    sink: Option<JsonLinesSink<CountingWriter>>,
    deltas: Vec<GraphDelta>,
    shadow_graph: DynamicGraph,
    shadow_index: ComponentIndex,
    /// Counters over the quanta for which `count` was set.
    pub counters: Counters,
}

impl Staged {
    /// A detector at the paper's nominal configuration, serial, with the
    /// stream's vocabulary for the noun filter and, for a raw-text
    /// workload, a `JsonLinesSink` over `sink`.
    pub fn new(vocabulary: &KeywordInterner, sink: Option<CountingWriter>) -> Self {
        let config = DetectorConfig::nominal();
        let window = WindowState::with_mode(
            config.window_quanta,
            config.sketch_size(),
            UserHasher::new(WINDOW_HASHER_SEED),
            WindowIndexMode::Incremental,
        )
        .with_materialize_threshold(config.high_state_threshold as usize);
        Self {
            akg: AkgMaintainer::new(config.clone()),
            config,
            window,
            lanes: SketchLanes::new(),
            clusters: ClusterMaintainer::new(),
            tracker: EventTracker::new(),
            vocabulary: vocabulary.clone(),
            nouns: NounHeuristic::new(),
            sink: sink.map(JsonLinesSink::new),
            deltas: Vec::new(),
            shadow_graph: DynamicGraph::new(),
            shadow_index: ComponentIndex::new(),
            counters: Counters::default(),
        }
    }

    /// Processes one quantum, a span per layer call, and returns its
    /// summary.  The caller owns the enclosing `quantum` span.
    pub fn quantum(
        &mut self,
        quantum: u64,
        messages: &[Message],
        count: bool,
        rec: &mut Recorder,
    ) -> QuantumSummary {
        rec.enter("window.aggregate", quantum);
        let record = QuantumRecord::from_messages_with(quantum, messages, Parallelism::Serial);
        rec.exit();
        if count {
            self.counters.quanta += 1;
            self.counters.window_keywords += record.keyword_count() as u64;
            self.counters.window_pairs += record.iter().map(|(_, u)| u.len() as u64).sum::<u64>();
        }

        rec.enter("window.slide", quantum);
        let evicted = self.window.push_with_lanes(record, &mut self.lanes);
        rec.exit();
        let evicted_quantum = evicted.map(|r| r.index);

        rec.enter("akg.process", quantum);
        let record = self.window.current().expect("a record was just pushed");
        let registry = self.clusters.registry();
        self.deltas = self
            .akg
            .process_quantum(record, &self.window, |kw: KeywordId| {
                registry.is_cluster_member(node_of(kw))
            });
        rec.exit();

        rec.enter("cluster.apply", quantum);
        self.clusters.apply_deltas_indexed(
            self.akg.graph(),
            self.akg.components(),
            &self.deltas,
            quantum,
            Parallelism::Serial,
        );
        rec.exit();

        rec.enter("ranking.support", quantum);
        let mut cluster_nodes: Vec<NodeId> = self
            .clusters
            .clusters()
            .flat_map(|c| c.nodes.iter().copied())
            .collect();
        cluster_nodes.sort_unstable();
        cluster_nodes.dedup();
        let keywords: Vec<KeywordId> = cluster_nodes.iter().map(|&n| keyword_of(n)).collect();
        let counts = self
            .window
            .window_user_counts(&keywords, Parallelism::Serial);
        rec.exit();

        rec.enter("ranking.rank", quantum);
        let support = |node: NodeId| cluster_nodes.binary_search(&node).map_or(0, |i| counts[i]);
        let graph = self.akg.graph();
        let mut events: Vec<DetectedEvent> = Vec::new();
        for cluster in self.clusters.clusters() {
            let rank = cluster_rank(cluster, graph, &support);
            if rank < self.config.rank_report_threshold() {
                continue;
            }
            let mut keywords: Vec<KeywordId> =
                cluster.nodes.iter().map(|&n| keyword_of(n)).collect();
            keywords.sort();
            let has_noun = keywords
                .iter()
                .filter_map(|k| self.vocabulary.resolve(*k))
                .any(|w| self.nouns.is_noun(w));
            if self.config.require_noun && !has_noun {
                continue;
            }
            events.push(DetectedEvent {
                cluster_id: cluster.id,
                quantum,
                rank,
                support: cluster_support(cluster, &support),
                keywords,
            });
        }
        events.sort_by(|a, b| {
            b.rank
                .total_cmp(&a.rank)
                .then(a.cluster_id.cmp(&b.cluster_id))
        });
        for event in &events {
            self.tracker.observe(event);
        }
        let summary = QuantumSummary {
            quantum,
            messages: messages.len(),
            akg_stats: self.akg.last_stats(),
            maintenance_stats: self.clusters.last_stats(),
            live_clusters: self.clusters.cluster_count(),
            akg_nodes: graph.node_count(),
            akg_edges: graph.edge_count(),
            events,
            evicted_quantum,
        };
        rec.exit();

        if let Some(sink) = &mut self.sink {
            rec.enter("sink.deliver", quantum);
            let records: Vec<&EventRecord> = summary
                .events
                .iter()
                .filter_map(|e| self.tracker.get(e.cluster_id))
                .collect();
            sink.on_quantum_batch(&QuantumNotifications {
                summary: &summary,
                records: &records,
                evicted_quantum,
                window_quanta: self.config.window_quanta,
            });
            rec.exit();
        }

        if count {
            let c = &mut self.counters;
            c.pairs_scored += summary.akg_stats.pairs_evaluated as u64;
            c.bursty += summary.akg_stats.bursty_keywords as u64;
            c.deltas += self.deltas.len() as u64;
            c.edge_deltas += self
                .deltas
                .iter()
                .filter(|d| {
                    matches!(
                        d,
                        GraphDelta::EdgeAdded { .. } | GraphDelta::EdgeWeightUpdated { .. }
                    )
                })
                .count() as u64;
            c.akg_nodes += summary.akg_nodes as u64;
            c.akg_edges += summary.akg_edges as u64;
            let m = summary.maintenance_stats;
            c.cluster_ops += (m.edge_additions + m.edge_deletions + m.node_removals) as u64;
            c.clusters += summary.live_clusters as u64;
            c.events += summary.events.len() as u64;
        }
        summary
    }

    /// Replays the last quantum's delta log onto a shadow `DynamicGraph`
    /// and `ComponentIndex` under a `graph.apply` span: the graph layer's
    /// own cost, which inside the pipeline is interleaved with
    /// `akg.process`.  Extra work, so the caller keeps it outside the
    /// `quantum` span.
    pub fn replay_shadow(&mut self, quantum: u64, rec: &mut Recorder) {
        rec.enter("graph.apply", quantum);
        for delta in &self.deltas {
            match *delta {
                GraphDelta::NodeAdded { node } => {
                    self.shadow_graph.add_node(node);
                    self.shadow_index.add_node(node);
                }
                GraphDelta::NodeRemoved { node } => {
                    self.shadow_graph.remove_node(node);
                    self.shadow_index.remove_node(&self.shadow_graph, node);
                }
                GraphDelta::EdgeAdded { a, b, weight } => {
                    self.shadow_graph.add_edge(a, b, weight);
                    self.shadow_index.add_edge(a, b);
                }
                GraphDelta::EdgeWeightUpdated { a, b, weight } => {
                    self.shadow_graph.set_edge_weight(a, b, weight);
                }
                GraphDelta::EdgeRemoved { a, b } => {
                    self.shadow_graph.remove_edge(a, b);
                    self.shadow_index.remove_edge(&self.shadow_graph, a, b);
                }
            }
        }
        rec.exit();
    }

    /// `(nodes, edges)` of the shadow graph, which must equal the AKG's.
    pub fn shadow_matches(&self) -> bool {
        let graph = self.akg.graph();
        (
            self.shadow_graph.node_count(),
            self.shadow_graph.edge_count(),
        ) == (graph.node_count(), graph.edge_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{self, PassConfig};
    use crate::gen::{EventSpec, FamilySpec, StreamSpec};
    use crate::workload::{self, Entry, Workload, QUANTUM};

    fn small(entry: Entry) -> Workload {
        Workload {
            name: "small",
            why: "test",
            entry,
            durable: false,
            spec: || StreamSpec {
                rounds: 120,
                round_size: QUANTUM,
                vocabulary: 2_000,
                zipf_exponent: 1.1,
                authors: 5_000,
                keywords_per_post: (3, 7),
                events: EventSpec {
                    per_600_rounds: [96, 72, 24, 16],
                    peak: (20, 40),
                    duration: (6, 16),
                    keyword_prob: 0.75,
                },
                families: FamilySpec {
                    count: 20,
                    size: 6,
                    period: 10,
                    mortal_every: 5,
                    pulse: (5, 7),
                    keyword_prob: 0.85,
                },
            },
            default_seed_digest: 0,
        }
    }

    #[test]
    fn staged_pipeline_reports_the_sessions_events_quantum_for_quantum() {
        for entry in [Entry::Interned, Entry::RawText] {
            let workload = small(entry);
            let input = workload::prepare(&workload, 9);
            let (stats, session) =
                drive::run_pass(&workload, &input, PassConfig::PLAIN).expect("session pass");
            assert!(stats.events > 0, "the fixture must report events");

            let writer = drive::CountingWriter::default();
            let sink = (entry == Entry::RawText).then(|| writer.clone());
            let mut staged = Staged::new(&input.vocabulary, sink);
            let mut rec = Recorder::with_capacity(4096);
            let mut digests = Vec::new();
            for (q, chunk) in input.messages.chunks(QUANTUM).enumerate() {
                rec.enter("quantum", q as u64);
                let summary = staged.quantum(q as u64, chunk, true, &mut rec);
                rec.exit();
                staged.replay_shadow(q as u64, &mut rec);
                digests.push(drive::summary_digest(&summary));
            }
            assert_eq!(digests, stats.quantum_digests);
            assert!(staged.shadow_matches());
            assert_eq!(staged.counters.quanta, 120);
            assert_eq!(staged.counters.events, stats.events);
            assert_eq!(staged.tracker.len(), session.event_records().len());
            if entry == Entry::RawText {
                assert!(writer.written().1 >= 120, "one line per quantum at least");
            }
        }
    }
}
