//! The end-to-end real-time event detector.
//!
//! [`EventDetector`] wires the pieces of the paper together.  Per quantum of
//! Δ messages it
//!
//! 1. aggregates the quantum into per-keyword user sets and slides the
//!    window ([`crate::keyword_state`]),
//! 2. updates the AKG — node admission, edge correlations, stale removal
//!    ([`crate::akg`], Section 3),
//! 3. applies the resulting deltas to the cluster registry with the local
//!    short-cycle maintenance algorithms ([`crate::cluster`], Sections 4–5),
//! 4. ranks every live cluster ([`crate::ranking`], Section 6), filters by
//!    the rank threshold and the noun requirement (Section 7.2.2), and
//! 5. reports the surviving clusters as this quantum's emerging events,
//!    feeding the long-term [`EventTracker`].

use dengraph_json::{Decode, Encode};
use dengraph_minhash::UserHasher;
use dengraph_stream::{Message, Quantum};
use dengraph_text::{KeywordId, KeywordInterner, NounHeuristic};

use crate::akg::{keyword_of, node_of, AkgMaintainer, AkgQuantumStats};
use crate::cluster::maintainer::MaintenanceStats;
use crate::cluster::ClusterMaintainer;
use crate::config::DetectorConfig;
use crate::event::{DetectedEvent, EventRecord, EventTracker};
use crate::keyword_state::{QuantumRecord, WindowIndexMode, WindowState};
use crate::ranking::rank_and_support;
use crate::scratch::ScratchArena;

/// Summary of one processed quantum.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantumSummary {
    /// Quantum index (0-based).
    pub quantum: u64,
    /// Messages processed in this quantum.
    pub messages: usize,
    /// Events reported this quantum, ranked best-first.
    pub events: Vec<DetectedEvent>,
    /// AKG maintenance statistics.
    pub akg_stats: AkgQuantumStats,
    /// Cluster maintenance statistics.
    pub maintenance_stats: MaintenanceStats,
    /// Number of live clusters after this quantum (before report filters).
    pub live_clusters: usize,
    /// Number of AKG nodes after this quantum.
    pub akg_nodes: usize,
    /// Number of AKG edges after this quantum.
    pub akg_edges: usize,
    /// The quantum that slid out of the window while processing this one,
    /// if the window was already full ([`EventSink::on_slide`]
    /// notifications derive from this).
    ///
    /// [`EventSink::on_slide`]: crate::session::EventSink::on_slide
    pub evicted_quantum: Option<u64>,
}

impl QuantumSummary {
    /// Serialises the summary to a [`dengraph_json::Value`] (the shape
    /// [`JsonLinesSink`](crate::session::JsonLinesSink) writes).
    pub fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        Value::obj([
            ("quantum", Value::from(self.quantum)),
            ("messages", Value::from(self.messages)),
            (
                "events",
                Value::arr(self.events.iter().map(|e| e.to_json())),
            ),
            ("akg_stats", self.akg_stats.to_json()),
            ("maintenance_stats", self.maintenance_stats.to_json()),
            ("live_clusters", Value::from(self.live_clusters)),
            ("akg_nodes", Value::from(self.akg_nodes)),
            ("akg_edges", Value::from(self.akg_edges)),
            (
                "evicted_quantum",
                match self.evicted_quantum {
                    Some(q) => Value::from(q),
                    None => Value::Null,
                },
            ),
        ])
    }

    /// Streams the object [`Self::to_json`] builds, byte for byte, with no
    /// intermediate tree.
    pub fn write_json(&self, w: &mut dengraph_json::JsonWriter<'_>) {
        w.begin_obj();
        self.write_fields(w);
        w.end_obj();
    }

    /// The fields of [`Self::write_json`] without the enclosing braces, so
    /// [`JsonLinesSink`](crate::session::JsonLinesSink) can append its
    /// `"type"` tag (which sorts after every key here) to the same object.
    pub(crate) fn write_fields(&self, w: &mut dengraph_json::JsonWriter<'_>) {
        w.key("akg_edges");
        w.u64(self.akg_edges as u64);
        w.key("akg_nodes");
        w.u64(self.akg_nodes as u64);
        w.key("akg_stats");
        self.akg_stats.write_json(w);
        w.key("events");
        w.begin_arr();
        for event in &self.events {
            event.write_json(w);
        }
        w.end_arr();
        w.key("evicted_quantum");
        match self.evicted_quantum {
            Some(q) => w.u64(q),
            None => w.null(),
        }
        w.key("live_clusters");
        w.u64(self.live_clusters as u64);
        w.key("maintenance_stats");
        self.maintenance_stats.write_json(w);
        w.key("messages");
        w.u64(self.messages as u64);
        w.key("quantum");
        w.u64(self.quantum);
    }

    /// Reconstructs a summary serialised by [`Self::to_json`].
    pub fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        Ok(Self {
            quantum: value.get("quantum")?.as_u64()?,
            messages: value.get("messages")?.as_usize()?,
            events: value
                .get("events")?
                .as_arr()?
                .iter()
                .map(DetectedEvent::from_json)
                .collect::<dengraph_json::Result<_>>()?,
            akg_stats: AkgQuantumStats::from_json(value.get("akg_stats")?)?,
            maintenance_stats: MaintenanceStats::from_json(value.get("maintenance_stats")?)?,
            live_clusters: value.get("live_clusters")?.as_usize()?,
            akg_nodes: value.get("akg_nodes")?.as_usize()?,
            akg_edges: value.get("akg_edges")?.as_usize()?,
            evicted_quantum: value
                .get_opt("evicted_quantum")?
                .map(|v| v.as_u64())
                .transpose()?,
        })
    }
}

/// The streaming event detector.
#[derive(Debug)]
pub struct EventDetector {
    config: DetectorConfig,
    window: WindowState,
    akg: AkgMaintainer,
    clusters: ClusterMaintainer,
    tracker: EventTracker,
    noun_filter: Option<NounFilter>,
    buffer: Vec<Message>,
    next_quantum: u64,
    total_messages: u64,
    /// Reusable per-quantum buffers (never part of checkpoints; a fresh
    /// arena produces bit-identical output to a warmed one).
    scratch: ScratchArena,
}

/// The noun-based precision filter of Section 7.2.2: the stream's
/// interner, the heuristic, and every verdict reached so far.  The
/// interner never changes once the detector owns it, so a keyword's
/// verdict is final and the report loop asks the heuristic (a character
/// scan plus three hash probes per word) once per keyword, not once per
/// event per quantum.
#[derive(Debug)]
struct NounFilter {
    interner: KeywordInterner,
    heuristic: NounHeuristic,
    /// Indexed by keyword id; `None` until first asked.
    verdicts: Vec<Option<bool>>,
}

impl NounFilter {
    fn new(interner: KeywordInterner) -> Self {
        Self {
            verdicts: vec![None; interner.len()],
            interner,
            heuristic: NounHeuristic::new(),
        }
    }

    /// Does `keyword` resolve to a noun?  Ids the interner does not know
    /// resolve to nothing and are not nouns.
    fn is_noun(&mut self, keyword: KeywordId) -> bool {
        let Some(verdict) = self.verdicts.get_mut(keyword.0 as usize) else {
            return false;
        };
        *verdict.get_or_insert_with(|| {
            self.interner
                .resolve(keyword)
                .is_some_and(|word| self.heuristic.is_noun(word))
        })
    }
}

/// The fixed seed of the window's user hasher.  Part of the detector's
/// deterministic identity: checkpoints record it, and a restored session
/// hashes users exactly as the original did.
const WINDOW_HASHER_SEED: u64 = 0x5EED_CAFE;

impl EventDetector {
    /// Creates a detector from an already-validated configuration.  Callers
    /// outside this crate go through
    /// [`DetectorBuilder`](crate::session::DetectorBuilder), which enforces
    /// validation.
    pub(crate) fn from_config(config: DetectorConfig) -> Self {
        let window = WindowState::with_mode(
            config.window_quanta,
            config.sketch_size(),
            UserHasher::new(WINDOW_HASHER_SEED),
            config.window_index_mode,
        )
        // Only keywords that were bursty at least once are ever read
        // through the index, so the long tail below σ skips all
        // incremental bookkeeping (reads fall back to the record walk).
        .with_materialize_threshold(config.high_state_threshold as usize);
        Self {
            akg: AkgMaintainer::new(config.clone()),
            clusters: ClusterMaintainer::new(),
            tracker: EventTracker::new(),
            noun_filter: None,
            buffer: Vec::with_capacity(config.quantum_size),
            next_quantum: 0,
            total_messages: 0,
            scratch: ScratchArena::default(),
            window,
            config,
        }
    }

    /// Enables the noun-based precision filter by supplying the keyword
    /// interner used by the message stream (needed to resolve keyword ids
    /// back to strings).
    pub fn with_interner(mut self, interner: KeywordInterner) -> Self {
        self.noun_filter = Some(NounFilter::new(interner));
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// The current AKG.
    pub fn akg(&self) -> &dengraph_graph::DynamicGraph {
        self.akg.graph()
    }

    /// The sliding window and its incremental index (read access).  The
    /// index is derived state a checkpoint does not carry, so this is what
    /// a test compares to show a restore rebuilt it exactly.
    pub fn window(&self) -> &WindowState {
        &self.window
    }

    /// The persistent connected-component index the AKG maintainer keeps
    /// in lock step with [`Self::akg`] (read access).
    pub fn component_index(&self) -> &dengraph_graph::ComponentIndex {
        self.akg.components()
    }

    /// The cluster maintainer (read access).
    pub fn clusters(&self) -> &ClusterMaintainer {
        &self.clusters
    }

    /// The long-term event records accumulated so far.
    pub fn event_records(&self) -> Vec<&EventRecord> {
        self.tracker.records()
    }

    /// The long-term record of one event, if it has ever been reported.
    pub fn event_record(&self, cluster_id: crate::cluster::ClusterId) -> Option<&EventRecord> {
        self.tracker.get(cluster_id)
    }

    /// Event records not flagged spurious by the post-hoc heuristic.
    pub fn non_spurious_event_records(&self) -> Vec<&EventRecord> {
        self.tracker.non_spurious_records()
    }

    /// Total messages ingested.
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Number of quanta fully processed.
    pub fn quanta_processed(&self) -> u64 {
        self.next_quantum
    }

    /// Messages sitting in the partially filled quantum buffer (not yet
    /// counted by [`Self::total_messages`]).  After a restore, the next
    /// message this detector expects is stream position
    /// `total_messages() + buffered_messages()`.
    pub fn buffered_messages(&self) -> usize {
        self.buffer.len()
    }

    /// Streams a single message into the detector.  When the internal
    /// buffer reaches the configured quantum size Δ, the quantum is
    /// processed and its summary returned.
    pub fn push_message(&mut self, message: Message) -> Option<QuantumSummary> {
        self.buffer.push(message);
        if self.buffer.len() >= self.config.quantum_size {
            Some(self.process_buffer())
        } else {
            None
        }
    }

    /// Flushes a partial quantum (e.g. at end of stream).  Returns `None`
    /// when the buffer is empty.
    pub fn flush(&mut self) -> Option<QuantumSummary> {
        if self.buffer.is_empty() {
            return None;
        }
        Some(self.process_buffer())
    }

    /// Processes the buffered quantum, then hands the buffer back cleared
    /// so it keeps the Δ-message capacity `from_config` gave it.
    fn process_buffer(&mut self) -> QuantumSummary {
        let mut messages = std::mem::take(&mut self.buffer);
        let summary = self.process_messages(&messages);
        messages.clear();
        self.buffer = messages;
        summary
    }

    /// Processes one pre-batched quantum.
    pub fn process_quantum(&mut self, quantum: &Quantum) -> QuantumSummary {
        self.process_messages(&quantum.messages)
    }

    /// Runs an entire message slice through the detector, batching it into
    /// quanta of the configured size.  Returns one summary per quantum.
    pub fn run(&mut self, messages: &[Message]) -> Vec<QuantumSummary> {
        let mut out = Vec::new();
        for m in messages {
            if let Some(summary) = self.push_message(m.clone()) {
                out.push(summary);
            }
        }
        if let Some(summary) = self.flush() {
            out.push(summary);
        }
        out
    }

    /// Core per-quantum pipeline.
    fn process_messages(&mut self, messages: &[Message]) -> QuantumSummary {
        let quantum = self.next_quantum;
        self.next_quantum += 1;
        self.total_messages += messages.len() as u64;

        // 1. Aggregate and slide the window (fanned out over message
        //    chunks per the configured parallelism).  The record's backing
        //    storage is recycled from the quantum that slides out, and the
        //    AKG reads it in place from the window — no clone.
        let storage = self.scratch.record_storage.take().unwrap_or_default();
        let record = QuantumRecord::from_messages_into(
            quantum,
            messages,
            self.config.parallelism,
            &mut self.scratch.pairs,
            &mut self.scratch.pair_sort,
            storage,
        );
        let evicted = self.window.push(record);
        let evicted_quantum = evicted.as_ref().map(|r| r.index);
        if let Some(old) = evicted {
            self.scratch.record_storage = Some(old.into_storage());
        }

        // 2. AKG maintenance.  The hysteresis callback consults the cluster
        //    registry as it stood at the end of the previous quantum.
        let registry = &self.clusters;
        let record = self.window.current().expect("record was just pushed");
        self.akg.process_quantum_into(
            record,
            &self.window,
            |kw: KeywordId| registry.registry().is_cluster_member(node_of(kw)),
            &mut self.scratch,
        );

        // 3. Cluster maintenance, sharded by AKG connected component.  The
        //    partition comes from the persistent component index the AKG
        //    maintainer keeps in lock step (O(deltas)); Rebuild mode is the
        //    from-scratch ablation the equivalence suites compare it to.
        match self.config.component_index_mode {
            crate::config::ComponentIndexMode::Incremental => self.clusters.apply_deltas_indexed(
                self.akg.graph(),
                self.akg.components(),
                &self.scratch.deltas,
                quantum,
                self.config.parallelism,
            ),
            crate::config::ComponentIndexMode::Rebuild => self.clusters.apply_deltas_with(
                self.akg.graph(),
                &self.scratch.deltas,
                quantum,
                self.config.parallelism,
            ),
        }

        // 4 + 5. Rank, filter and report.
        let events = self.report_events(quantum);
        for e in &events {
            self.tracker.observe(e);
        }

        #[cfg(feature = "invariants")]
        if let Err(e) = self.validate_invariants() {
            // lint: allow(L002, the invariants feature exists to fail loudly the moment state corrupts; it is never enabled in production builds) allow(L007, reachable only with the opt-in invariants feature; crashing beats streaming corrupt clusters)
            panic!("invariant violated after quantum {quantum}: {e}");
        }

        QuantumSummary {
            quantum,
            messages: messages.len(),
            akg_stats: self.akg.last_stats(),
            maintenance_stats: self.clusters.last_stats(),
            live_clusters: self.clusters.cluster_count(),
            akg_nodes: self.akg.graph().node_count(),
            akg_edges: self.akg.graph().edge_count(),
            events,
            evicted_quantum,
        }
    }

    /// Deep-checks the structural invariants of every stateful component:
    /// the AKG's sorted-adjacency/edge-symmetry contract
    /// ([`dengraph_graph::DynamicGraph::validate_invariants`]), the sliding
    /// window and its incremental index against a raw record walk
    /// ([`WindowState::validate_invariants`](crate::keyword_state::WindowState::validate_invariants)),
    /// the persistent component index against a from-scratch recompute of
    /// the AKG's connected components
    /// ([`ComponentIndex::validate_against`](dengraph_graph::ComponentIndex::validate_against)),
    /// and the cluster registry's index/SCP/id-allocation contract
    /// ([`ClusterRegistry::check_invariants`](crate::cluster::ClusterRegistry::check_invariants)).
    ///
    /// O(total state) — a validation aid.  Under the `invariants` cargo
    /// feature this runs automatically at every quantum boundary and
    /// panics on the first violation; without the feature it is only ever
    /// invoked explicitly (tests, debugging sessions).
    pub fn validate_invariants(&self) -> Result<(), String> {
        self.akg
            .graph()
            .validate_invariants()
            .map_err(|e| format!("AKG: {e}"))?;
        self.window
            .validate_invariants()
            .map_err(|e| format!("window: {e}"))?;
        self.akg
            .components()
            .validate_against(self.akg.graph())
            .map_err(|e| format!("component index: {e}"))?;
        self.clusters
            .registry()
            .check_invariants()
            .map_err(|e| format!("cluster registry: {e}"))?;
        Ok(())
    }

    /// Serialises the complete detector state — configuration, sliding
    /// window (records + incremental index), AKG graph and keyword
    /// automaton, cluster registry, event tracker, the partially filled
    /// message buffer and the quantum counters — to a
    /// [`dengraph_json::Value`].
    ///
    /// [`Self::from_json`] reconstructs a detector whose subsequent output
    /// is bit-identical to this one continuing uninterrupted; the
    /// session-level wrapper is
    /// [`DetectorSession::checkpoint`](crate::session::DetectorSession::checkpoint).
    pub fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        Value::obj([
            ("format", Value::str("dengraph-detector-state")),
            ("version", Value::from(1u32)),
            ("config", self.config.to_json()),
            ("window", self.window.to_json()),
            ("akg", self.akg.to_json()),
            ("clusters", self.clusters.to_json()),
            ("tracker", self.tracker.to_json()),
            (
                "interner",
                match &self.noun_filter {
                    Some(filter) => {
                        Value::arr(filter.interner.iter().map(|(_, word)| Value::str(word)))
                    }
                    None => Value::Null,
                },
            ),
            (
                "buffer",
                Value::arr(
                    self.buffer
                        .iter()
                        .map(dengraph_stream::json::message_to_value),
                ),
            ),
            ("next_quantum", Value::from(self.next_quantum)),
            ("total_messages", Value::from(self.total_messages)),
        ])
    }

    /// Reconstructs a detector serialised by [`Self::to_json`].  The
    /// embedded configuration is re-validated, so a tampered or corrupted
    /// checkpoint cannot smuggle a degenerate configuration past
    /// [`DetectorConfig::validate`].
    pub fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        let config = DetectorConfig::from_json(value.get("config")?)?;
        config.validate().map_err(|e| dengraph_json::JsonError {
            message: format!("invalid configuration in checkpoint: {e}"),
            offset: 0,
        })?;
        Self::from_json_validated(config, value)
    }

    /// Decodes the full detector state under an already-decoded and
    /// -validated configuration (the session restore path, which surfaces
    /// configuration failures as a typed error before calling this).
    pub(crate) fn from_json_validated(
        config: DetectorConfig,
        value: &dengraph_json::Value,
    ) -> dengraph_json::Result<Self> {
        match value.get("format")?.as_str()? {
            "dengraph-detector-state" => {}
            other => {
                return Err(dengraph_json::JsonError {
                    message: format!("unknown checkpoint format '{other}'"),
                    offset: 0,
                })
            }
        }
        let version = value.get("version")?.as_u32()?;
        if version != 1 {
            return Err(dengraph_json::JsonError {
                message: format!("unsupported checkpoint version {version}"),
                offset: 0,
            });
        }
        let noun_filter = match value.get_opt("interner")? {
            Some(words) => {
                let mut interner = KeywordInterner::new();
                for word in words.as_arr()? {
                    interner.intern(word.as_str()?);
                }
                Some(NounFilter::new(interner))
            }
            None => None,
        };
        let window = WindowState::from_json(value.get("window")?)?;
        Self::check_window_geometry(&config, &window)?;
        Ok(Self {
            window,
            akg: AkgMaintainer::from_json(config.clone(), value.get("akg")?)?,
            clusters: ClusterMaintainer::from_json(value.get("clusters")?)?,
            tracker: EventTracker::from_json(value.get("tracker")?)?,
            noun_filter,
            buffer: value
                .get("buffer")?
                .as_arr()?
                .iter()
                .map(dengraph_stream::json::message_from_value)
                .collect::<dengraph_json::Result<_>>()?,
            next_quantum: value.get("next_quantum")?.as_u64()?,
            total_messages: value.get("total_messages")?.as_u64()?,
            scratch: ScratchArena::default(),
            config,
        })
    }

    /// The window's geometry is derived state; a checkpoint whose window
    /// contradicts its own (validated) configuration is corrupt, and
    /// restoring it would silently change slide/sketch behaviour.  That
    /// includes the index's materialization threshold: the detector always
    /// wires it to σ, it decides which keywords get an entry, and a
    /// document — of this version or an earlier one — that says otherwise
    /// was not written by this detector.  Shared by the JSON and binary
    /// decoders.
    fn check_window_geometry(
        config: &DetectorConfig,
        window: &WindowState,
    ) -> dengraph_json::Result<()> {
        // A rebuild-mode window has no index, hence no threshold to check.
        let threshold_matches = window.mode() == WindowIndexMode::Rebuild
            || window.materialize_threshold() == config.high_state_threshold as usize;
        if window.capacity() != config.window_quanta
            || window.sketch_size() != config.sketch_size()
            || window.mode() != config.window_index_mode
            || !threshold_matches
        {
            return Err(dengraph_json::JsonError {
                message: format!(
                    "window geometry (capacity {}, sketch size {}, mode {:?}, index threshold {}) \
                     contradicts the embedded configuration (window_quanta {}, sketch size {}, \
                     mode {:?}, high_state_threshold {})",
                    window.capacity(),
                    window.sketch_size(),
                    window.mode(),
                    window.materialize_threshold(),
                    config.window_quanta,
                    config.sketch_size(),
                    config.window_index_mode,
                    config.high_state_threshold,
                ),
                offset: 0,
            });
        }
        Ok(())
    }

    /// Appends the complete detector state in the compact binary format —
    /// the binary twin of [`Self::to_json`], byte layout:
    /// config · window · AKG · clusters · tracker · optional interner ·
    /// partial message buffer · quantum counters.  The document header
    /// (magic + version) is written by the checkpoint container
    /// ([`Checkpoint`](crate::session::Checkpoint) /
    /// [`CheckpointJournal`](crate::checkpoint::CheckpointJournal)), not
    /// here.
    pub fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        self.config.to_bin(w);
        self.window.to_bin(w);
        self.akg.to_bin(w);
        self.clusters.to_bin(w);
        self.tracker.to_bin(w);
        match &self.noun_filter {
            Some(filter) => {
                w.bool(true);
                w.usize(filter.interner.len());
                for (_, word) in filter.interner.iter() {
                    w.str(word);
                }
            }
            None => w.bool(false),
        }
        w.usize(self.buffer.len());
        for message in &self.buffer {
            dengraph_stream::json::message_to_bin(message, w);
        }
        w.u64(self.next_quantum);
        w.u64(self.total_messages);
    }

    /// Reconstructs a detector encoded by [`Self::to_bin`], re-validating
    /// the embedded configuration exactly like [`Self::from_json`].
    pub fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        let config = DetectorConfig::from_bin(r)?;
        config.validate().map_err(|e| dengraph_json::JsonError {
            message: format!("invalid configuration in checkpoint: {e}"),
            offset: r.pos(),
        })?;
        Self::from_bin_validated(config, r)
    }

    /// Decodes the binary detector state under an already-decoded and
    /// -validated configuration.  The reader must be positioned just past
    /// the configuration bytes.
    pub(crate) fn from_bin_validated(
        config: DetectorConfig,
        r: &mut dengraph_json::BinReader<'_>,
    ) -> dengraph_json::Result<Self> {
        let window = WindowState::from_bin(r)?;
        Self::check_window_geometry(&config, &window)?;
        let akg = AkgMaintainer::from_bin(config.clone(), r)?;
        let clusters = ClusterMaintainer::from_bin(r)?;
        let tracker = EventTracker::from_bin(r)?;
        let noun_filter = if r.bool()? {
            let words = r.seq_len(1)?;
            let mut interner = KeywordInterner::new();
            for _ in 0..words {
                interner.intern(&r.str()?);
            }
            Some(NounFilter::new(interner))
        } else {
            None
        };
        let buffered = r.seq_len(2)?;
        let mut buffer = Vec::with_capacity(buffered.min(config.quantum_size));
        for _ in 0..buffered {
            buffer.push(dengraph_stream::json::message_from_bin(r)?);
        }
        Ok(Self {
            window,
            akg,
            clusters,
            tracker,
            noun_filter,
            buffer,
            next_quantum: r.u64()?,
            total_messages: r.u64()?,
            scratch: ScratchArena::default(),
            config,
        })
    }

    /// Encodes the state transition of the quantum that just completed
    /// (`summary` must be its summary) as a journal delta-record payload:
    /// the window record, the AKG delta log still sitting in the scratch
    /// arena, the quantum's AKG statistics and the reported events.
    /// Encodes straight from the borrowed state into the caller's writer
    /// (the journal's frame buffer) — this runs once per quantum on the
    /// journaled hot path, so it must not clone the delta log or the
    /// window record first, nor allocate a payload of its own.
    pub(crate) fn encode_delta_record(
        &self,
        summary: &QuantumSummary,
        format: dengraph_json::WireFormat,
        w: &mut dengraph_json::BinWriter,
    ) {
        let record = self.window.current().expect("a quantum was just processed");
        debug_assert_eq!(record.index, summary.quantum, "summary is stale");
        crate::checkpoint::DeltaRecordView {
            record,
            akg_deltas: &self.scratch.deltas,
            akg_stats: self.akg.last_stats(),
            events: &summary.events,
        }
        .encode_into(format, w)
    }

    /// Redoes one quantum from a journal delta record — the replay half
    /// of incremental checkpointing.  Pushes the logged window record,
    /// re-applies the AKG delta log to the graph and keyword automaton,
    /// re-runs cluster maintenance from the same deltas (deterministic,
    /// cluster ids included) and re-observes the logged events; no
    /// correlation is re-scored.  Rejects records that do not continue
    /// exactly at this detector's next quantum.
    pub(crate) fn apply_delta_record(
        &mut self,
        record: &crate::checkpoint::DeltaRecord,
    ) -> dengraph_json::Result<()> {
        if record.record.index != self.next_quantum {
            return Err(dengraph_json::JsonError {
                message: format!(
                    "journal gap: delta record for quantum {} cannot apply to a detector \
                     at quantum {}",
                    record.record.index, self.next_quantum
                ),
                offset: 0,
            });
        }
        // The record aggregates the full quantum, superseding any
        // partially buffered prefix of it restored from the snapshot.
        self.buffer.clear();
        let evicted = self.window.push(record.record.clone());
        if let Some(old) = evicted {
            self.scratch.record_storage = Some(old.into_storage());
        }
        self.akg.replay_deltas(&record.akg_deltas, record.akg_stats);
        self.clusters
            .apply_deltas(self.akg.graph(), &record.akg_deltas, record.record.index);
        for event in &record.events {
            self.tracker.observe(event);
        }
        self.next_quantum = record.record.index + 1;
        self.total_messages += record.record.message_count as u64;
        Ok(())
    }

    /// Ranks every live cluster and applies the reporting filters.
    ///
    /// The per-node support weights (distinct window users per keyword)
    /// are independent reads of the window, so they are precomputed in
    /// one sharded pass before the serial rank-and-filter loop.  That
    /// loop makes one pass per cluster ([`rank_and_support`]: rank,
    /// support and the sorted member column together) and allocates
    /// exactly the keyword list of each event it reports.
    fn report_events(&mut self, quantum: u64) -> Vec<DetectedEvent> {
        let Self {
            config,
            window,
            akg,
            clusters,
            noun_filter,
            scratch,
            ..
        } = self;
        let ScratchArena {
            cluster_keywords,
            rank_nodes,
            ..
        } = scratch;
        let graph = akg.graph();
        cluster_keywords.clear();
        cluster_keywords.extend(
            clusters
                .clusters()
                .flat_map(|c| c.nodes.iter().map(|&n| keyword_of(n))),
        );
        cluster_keywords.sort_unstable();
        cluster_keywords.dedup();
        let counts = window.window_user_counts(cluster_keywords, config.parallelism);
        // `cluster_keywords` is sorted, so the support lookup is a binary
        // search over a dense column instead of a hash probe.
        let node_support = |node: dengraph_graph::NodeId| {
            cluster_keywords
                .binary_search(&keyword_of(node))
                .map(|i| counts[i])
                .unwrap_or(0)
        };
        let mut noun_filter = noun_filter.as_mut().filter(|_| config.require_noun);
        let rank_threshold = config.rank_report_threshold();
        let mut events: Vec<DetectedEvent> = Vec::with_capacity(clusters.cluster_count());
        for cluster in clusters.clusters() {
            let (rank, support) = rank_and_support(cluster, graph, &node_support, rank_nodes);
            if rank < rank_threshold {
                continue;
            }
            // Node order is keyword order, so the sorted member column is
            // the event's sorted keyword list.
            let keywords = rank_nodes.iter().map(|&n| keyword_of(n));
            if let Some(filter) = noun_filter.as_deref_mut() {
                if !keywords.clone().any(|k| filter.is_noun(k)) {
                    continue;
                }
            }
            events.push(DetectedEvent {
                cluster_id: cluster.id,
                quantum,
                rank,
                support,
                keywords: keywords.collect(),
            });
        }
        // Best rank first; equal ranks tie-break on cluster id so the
        // report order never depends on hash-map iteration order (and,
        // ids being unique, an unstable sort has nothing to reorder).
        events.sort_unstable_by(|a, b| {
            b.rank
                .total_cmp(&a.rank)
                .then(a.cluster_id.cmp(&b.cluster_id))
        });
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dengraph_stream::UserId;

    /// Test constructor mirroring what `DetectorBuilder::build` does for
    /// a known-valid configuration.
    fn detector(config: DetectorConfig) -> EventDetector {
        config.validate().expect("test configuration is valid");
        EventDetector::from_config(config)
    }

    fn cfg() -> DetectorConfig {
        DetectorConfig {
            quantum_size: 20,
            high_state_threshold: 3,
            edge_correlation_threshold: 0.3,
            window_quanta: 4,
            ..Default::default()
        }
    }

    fn k(i: u32) -> KeywordId {
        KeywordId(i)
    }

    /// A quantum in which `users` distinct users each post the same keyword
    /// set, plus filler chatter from other users.
    fn event_quantum(
        detector_cfg: &DetectorConfig,
        users: u64,
        base_user: u64,
        keywords: &[u32],
        time0: u64,
    ) -> Vec<Message> {
        let mut msgs = Vec::new();
        for u in 0..users {
            msgs.push(Message::new(
                UserId(base_user + u),
                time0 + u,
                keywords.iter().map(|&i| KeywordId(i)).collect(),
            ));
        }
        // Filler: unique users, unique keywords (never bursty).
        let mut filler_id = 10_000 + time0 * 100;
        while msgs.len() < detector_cfg.quantum_size {
            msgs.push(Message::new(
                UserId(filler_id),
                time0 + filler_id,
                vec![KeywordId(5_000 + filler_id as u32)],
            ));
            filler_id += 1;
        }
        msgs
    }

    /// A checkpoint embeds its configuration, and both decoders re-validate
    /// it: a sketch width beyond the window's bound is an error, not an
    /// allocation.
    #[test]
    fn decoders_reject_an_embedded_sketch_width_beyond_the_bound() {
        let mut det = detector(cfg());
        det.process_messages(&event_quantum(&cfg(), 6, 0, &[1, 2, 3], 0));
        let wide = DetectorConfig {
            min_sketch_size: 1 << 40,
            ..cfg()
        };

        let text = dengraph_json::to_string(&det.to_json());
        let tampered = text.replace(
            "\"min_sketch_size\":16",
            "\"min_sketch_size\":1099511627776",
        );
        assert_ne!(text, tampered, "the fixture must actually tamper");
        let err = EventDetector::from_json(&dengraph_json::parse(&tampered).unwrap()).unwrap_err();
        assert!(err.message.contains("1099511627776"), "{}", err.message);

        // Binary: the same state behind the wide configuration's bytes.
        let (mut honest, mut config_bytes, mut tampered) = (
            dengraph_json::BinWriter::new(),
            dengraph_json::BinWriter::new(),
            dengraph_json::BinWriter::new(),
        );
        det.to_bin(&mut honest);
        cfg().to_bin(&mut config_bytes);
        wide.to_bin(&mut tampered);
        tampered.raw(&honest.as_slice()[config_bytes.len()..]);
        assert!(
            EventDetector::from_bin(&mut dengraph_json::BinReader::new(honest.as_slice())).is_ok()
        );
        let err = EventDetector::from_bin(&mut dengraph_json::BinReader::new(tampered.as_slice()))
            .unwrap_err();
        assert!(err.message.contains("1099511627776"), "{}", err.message);
    }

    #[test]
    fn correlated_burst_is_reported_as_an_event() {
        let config = cfg();
        let mut det = detector(config.clone());
        let msgs = event_quantum(&config, 6, 100, &[1, 2, 3], 0);
        let summary = det.push_message_all(msgs);
        assert_eq!(summary.len(), 1);
        let events = &summary[0].events;
        assert_eq!(
            events.len(),
            1,
            "exactly one event expected, got {events:?}"
        );
        assert_eq!(events[0].keywords, vec![k(1), k(2), k(3)]);
        assert!(events[0].rank >= config.rank_report_threshold());
        assert!(events[0].support >= 18); // 6 users × 3 keywords
    }

    impl EventDetector {
        /// Test helper: push a whole vector and collect summaries.
        fn push_message_all(&mut self, msgs: Vec<Message>) -> Vec<QuantumSummary> {
            let mut out = Vec::new();
            for m in msgs {
                if let Some(s) = self.push_message(m) {
                    out.push(s);
                }
            }
            out
        }
    }

    #[test]
    fn uncorrelated_chatter_produces_no_events() {
        let config = cfg();
        let mut det = detector(config.clone());
        let mut msgs = Vec::new();
        for u in 0..(config.quantum_size as u64) {
            msgs.push(Message::new(UserId(u), u, vec![KeywordId(u as u32 % 7)]));
        }
        let summaries = det.push_message_all(msgs);
        assert_eq!(summaries.len(), 1);
        assert!(summaries[0].events.is_empty());
    }

    #[test]
    fn event_evolves_when_a_new_keyword_joins() {
        let config = cfg();
        let mut det = detector(config.clone());
        det.push_message_all(event_quantum(&config, 6, 100, &[1, 2, 3], 0));
        // Next quantum the same event gains keyword 4 (the "5.9" of Figure 1).
        let summaries = det.push_message_all(event_quantum(&config, 6, 200, &[1, 2, 3, 4], 1_000));
        let events = &summaries[0].events;
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].keywords, vec![k(1), k(2), k(3), k(4)]);
        // Both quanta anchor to the same cluster id, so the tracker sees one
        // evolving event.
        let records = det.event_records();
        assert_eq!(records.len(), 1);
        assert!(records[0].evolved());
    }

    #[test]
    fn event_disappears_after_the_window_slides_past_it() {
        let config = cfg();
        let mut det = detector(config.clone());
        det.push_message_all(event_quantum(&config, 6, 100, &[1, 2, 3], 0));
        assert_eq!(det.clusters().cluster_count(), 1);
        // Quanta of pure filler for longer than the window length.
        for q in 1..=(config.window_quanta as u64 + 1) {
            det.push_message_all(event_quantum(&config, 0, 0, &[], q * 1_000));
        }
        assert_eq!(
            det.clusters().cluster_count(),
            0,
            "stale keywords must dissolve the cluster"
        );
        assert!(det.akg().node_count() <= 1);
    }

    #[test]
    fn two_simultaneous_events_are_reported_separately() {
        let config = cfg();
        let mut det = detector(config.clone());
        let mut msgs = Vec::new();
        for u in 0..5u64 {
            msgs.push(Message::new(UserId(100 + u), u, vec![k(1), k(2), k(3)]));
            msgs.push(Message::new(
                UserId(200 + u),
                50 + u,
                vec![k(11), k(12), k(13)],
            ));
        }
        while msgs.len() < config.quantum_size {
            let id = 900 + msgs.len() as u64;
            msgs.push(Message::new(
                UserId(id),
                id,
                vec![KeywordId(7_000 + id as u32)],
            ));
        }
        let summaries = det.push_message_all(msgs);
        assert_eq!(summaries[0].events.len(), 2);
        let keyword_sets: Vec<Vec<KeywordId>> = summaries[0]
            .events
            .iter()
            .map(|e| e.keywords.clone())
            .collect();
        assert!(keyword_sets.contains(&vec![k(1), k(2), k(3)]));
        assert!(keyword_sets.contains(&vec![k(11), k(12), k(13)]));
    }

    /// Regression: two simultaneous events with identical rank must be
    /// ordered by cluster id, not by `FxHashMap` iteration order.
    #[test]
    fn equal_rank_events_are_ordered_by_cluster_id() {
        let config = cfg();
        let mut det = detector(config.clone());
        // Two structurally identical bursts in one quantum: same user
        // count, same keyword count, fully correlated within each burst —
        // their ranks are bit-identical.
        let mut msgs = Vec::new();
        for u in 0..5u64 {
            msgs.push(Message::new(UserId(100 + u), u, vec![k(1), k(2), k(3)]));
            msgs.push(Message::new(
                UserId(200 + u),
                50 + u,
                vec![k(11), k(12), k(13)],
            ));
        }
        while msgs.len() < config.quantum_size {
            let id = 900 + msgs.len() as u64;
            msgs.push(Message::new(
                UserId(id),
                id,
                vec![KeywordId(7_000 + id as u32)],
            ));
        }
        let summaries = det.push_message_all(msgs);
        let events = &summaries[0].events;
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].rank, events[1].rank,
            "the fixture must produce an exact rank tie"
        );
        assert!(
            events[0].cluster_id < events[1].cluster_id,
            "equal-rank events must be ordered by cluster id, got {:?} then {:?}",
            events[0].cluster_id,
            events[1].cluster_id
        );
    }

    #[test]
    fn flush_processes_partial_quanta() {
        let config = cfg();
        let mut det = detector(config.clone());
        for u in 0..5u64 {
            det.push_message(Message::new(UserId(u), u, vec![k(1), k(2), k(3)]));
        }
        assert_eq!(det.quanta_processed(), 0);
        let summary = det.flush().unwrap();
        assert_eq!(summary.messages, 5);
        assert_eq!(det.quanta_processed(), 1);
        assert!(det.flush().is_none());
    }

    #[test]
    fn summary_statistics_are_populated() {
        let config = cfg();
        let mut det = detector(config.clone());
        let summaries = det.push_message_all(event_quantum(&config, 6, 100, &[1, 2, 3], 0));
        let s = &summaries[0];
        assert_eq!(s.quantum, 0);
        assert_eq!(s.messages, config.quantum_size);
        assert!(s.akg_nodes >= 3);
        assert!(s.akg_edges >= 3);
        assert_eq!(s.live_clusters, 1);
        assert!(s.akg_stats.bursty_keywords >= 3);
        assert_eq!(det.total_messages(), config.quantum_size as u64);
    }

    #[test]
    fn noun_filter_suppresses_all_non_noun_clusters() {
        let mut interner = KeywordInterner::new();
        // Keywords 0..3 resolve to non-noun words.
        for w in ["massive", "awesome", "really", "watching"] {
            interner.intern(w);
        }
        let config = cfg();
        let mut det = detector(config.clone()).with_interner(interner);
        let summaries = det.push_message_all(event_quantum(&config, 6, 100, &[0, 1, 2], 0));
        assert!(
            summaries[0].events.is_empty(),
            "non-noun cluster must be filtered"
        );
        // The cluster itself still exists; only reporting is filtered.
        assert_eq!(det.clusters().cluster_count(), 1);
    }
}
