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

use dengraph_graph::NodeId;
use dengraph_json::{Decode, Encode};
use dengraph_minhash::UserHasher;
use dengraph_stream::Message;
use dengraph_text::{KeywordId, KeywordInterner, NounHeuristic};

use crate::akg::{keyword_of, live_keyword, node_of, AkgMaintainer, AkgQuantumStats, GraphDelta};
use crate::checkpoint::{RecordRing, CONTAINER_VERSION};
use crate::cluster::maintainer::MaintenanceStats;
use crate::cluster::{Cluster, ClusterMaintainer};
use crate::config::DetectorConfig;
use crate::event::{DetectedEvent, EventRecord, EventTracker};
use crate::keyword_state::{QuantumRecord, WindowGeometry, WindowState};
use crate::ranking::{cluster_support, rank_and_support};
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
    /// if the window was already full (the slide a sink's
    /// [`QuantumNotifications`] carries).
    ///
    /// [`QuantumNotifications`]: crate::session::QuantumNotifications
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

/// The noun-based precision filter of Section 7.2.2: one verdict bit per
/// keyword id of the stream's vocabulary.  The vocabulary is consumed
/// when the detector takes it ([`EventDetector::with_interner`]): each
/// word goes through the heuristic once, and only the verdicts are kept.
/// So the report loop's question is one bit load, and a checkpoint
/// carries ⌈len/8⌉ bytes, not the words.
#[derive(Debug)]
struct NounFilter {
    /// The keyword ids covered: `0..len`.  Ids past it resolve to no word
    /// and are not nouns.
    len: usize,
    /// Bit `id % 8` of byte `id / 8` is set iff keyword `id` is a noun.
    /// Exactly ⌈len/8⌉ bytes, and the padding bits of the last one are
    /// clear, so a restored filter re-encodes to the bytes it came from.
    bits: Vec<u8>,
}

/// The tag byte that opens the binary filter section: no filter, …
const FILTER_NONE: u8 = 0;
/// … or `usize(len)` followed by the ⌈len/8⌉ verdict bytes.  (Tag 1 was
/// the word list of an earlier format epoch, and is unknown.)
const FILTER_VERDICTS: u8 = 2;

impl NounFilter {
    /// Reaches every keyword's verdict once.
    fn new(vocabulary: &KeywordInterner) -> Self {
        let heuristic = NounHeuristic::new();
        let len = vocabulary.len();
        let mut bits = vec![0u8; len.div_ceil(8)];
        for (id, word) in vocabulary.iter() {
            if heuristic.is_noun(word) {
                let id = id.index();
                bits[id / 8] |= 1 << (id % 8);
            }
        }
        Self { len, bits }
    }

    /// The filter of `len` verdicts stored in `bits`, which must be
    /// exactly ⌈len/8⌉ bytes with clear padding bits.
    fn from_bits(len: usize, bits: Vec<u8>, offset: usize) -> dengraph_json::Result<Self> {
        let fail = |message: String| Err(dengraph_json::JsonError { message, offset });
        let want = len.div_ceil(8);
        if bits.len() != want {
            return fail(format!(
                "noun verdicts: {} bytes for {len} keywords, which take {want}",
                bits.len()
            ));
        }
        // The last byte holds `used` verdicts, or eight when `used` is 0.
        let used = len % 8;
        if used != 0 && bits.last().is_some_and(|&last| last >> used != 0) {
            return fail(format!(
                "noun verdicts: padding bits past keyword {len} are set"
            ));
        }
        Ok(Self { len, bits })
    }

    /// Is `keyword` a noun?  Padding bits are clear, so one byte load
    /// answers for every id.
    fn is_noun(&self, keyword: KeywordId) -> bool {
        let id = keyword.0 as usize;
        self.bits
            .get(id / 8)
            .is_some_and(|&byte| (byte >> (id % 8)) & 1 == 1)
    }

    /// The JSON form: `{"len": n, "bits": "<the verdict bytes as hex>"}`.
    fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let hex: String = self
            .bits
            .iter()
            .flat_map(|&byte| {
                [
                    DIGITS[usize::from(byte >> 4)],
                    DIGITS[usize::from(byte & 15)],
                ]
            })
            .map(char::from)
            .collect();
        Value::obj([("len", Value::from(self.len)), ("bits", Value::str(hex))])
    }

    /// Reads [`Self::to_json`]'s form; the hex digits are lower-case.
    fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        let len = value.get("len")?.as_usize()?;
        let hex = value.get("bits")?.as_str()?.as_bytes();
        let digit = |c: u8| match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            _ => None,
        };
        let bits = hex
            .chunks(2)
            .map(|pair| match *pair {
                [high, low] => Some(digit(high)? << 4 | digit(low)?),
                _ => None,
            })
            .collect::<Option<Vec<u8>>>()
            .ok_or_else(|| dengraph_json::JsonError {
                message: "noun verdicts: \"bits\" is not a string of hex digit pairs".into(),
                offset: 0,
            })?;
        Self::from_bits(len, bits, 0)
    }

    /// Writes the binary filter section of `filter`.
    fn write_bin(filter: Option<&Self>, w: &mut dengraph_json::BinWriter) {
        match filter {
            Some(filter) => {
                w.byte(FILTER_VERDICTS);
                w.usize(filter.len);
                w.raw(&filter.bits);
            }
            None => w.byte(FILTER_NONE),
        }
    }

    /// Reads a binary filter section written by [`Self::write_bin`].
    fn read_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Option<Self>> {
        let at = r.pos();
        match r.byte()? {
            FILTER_NONE => Ok(None),
            FILTER_VERDICTS => {
                let len = r.usize()?;
                let at = r.pos();
                let bits = r.take(len.div_ceil(8))?.to_vec();
                Self::from_bits(len, bits, at).map(Some)
            }
            tag => Err(dengraph_json::JsonError {
                message: format!("unknown noun filter tag {tag}"),
                offset: at,
            }),
        }
    }
}

/// The fixed seed of the window's user hasher.  Part of the detector's
/// deterministic identity: checkpoints record it, and a restored session
/// hashes users exactly as the original did.
pub(crate) const WINDOW_HASHER_SEED: u64 = 0x5EED_CAFE;

/// Most message slots a new detector reserves (it wants a quantum's); a
/// larger quantum grows the buffer as it fills.
const RESERVED_MESSAGES: usize = 1 << 12;

impl EventDetector {
    /// Creates a detector from an already-validated configuration.  Callers
    /// outside this crate go through
    /// [`DetectorBuilder`](crate::session::DetectorBuilder), which enforces
    /// validation.
    pub(crate) fn from_config(config: DetectorConfig) -> Self {
        let window = WindowState::new(
            config.window_quanta,
            config.sketch_size(),
            UserHasher::new(WINDOW_HASHER_SEED),
        )
        // Only keywords that were bursty at least once are ever read
        // (every AKG node was), so the long tail below σ gets no index
        // entry and no incremental bookkeeping.
        .with_materialize_threshold(config.high_state_threshold as usize);
        Self {
            akg: AkgMaintainer::new(config.clone()),
            clusters: ClusterMaintainer::new(),
            tracker: EventTracker::new(),
            noun_filter: None,
            buffer: Vec::with_capacity(config.quantum_size.min(RESERVED_MESSAGES)),
            next_quantum: 0,
            total_messages: 0,
            scratch: ScratchArena::default(),
            window,
            config,
        }
    }

    /// Enables the noun-based precision filter by supplying the keyword
    /// interner used by the message stream.  The vocabulary is consumed
    /// here: each keyword's noun verdict is reached once, and only the
    /// verdicts are kept.
    pub fn with_interner(mut self, interner: KeywordInterner) -> Self {
        self.noun_filter = Some(NounFilter::new(&interner));
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

    /// Processes `messages` as one quantum, ending the current one: any
    /// messages [`Self::push_message`] left in the buffer come first, in
    /// stream order, and the quantum holds them plus `messages`.  With an
    /// empty buffer the slice is processed in place, without a copy.
    pub fn process_quantum(&mut self, messages: &[Message]) -> QuantumSummary {
        if self.buffer.is_empty() {
            return self.process_messages(messages);
        }
        self.buffer.extend_from_slice(messages);
        self.process_buffer()
    }

    /// Core per-quantum pipeline.
    fn process_messages(&mut self, messages: &[Message]) -> QuantumSummary {
        let quantum = self.next_quantum;
        self.next_quantum += 1;
        // Saturating: a restored count is only as sane as its checkpoint.
        self.total_messages = self.total_messages.saturating_add(messages.len() as u64);

        // 1. Aggregate and slide the window.  The record's backing storage
        //    is recycled from the quantum that slides out, and the AKG
        //    reads it in place from the window — no clone.
        let storage = self.scratch.record_storage.take().unwrap_or_default();
        let record = QuantumRecord::from_messages_into(
            quantum,
            messages,
            &mut self.scratch.pairs,
            &mut self.scratch.pair_sort,
            storage,
        );
        let evicted = self.window.push(record);
        let evicted_quantum = evicted.as_ref().map(|r| r.index);

        // 2. AKG maintenance.  The hysteresis callback consults the cluster
        //    registry as it stood at the end of the previous quantum.
        let registry = &self.clusters;
        #[expect(clippy::expect_used, reason = "a record was just pushed")]
        let record = self.window.current().expect("record was just pushed");
        self.akg.process_quantum_into(
            record,
            &self.window,
            |kw: KeywordId| registry.registry().is_cluster_member(node_of(kw)),
            &mut self.scratch,
        );

        // 3. Cluster maintenance: the Section-5 algorithm of each delta, in
        //    stream order.
        self.clusters
            .apply_deltas(self.akg.graph(), &self.scratch.deltas, quantum);

        // 4 + 5. Rank, filter and report.  The evicted record names the
        //    keywords whose support fell; then its storage is recycled.
        let events = self.report_events(quantum, evicted.as_ref());
        if let Some(old) = evicted {
            self.scratch.record_storage = Some(old.into_storage());
        }
        for e in &events {
            self.tracker.observe(e);
        }

        #[cfg(feature = "invariants")]
        #[expect(
            clippy::panic,
            reason = "the invariants feature fails loudly on corrupt state"
        )]
        if let Err(e) = self.validate_invariants() {
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
    /// the cluster registry's index/SCP/id-allocation contract
    /// ([`ClusterRegistry::check_invariants`](crate::cluster::ClusterRegistry::check_invariants)),
    /// and the tie between the AKG and the window that ranking reads
    /// support through: every AKG node has a live window index entry.
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
        check_akg_window_tie(self.akg.graph(), &self.window)?;
        self.clusters
            .registry()
            .check_invariants()
            .map_err(|e| format!("cluster registry: {e}"))?;
        self.check_reported_outcomes()
            .map_err(|e| format!("event tracker: {e}"))?;
        Ok(())
    }

    /// The tie between the cluster registry and the event tracker that
    /// lets a cluster whose inputs did not move keep its last outcome
    /// (see [`Self::report_events`]): every live cluster's outcome at the
    /// quantum processed last, as the tracker holds it, is the one its
    /// current inputs give — a history point at that quantum with the
    /// rank, bit for bit, if and only if ranking it now passes the report
    /// filters.  Checked by [`Self::validate_invariants`], by both
    /// decoders and after a journal's replay; under the `invariants`
    /// feature it re-ranks every cluster, reused ranks included, at every
    /// quantum boundary.
    fn check_reported_outcomes(&self) -> Result<(), String> {
        let Some(last) = self.next_quantum.checked_sub(1) else {
            return Ok(());
        };
        let inputs = ReportInputs::new(
            &self.config,
            &self.window,
            self.akg.graph(),
            self.noun_filter.as_ref(),
        );
        let mut rows = Vec::new();
        for cluster in self.clusters.clusters() {
            let fresh = inputs.outcome(cluster, &mut rows).map(|(rank, _)| rank);
            let kept = self.tracker.outcome_at(cluster.id, last);
            if fresh.map(f64::to_bits) != kept.map(f64::to_bits) {
                return Err(format!(
                    "cluster {} reports {fresh:?} from its inputs, but its outcome at quantum \
                     {last} is {kept:?}",
                    cluster.id
                ));
            }
        }
        Ok(())
    }

    /// Serialises the complete detector state — configuration, sliding
    /// window (records + the index's live keyword ids), AKG graph,
    /// cluster registry, event tracker, noun verdicts, the partially
    /// filled message buffer and the quantum counters — to a
    /// [`dengraph_json::Value`].
    ///
    /// [`Self::from_json`] reconstructs a detector whose subsequent output
    /// is bit-identical to this one continuing uninterrupted; the
    /// session-level form is
    /// [`DetectorSession::checkpoint_bytes`](crate::session::DetectorSession::checkpoint_bytes)
    /// with [`WireFormat::Json`](dengraph_json::WireFormat::Json).
    pub fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        Value::obj([
            ("format", Value::str("dengraph-detector-state")),
            ("version", Value::from(CONTAINER_VERSION)),
            ("config", self.config.to_json()),
            ("window", self.window.to_json()),
            ("akg", self.akg.to_json()),
            ("clusters", self.clusters.to_json()),
            ("tracker", self.tracker.to_json()),
            (
                "noun_verdicts",
                self.noun_filter
                    .as_ref()
                    .map_or(Value::Null, NounFilter::to_json),
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
        Self::check_json_header(value)?;
        let config = DetectorConfig::from_json(value.get("config")?)?;
        config.validate().map_err(|e| dengraph_json::JsonError {
            message: format!("invalid configuration in checkpoint: {e}"),
            offset: 0,
        })?;
        Self::from_json_validated(config, value)
    }

    /// Checks a JSON document's `"format"` and `"version"` — first, so a
    /// document of another format epoch is refused for its version, not
    /// for a field its configuration may lack.
    pub(crate) fn check_json_header(value: &dengraph_json::Value) -> dengraph_json::Result<()> {
        match value.get("format")?.as_str()? {
            "dengraph-detector-state" => {}
            other => {
                return Err(dengraph_json::JsonError {
                    message: format!("unknown checkpoint format '{other}'"),
                    offset: 0,
                })
            }
        }
        let version = value.get("version")?.as_u64()?;
        if version != CONTAINER_VERSION {
            return Err(dengraph_json::JsonError {
                message: format!("unsupported checkpoint version {version}"),
                offset: 0,
            });
        }
        Ok(())
    }

    /// Decodes the full detector state of a document that passed
    /// [`Self::check_json_header`] under an already-decoded and
    /// -validated configuration (the session restore path, which surfaces
    /// configuration failures as a typed error before calling this).
    pub(crate) fn from_json_validated(
        config: DetectorConfig,
        value: &dengraph_json::Value,
    ) -> dengraph_json::Result<Self> {
        let noun_filter = value
            .get_opt("noun_verdicts")?
            .map(NounFilter::from_json)
            .transpose()?;
        let window = WindowState::from_json_with(
            value.get("window")?,
            Some(Self::window_geometry(&config)),
        )?;
        let next_quantum = Self::check_next_quantum(&window, value.get("next_quantum")?.as_u64()?)?;
        let akg = AkgMaintainer::from_json(config.clone(), &window, value.get("akg")?)?;
        Self {
            window,
            akg,
            clusters: ClusterMaintainer::from_json(value.get("clusters")?)?,
            tracker: EventTracker::from_json(value.get("tracker")?)?,
            noun_filter,
            buffer: value
                .get("buffer")?
                .as_arr()?
                .iter()
                .map(dengraph_stream::json::message_from_value)
                .collect::<dengraph_json::Result<_>>()?,
            next_quantum,
            total_messages: value.get("total_messages")?.as_u64()?,
            scratch: ScratchArena::default(),
            config,
        }
        .with_checked_outcomes(0)
    }

    /// `self`, or why its event tracker contradicts its clusters
    /// ([`Self::check_reported_outcomes`]) as a decode error at `offset`.
    /// Both decoders end with it, and journal recovery calls it once the
    /// delta tail is replayed.
    pub(crate) fn with_checked_outcomes(self, offset: usize) -> dengraph_json::Result<Self> {
        match self.check_reported_outcomes() {
            Ok(()) => Ok(self),
            Err(e) => Err(dengraph_json::JsonError {
                message: format!("event tracker: {e}"),
                offset,
            }),
        }
    }

    /// The window's geometry is derived state; a checkpoint whose window
    /// contradicts its own (validated) configuration is corrupt, and
    /// restoring it would silently change slide/sketch behaviour.  That
    /// includes the index's materialization threshold: the detector always
    /// wires it to σ, it decides which keywords get an entry, and a
    /// document that says otherwise was not written by this detector.
    /// Shared by the JSON and binary decoders, which check it before the
    /// window index is rebuilt.
    fn window_geometry(config: &DetectorConfig) -> WindowGeometry {
        WindowGeometry {
            capacity: config.window_quanta,
            sketch_size: config.sketch_size(),
            threshold: config.high_state_threshold as usize,
        }
    }

    /// The quantum counter is derived state as well: the window's newest
    /// record is the quantum processed last (and an empty window means
    /// none was).  Shared by the JSON and binary decoders.
    fn check_next_quantum(window: &WindowState, next_quantum: u64) -> dengraph_json::Result<u64> {
        let newest = window.current_index();
        if newest.map_or(Some(0), |q| q.checked_add(1)) != Some(next_quantum) {
            return Err(dengraph_json::JsonError {
                message: format!(
                    "next quantum {next_quantum} does not follow the window's newest record \
                     ({newest:?})"
                ),
                offset: 0,
            });
        }
        Ok(next_quantum)
    }

    /// Appends the complete detector state in the compact binary format —
    /// the binary twin of [`Self::to_json`], byte layout:
    /// config · window · AKG · clusters · tracker · noun filter (a tag
    /// byte: `0` none, `2` the verdict bits) · partial message buffer ·
    /// quantum counters.  The document header (magic + version) is
    /// written by the checkpoint container
    /// ([`DetectorSession::checkpoint_bytes`](crate::session::DetectorSession::checkpoint_bytes)
    /// / [`CheckpointJournal`](crate::checkpoint::CheckpointJournal)),
    /// not here.
    pub fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        self.to_bin_reusing(w, &RecordRing::default());
    }

    /// [`Self::to_bin`], copying each window record `records` holds from
    /// those bytes instead of encoding it again (a journal rebase: the
    /// records' delta frames already encoded them).  The one writer of
    /// the body layout.
    pub(crate) fn to_bin_reusing(&self, w: &mut dengraph_json::BinWriter, records: &RecordRing) {
        self.config.to_bin(w);
        self.window.to_bin_reusing(w, records);
        self.akg.to_bin(w);
        self.clusters.to_bin(w);
        self.tracker.to_bin(w);
        NounFilter::write_bin(self.noun_filter.as_ref(), w);
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
        let window = WindowState::from_bin_with(r, Some(Self::window_geometry(&config)))?;
        let akg = AkgMaintainer::from_bin(config.clone(), &window, r)?;
        let clusters = ClusterMaintainer::from_bin(r)?;
        let tracker = EventTracker::from_bin(r)?;
        let noun_filter = NounFilter::read_bin(r)?;
        let buffered = r.seq_len(2)?;
        let mut buffer = Vec::with_capacity(buffered.min(config.quantum_size));
        for _ in 0..buffered {
            buffer.push(dengraph_stream::json::message_from_bin(r)?);
        }
        let next_quantum = Self::check_next_quantum(&window, r.u64()?)?;
        Self {
            window,
            akg,
            clusters,
            tracker,
            noun_filter,
            buffer,
            next_quantum,
            total_messages: r.u64()?,
            scratch: ScratchArena::default(),
            config,
        }
        .with_checked_outcomes(r.pos())
    }

    /// Encodes the state transition of the quantum that just completed
    /// (`summary` must be its summary) as a journal delta-record payload:
    /// the window record, the AKG delta log still sitting in the scratch
    /// arena, the quantum's AKG statistics and the reported events.  The
    /// window record is encoded once, into the newest slot of `records`,
    /// and copied from there, so later rebases can copy it too.
    /// Encodes straight from the borrowed state into the caller's writer
    /// (the journal's frame buffer) — this runs once per quantum on the
    /// journaled hot path, so it must not clone the delta log or the
    /// window record first, nor allocate a payload of its own.
    pub(crate) fn encode_delta_record(
        &self,
        summary: &QuantumSummary,
        records: &mut RecordRing,
        w: &mut dengraph_json::BinWriter,
    ) {
        #[expect(clippy::expect_used, reason = "a quantum was just processed")]
        let record = self.window.current().expect("a quantum was just processed");
        debug_assert_eq!(record.index, summary.quantum, "summary is stale");
        crate::checkpoint::DeltaRecordView {
            record: records.push(record),
            akg_deltas: &self.scratch.deltas,
            akg_stats: self.akg.last_stats(),
            events: &summary.events,
        }
        .to_bin(w)
    }

    /// Redoes one quantum from a journal delta record — the replay half
    /// of incremental checkpointing.  Pushes the logged window record,
    /// re-applies the AKG delta log to the graph (whose node set is the
    /// keywords' high state), re-runs cluster maintenance from the same
    /// deltas (deterministic, cluster ids included) and re-observes the
    /// logged events; no correlation is re-scored.  Rejects records that
    /// do not continue exactly at this detector's next quantum.
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
        self.check_delta_log(record)
            .map_err(|e| dengraph_json::JsonError {
                message: format!("delta record for quantum {}: {e}", record.record.index),
                offset: 0,
            })?;
        // The record aggregates the full quantum, superseding any
        // partially buffered prefix of it restored from the snapshot.
        self.buffer.clear();
        self.akg.replay_deltas(&record.akg_deltas, record.akg_stats);
        // A keyword with σ users was bursty, and a bursty keyword ends its
        // quantum in the AKG.  Checked before the push: the window indexes
        // exactly these keywords, in slots sized by the largest id.
        let sigma = self.config.high_state_threshold as usize;
        let graph = self.akg.graph();
        if let Some((keyword, users)) = record
            .record
            .iter()
            .find(|(k, users)| users.len() >= sigma && !graph.contains_node(node_of(*k)))
        {
            return Err(dengraph_json::JsonError {
                message: format!(
                    "delta record for quantum {}: {keyword} has {} users but its delta log \
                     leaves it out of the AKG",
                    record.record.index,
                    users.len()
                ),
                offset: 0,
            });
        }
        let evicted = self.window.push(record.record.clone());
        if let Some(old) = evicted {
            self.scratch.record_storage = Some(old.into_storage());
        }
        check_akg_window_tie(self.akg.graph(), &self.window).map_err(|e| {
            dengraph_json::JsonError {
                message: format!("delta record for quantum {}: {e}", record.record.index),
                offset: 0,
            }
        })?;
        self.clusters
            .apply_deltas(self.akg.graph(), &record.akg_deltas, record.record.index);
        for event in &record.events {
            self.tracker.observe(event);
        }
        self.next_quantum = record.record.index + 1;
        self.total_messages = self
            .total_messages
            .saturating_add(record.record.message_count as u64);
        Ok(())
    }

    /// Checks a journal record's AKG delta log against the record itself,
    /// before anything replays it (the graph's slots are sized by the
    /// largest node id, so an id must be known to be a keyword of this
    /// state first): a node the log adds has σ users in the record — it
    /// was bursty — and an edge delta joins two distinct nodes, each a
    /// node of the graph or one the log adds.
    fn check_delta_log(&self, record: &crate::checkpoint::DeltaRecord) -> Result<(), String> {
        let sigma = self.config.high_state_threshold as usize;
        let mut added: Vec<NodeId> = Vec::new();
        for delta in &record.akg_deltas {
            if let GraphDelta::NodeAdded { node } = *delta {
                let keyword = keyword_of(node);
                let users = record.record.user_count(keyword);
                if users < sigma {
                    return Err(format!(
                        "the delta log adds {keyword}, which has {users} users in the record \
                         (σ = {sigma})"
                    ));
                }
                added.push(node);
            }
        }
        added.sort_unstable();
        let graph = self.akg.graph();
        for delta in &record.akg_deltas {
            let (GraphDelta::EdgeAdded { a, b, .. }
            | GraphDelta::EdgeWeightUpdated { a, b, .. }
            | GraphDelta::EdgeRemoved { a, b }) = *delta
            else {
                continue;
            };
            if a == b {
                return Err(format!("the delta log loops {} to itself", keyword_of(a)));
            }
            if let Some(&stray) = [a, b]
                .iter()
                .find(|&&n| !graph.contains_node(n) && added.binary_search(&n).is_err())
            {
                return Err(format!(
                    "the delta log names an edge at {}, which is no AKG node",
                    keyword_of(stray)
                ));
            }
        }
        Ok(())
    }

    /// Ranks every live cluster and applies the reporting filters.
    ///
    /// A node's support weight (distinct window users of its keyword) is
    /// read straight from the window index: every AKG node has a live
    /// index entry (see [`Self::validate_invariants`]), so each read is one
    /// slot load.  A ranked cluster costs one pass over its sorted columns
    /// ([`rank_and_support`]: rank and support together).
    ///
    /// A cluster's outcome reads only its columns, its edges' weights and
    /// its members' support, so most clusters keep last quantum's.  One
    /// the registry did not edit this quantum (`updated_quantum !=
    /// quantum`: every edit sets it), none of whose members is a keyword
    /// of the pushed or the `evicted` record (the only keywords whose
    /// window users changed) or a node of this quantum's AKG deltas (the
    /// only edges whose weight changed), has exactly its inputs of
    /// `quantum − 1`.  It reuses that quantum's outcome from the tracker
    /// ([`Self::check_reported_outcomes`] holds every restored state to
    /// it): the rank of its history point at `quantum − 1` with the
    /// support summed again, or no report.  The marks live in the
    /// scratch keyword bits between the AKG stage and the end of this
    /// one.  The loop allocates exactly the keyword list of each event it
    /// reports.
    fn report_events(
        &mut self,
        quantum: u64,
        evicted: Option<&QuantumRecord>,
    ) -> Vec<DetectedEvent> {
        let Self {
            config,
            window,
            akg,
            clusters,
            tracker,
            noun_filter,
            scratch,
            ..
        } = self;
        let ScratchArena {
            keyword_bits: moved,
            rank_rows,
            deltas,
            ..
        } = scratch;
        let inputs = ReportInputs::new(config, window, akg.graph(), noun_filter.as_ref());
        let moved_keywords = || {
            window
                .current()
                .into_iter()
                .chain(evicted)
                .flat_map(|record| record.keywords())
                .chain(deltas.iter().flat_map(|&d| delta_nodes(d).map(keyword_of)))
        };
        for keyword in moved_keywords() {
            moved.mark(keyword);
        }
        let previous = quantum.checked_sub(1);
        let mut events: Vec<DetectedEvent> = Vec::with_capacity(clusters.cluster_count());
        for cluster in clusters.clusters() {
            let unmoved = cluster.updated_quantum != quantum
                && !cluster.nodes.iter().any(|&n| moved.contains(keyword_of(n)));
            let outcome = match previous {
                Some(previous) if unmoved => tracker
                    .outcome_at(cluster.id, previous)
                    .map(|rank| (rank, inputs.support(cluster))),
                _ => inputs.outcome(cluster, rank_rows),
            };
            let Some((rank, support)) = outcome else {
                continue;
            };
            // Node order is keyword order, so the member column is the
            // event's sorted keyword list.
            events.push(DetectedEvent {
                cluster_id: cluster.id,
                quantum,
                rank,
                support,
                keywords: cluster.nodes.iter().map(|&n| keyword_of(n)).collect(),
            });
        }
        for keyword in moved_keywords() {
            moved.clear_word(keyword);
        }
        sort_report(&mut events);
        events
    }
}

/// Best rank first; equal ranks tie-break on cluster id so the report
/// order never depends on hash-map iteration order (and, ids being
/// unique, an unstable sort has nothing to reorder).
fn sort_report(events: &mut [DetectedEvent]) {
    events.sort_unstable_by(|a, b| {
        b.rank
            .total_cmp(&a.rank)
            .then(a.cluster_id.cmp(&b.cluster_id))
    });
}

/// The nodes a delta names (a node delta names its node twice).
fn delta_nodes(delta: GraphDelta) -> [NodeId; 2] {
    match delta {
        GraphDelta::NodeAdded { node } | GraphDelta::NodeRemoved { node } => [node, node],
        GraphDelta::EdgeAdded { a, b, .. }
        | GraphDelta::EdgeWeightUpdated { a, b, .. }
        | GraphDelta::EdgeRemoved { a, b } => [a, b],
    }
}

/// What ranking a cluster reads besides its own columns: the AKG's edge
/// weights, its members' window support, and the report filters.
struct ReportInputs<'a> {
    graph: &'a dengraph_graph::DynamicGraph,
    window: &'a WindowState,
    rank_threshold: f64,
    /// The noun filter, when the configuration requires a noun.
    noun_filter: Option<&'a NounFilter>,
}

impl<'a> ReportInputs<'a> {
    fn new(
        config: &DetectorConfig,
        window: &'a WindowState,
        graph: &'a dengraph_graph::DynamicGraph,
        noun_filter: Option<&'a NounFilter>,
    ) -> Self {
        Self {
            graph,
            window,
            rank_threshold: config.rank_report_threshold(),
            noun_filter: noun_filter.filter(|_| config.require_noun),
        }
    }

    /// A member's support: its keyword's distinct window users.
    fn node_support(&self, node: NodeId) -> usize {
        self.window.window_user_count(keyword_of(node))
    }

    /// The cluster's total support ([`cluster_support`]).
    fn support(&self, cluster: &Cluster) -> usize {
        cluster_support(cluster, &|node| self.node_support(node))
    }

    /// The cluster's rank and support if it is reported: its rank reaches
    /// the threshold and, when nouns are required, a member is a noun.
    /// `rows` is [`rank_and_support`]'s scratch.
    fn outcome(&self, cluster: &Cluster, rows: &mut Vec<f64>) -> Option<(f64, usize)> {
        let (rank, support) =
            rank_and_support(cluster, self.graph, &|node| self.node_support(node), rows);
        if rank < self.rank_threshold {
            return None;
        }
        if let Some(filter) = self.noun_filter {
            if !cluster.nodes.iter().any(|&n| filter.is_noun(keyword_of(n))) {
                return None;
            }
        }
        Some((rank, support))
    }
}

/// The tie between the AKG and the window index that ranking reads
/// support through: every AKG node has a live index entry
/// ([`live_keyword`]).  Checked by [`EventDetector::validate_invariants`]
/// and after every journal replay; the graph decoders admit no node
/// without one.
fn check_akg_window_tie(
    graph: &dengraph_graph::DynamicGraph,
    window: &WindowState,
) -> Result<(), String> {
    graph
        .nodes()
        .try_for_each(|node| live_keyword(window, node).map(drop))
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
    fn a_state_whose_akg_node_has_no_window_entry_is_rejected() {
        use crate::akg::{AkgQuantumStats, GraphDelta};
        use dengraph_graph::NodeId;
        let mut det = detector(cfg());
        det.process_messages(&event_quantum(&cfg(), 6, 0, &[1, 2, 3], 0));
        assert_eq!(det.validate_invariants(), Ok(()));
        let mut honest = dengraph_json::BinWriter::new();
        det.to_bin(&mut honest);

        // A journal record whose delta log adds a keyword of no window
        // record to the AKG (below σ, so the bursty check passes).
        let mut replayed =
            EventDetector::from_bin(&mut dengraph_json::BinReader::new(honest.as_slice())).unwrap();
        let stray = GraphDelta::NodeAdded { node: NodeId(99) };
        let record = crate::checkpoint::DeltaRecord {
            record: QuantumRecord::from_messages(1, &event_quantum(&cfg(), 2, 50, &[7], 20)),
            akg_deltas: vec![stray],
            akg_stats: AkgQuantumStats::default(),
            events: Vec::new(),
        };
        let err = replayed.apply_delta_record(&record).unwrap_err();
        assert!(err.message.contains("k99"), "{}", err.message);

        // The same node written into a checkpoint, both encodings.
        det.akg.replay_deltas(&[stray], AkgQuantumStats::default());
        let broken = det.validate_invariants().unwrap_err();
        assert!(broken.contains("no live window index entry"), "{broken}");
        let err = EventDetector::from_json(&det.to_json()).unwrap_err();
        assert!(
            err.message.contains("no live window index entry"),
            "{}",
            err.message
        );
        let mut tampered = dengraph_json::BinWriter::new();
        det.to_bin(&mut tampered);
        let err = EventDetector::from_bin(&mut dengraph_json::BinReader::new(tampered.as_slice()))
            .unwrap_err();
        assert!(
            err.message.contains("no live window index entry"),
            "{}",
            err.message
        );
    }

    /// The graph section of a checkpoint with its node column replaced by
    /// `nodes` (its edges kept), in both encodings.
    fn with_graph_nodes(det: &EventDetector, nodes: &[u32]) -> (dengraph_json::Value, Vec<u8>) {
        use dengraph_json::Value;
        let listed = det.akg.graph().nodes().map(|n| n.0);
        let column = |ids: &mut dyn Iterator<Item = u32>| {
            format!(
                "\"nodes\":{}",
                dengraph_json::to_string(&Value::arr(ids.map(Value::from)))
            )
        };
        let text = dengraph_json::to_string(&det.to_json()).replacen(
            &column(&mut listed.clone()),
            &column(&mut nodes.iter().copied()),
            1,
        );
        let json = dengraph_json::parse(&text).unwrap();
        let graph = json.get("akg").and_then(|akg| akg.get("graph")).unwrap();
        assert_eq!(
            graph.get("nodes").unwrap().as_arr().unwrap().len(),
            nodes.len()
        );
        // config · window · graph (node column, edges) · the rest.
        let (mut honest, mut head, mut graph, mut column, mut tampered) = (
            dengraph_json::BinWriter::new(),
            dengraph_json::BinWriter::new(),
            dengraph_json::BinWriter::new(),
            dengraph_json::BinWriter::new(),
            dengraph_json::BinWriter::new(),
        );
        det.to_bin(&mut honest);
        det.config.to_bin(&mut head);
        det.window.to_bin(&mut head);
        det.akg.graph().to_bin(&mut graph);
        column.delta_u32s(listed);
        let honest = honest.as_slice();
        assert!(honest[head.len()..].starts_with(graph.as_slice()));
        tampered.raw(head.as_slice());
        tampered.delta_u32s(nodes.iter().copied());
        tampered.raw(&honest[head.len() + column.len()..]);
        (json, tampered.into_bytes())
    }

    /// A graph node must have a live window index entry and an edge must
    /// join listed nodes; both decoders check each id before the graph's
    /// slots are sized by it (`u32::MAX` slots would take 96 GiB).
    #[test]
    fn a_graph_section_off_its_window_is_rejected_in_both_encodings() {
        let mut det = detector(cfg());
        det.process_messages(&event_quantum(&cfg(), 6, 0, &[1, 2, 3], 0));
        assert_eq!(det.akg.graph().node_count(), 3);
        let (json, bin) = with_graph_nodes(&det, &[1, 2, 3]);
        assert!(EventDetector::from_json(&json).is_ok());
        assert!(EventDetector::from_bin(&mut dengraph_json::BinReader::new(&bin)).is_ok());
        for (nodes, expected) in [
            (
                &[1, 2, 3, u32::MAX][..],
                "k4294967295 has no live window index entry",
            ),
            (&[1, 2, 3, 9][..], "k9 has no live window index entry"),
            (&[1, 2][..], "names k3, which is not a listed node"),
        ] {
            let (json, bin) = with_graph_nodes(&det, nodes);
            let err = EventDetector::from_json(&json).unwrap_err();
            assert!(err.message.contains(expected), "{nodes:?}: {}", err.message);
            let err =
                EventDetector::from_bin(&mut dengraph_json::BinReader::new(&bin)).unwrap_err();
            assert!(err.message.contains(expected), "{nodes:?}: {}", err.message);
        }
    }

    /// Replay checks a delta log against its own record first: a node it
    /// adds had σ users in the record, and an edge delta joins two
    /// distinct nodes of the graph or of the log.
    #[test]
    fn replay_rejects_a_delta_log_its_record_does_not_back() {
        use crate::akg::{AkgQuantumStats, GraphDelta};
        use dengraph_graph::NodeId;
        let mut det = detector(cfg());
        det.process_messages(&event_quantum(&cfg(), 6, 0, &[1, 2, 3], 0));
        let mut honest = dengraph_json::BinWriter::new();
        det.to_bin(&mut honest);
        // Keyword 7 has two users, keyword 8 three, in quantum 1.
        let mut messages = event_quantum(&cfg(), 2, 50, &[7], 20);
        messages.extend(event_quantum(&cfg(), 3, 60, &[8], 40));
        let record = QuantumRecord::from_messages(1, &messages);
        let added = |node| GraphDelta::NodeAdded { node: NodeId(node) };
        let edge = |a, b| GraphDelta::EdgeAdded {
            a: NodeId(a),
            b: NodeId(b),
            weight: 0.5,
        };
        for (akg_deltas, expected) in [
            (
                vec![added(7)],
                "adds k7, which has 2 users in the record (σ = 3)",
            ),
            (vec![edge(1, 50)], "an edge at k50, which is no AKG node"),
            (vec![added(8), edge(8, 1)], ""),
            (vec![edge(8, 1)], "an edge at k8, which is no AKG node"),
            (vec![edge(2, 2)], "loops k2 to itself"),
        ] {
            let mut replayed =
                EventDetector::from_bin(&mut dengraph_json::BinReader::new(honest.as_slice()))
                    .unwrap();
            let delta_record = crate::checkpoint::DeltaRecord {
                record: record.clone(),
                akg_deltas: akg_deltas.clone(),
                akg_stats: AkgQuantumStats::default(),
                events: Vec::new(),
            };
            let outcome = replayed.apply_delta_record(&delta_record);
            match outcome {
                Err(err) => assert!(
                    !expected.is_empty() && err.message.contains(expected),
                    "{akg_deltas:?}: {}",
                    err.message
                ),
                Ok(()) => assert!(expected.is_empty(), "{akg_deltas:?} was replayed"),
            }
        }
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

    /// Nouns and non-nouns, thirteen of them: the last verdict byte has
    /// three padding bits.
    fn mixed_vocabulary() -> KeywordInterner {
        let mut vocabulary = KeywordInterner::new();
        for word in [
            "earthquake",
            "massive",
            "tsunami",
            "really",
            "japan",
            "watching",
            "coast",
            "awesome",
            "warning",
            "quickly",
            "magnitude",
            "tremor",
            "hopeful",
        ] {
            vocabulary.intern(word);
        }
        vocabulary
    }

    /// A detector over [`mixed_vocabulary`] that has seen one quantum,
    /// and its binary body split around the noun filter section:
    /// `(before, section, after)`.
    fn filtered_detector() -> (EventDetector, Vec<u8>, Vec<u8>, Vec<u8>) {
        let mut det = detector(cfg()).with_interner(mixed_vocabulary());
        det.process_messages(&event_quantum(&cfg(), 6, 0, &[0, 2, 4], 0));
        let mut before = dengraph_json::BinWriter::new();
        det.config.to_bin(&mut before);
        det.window.to_bin(&mut before);
        det.akg.to_bin(&mut before);
        det.clusters.to_bin(&mut before);
        det.tracker.to_bin(&mut before);
        let mut section = dengraph_json::BinWriter::new();
        NounFilter::write_bin(det.noun_filter.as_ref(), &mut section);
        let mut body = dengraph_json::BinWriter::new();
        det.to_bin(&mut body);
        let (before, section) = (before.into_bytes(), section.into_bytes());
        assert!(body.as_slice().starts_with(&before));
        assert!(body.as_slice()[before.len()..].starts_with(&section));
        let after = body.as_slice()[before.len() + section.len()..].to_vec();
        (det, before, section, after)
    }

    /// Decodes a whole binary detector body, as a checkpoint container does.
    fn decode_body(body: &[u8]) -> dengraph_json::Result<EventDetector> {
        let mut r = dengraph_json::BinReader::new(body);
        let det = EventDetector::from_bin(&mut r)?;
        r.expect_end()?;
        Ok(det)
    }

    fn encoded(det: &EventDetector) -> Vec<u8> {
        let mut body = dengraph_json::BinWriter::new();
        det.to_bin(&mut body);
        body.into_bytes()
    }

    /// The verdicts a detector took from its vocabulary — and the ones
    /// each restore path rebuilds: the binary verdict bits and the JSON
    /// hex — are the heuristic's, for every vocabulary id; ids past the
    /// vocabulary are not nouns.  Every restore re-encodes to the honest
    /// bytes.
    #[test]
    fn restored_noun_verdicts_are_the_heuristics() {
        let (det, _, section, _) = filtered_detector();
        let vocabulary = mixed_vocabulary();
        let heuristic = NounHeuristic::new();
        assert_eq!(section[0], FILTER_VERDICTS);
        assert_eq!(section.len(), 1 + 1 + 2, "tag, len 13, two bytes");

        let honest_bin = encoded(&det);
        let honest_json = dengraph_json::to_string(&det.to_json());
        for (label, restored) in [
            ("binary verdicts", decode_body(&honest_bin)),
            ("JSON verdicts", EventDetector::from_json(&det.to_json())),
        ] {
            let restored = restored.unwrap_or_else(|e| panic!("{label}: {e}"));
            let filter = restored.noun_filter.as_ref().expect("a filter");
            let mut nouns = 0;
            for (id, word) in vocabulary.iter() {
                assert_eq!(
                    filter.is_noun(id),
                    heuristic.is_noun(word),
                    "{label}: {word}"
                );
                nouns += usize::from(filter.is_noun(id));
            }
            assert!(
                (1..vocabulary.len()).contains(&nouns),
                "{label}: a mixed vocabulary"
            );
            for id in vocabulary.len() as u32..64 {
                assert!(!filter.is_noun(KeywordId(id)), "{label}: id {id}");
            }
            assert!(encoded(&restored) == honest_bin, "{label}");
            assert_eq!(dengraph_json::to_string(&restored.to_json()), honest_json);
        }
    }

    /// A verdict byte count other than ⌈len/8⌉, a set padding bit, an
    /// unknown tag (the retired word list's 1 among them) and a JSON
    /// section that is not lower-case hex pairs: each is a typed error.
    #[test]
    fn a_malformed_noun_verdict_section_is_a_typed_error() {
        let (det, before, section, after) = filtered_detector();
        let bits = section[2..].to_vec();
        // earthquake, tsunami, japan, coast; magnitude, tremor.
        assert_eq!(bits, [0x55, 0x0c]);
        let verdicts = |len: usize, bits: &[u8]| {
            let mut w = dengraph_json::BinWriter::new();
            w.byte(FILTER_VERDICTS);
            w.usize(len);
            w.raw(bits);
            w.into_bytes()
        };
        let mut padded = bits.clone();
        padded[1] |= 0x80;
        let mut cases = vec![
            ("a byte short", verdicts(13, &bits[..1]), None),
            (
                "a byte long",
                verdicts(13, &[&bits[..], &[0]].concat()),
                None,
            ),
            ("len 8 over two bytes", verdicts(8, &bits), None),
            ("len 17 over two bytes", verdicts(17, &bits), None),
            ("a padding bit", verdicts(13, &padded), Some("padding")),
        ];
        for tag in std::iter::once(1).chain(3..=u8::MAX) {
            let mut tagged = section.clone();
            tagged[0] = tag;
            cases.push(("an unknown tag", tagged, Some("unknown noun filter tag")));
        }
        assert!(decode_body(&[&before[..], &section[..], &after[..]].concat()).is_ok());
        for (label, section, reason) in cases {
            let body = [&before[..], &section[..], &after[..]].concat();
            match decode_body(&body) {
                Err(e) => assert!(
                    reason.is_none_or(|reason| e.message.contains(reason)),
                    "{label}: rejected for {e}"
                ),
                Ok(_) => panic!("binary, {label}: accepted"),
            }
            // Alone, the section is refused for itself, not for what
            // follows it.
            let mut r = dengraph_json::BinReader::new(&section);
            assert!(
                NounFilter::read_bin(&mut r)
                    .and_then(|_| r.expect_end())
                    .is_err(),
                "binary section alone, {label}"
            );
        }

        let honest = dengraph_json::to_string(&det.to_json());
        let needle = "\"noun_verdicts\":{\"bits\":\"550c\",\"len\":13}";
        assert!(honest.contains(needle), "{honest}");
        assert!(EventDetector::from_json(&dengraph_json::parse(&honest).unwrap()).is_ok());
        for (label, replacement, reason) in [
            (
                "a byte long",
                r#"{"bits":"550c00","len":13}"#,
                "bytes for 13",
            ),
            ("a byte short", r#"{"bits":"55","len":13}"#, "bytes for 13"),
            ("len 8", r#"{"bits":"550c","len":8}"#, "bytes for 8"),
            ("len 17", r#"{"bits":"550c","len":17}"#, "bytes for 17"),
            ("a padding bit", r#"{"bits":"558c","len":13}"#, "padding"),
            ("an odd digit count", r#"{"bits":"550c5","len":13}"#, "hex"),
            ("upper-case hex", r#"{"bits":"550C","len":13}"#, "hex"),
            ("a non-hex digit", r#"{"bits":"5g0c","len":13}"#, "hex"),
            ("no bits", r#"{"len":13}"#, "bits"),
        ] {
            let tampered = honest.replace(needle, &format!("\"noun_verdicts\":{replacement}"));
            match EventDetector::from_json(&dengraph_json::parse(&tampered).unwrap()) {
                Err(e) => assert!(
                    e.message.contains(reason),
                    "JSON, {label}: rejected for {e}"
                ),
                Ok(_) => panic!("JSON, {label}: accepted"),
            }
        }
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

    /// Every live cluster ranked from its current inputs, filtered and
    /// ordered as a report: what stage 5 reports with no outcome reused.
    fn fresh_events(det: &EventDetector, quantum: u64) -> Vec<DetectedEvent> {
        let inputs = ReportInputs::new(
            &det.config,
            &det.window,
            det.akg.graph(),
            det.noun_filter.as_ref(),
        );
        let mut rows = Vec::new();
        let mut events: Vec<DetectedEvent> = det
            .clusters
            .clusters()
            .filter_map(|cluster| {
                let (rank, support) = inputs.outcome(cluster, &mut rows)?;
                Some(DetectedEvent {
                    cluster_id: cluster.id,
                    quantum,
                    rank,
                    support,
                    keywords: cluster.nodes.iter().map(|&n| keyword_of(n)).collect(),
                })
            })
            .collect();
        sort_report(&mut events);
        events
    }

    /// Processes one quantum and holds its report to [`fresh_events`]
    /// (ranks bit for bit) and the state to its invariants.
    fn step(det: &mut EventDetector, messages: &[Message]) -> QuantumSummary {
        let summary = det.process_messages(messages);
        let fresh = fresh_events(det, summary.quantum);
        let bits = |events: &[DetectedEvent]| -> Vec<(u64, u64, usize)> {
            events
                .iter()
                .map(|e| (e.cluster_id.0, e.rank.to_bits(), e.support))
                .collect()
        };
        assert_eq!(
            bits(&summary.events),
            bits(&fresh),
            "quantum {}: a reused outcome is not the cluster's own",
            summary.quantum
        );
        assert_eq!(summary.events, fresh);
        if let Err(e) = det.validate_invariants() {
            panic!("quantum {}: {e}", summary.quantum);
        }
        summary
    }

    /// `users` each post `keywords` once.
    fn posts(users: std::ops::Range<u64>, keywords: &[u32]) -> Vec<Message> {
        users
            .map(|u| Message::new(UserId(u), u, keywords.iter().map(|&i| k(i)).collect()))
            .collect()
    }

    /// The rank reported for `cluster` in `summary`, if any.
    fn rank_of(summary: &QuantumSummary, cluster: crate::cluster::ClusterId) -> Option<f64> {
        summary
            .events
            .iter()
            .find(|e| e.cluster_id == cluster)
            .map(|e| e.rank)
    }

    /// The one live cluster, which the registry last edited in
    /// `updated_quantum`.
    fn only_cluster(det: &EventDetector) -> &Cluster {
        let mut clusters = det.clusters.clusters();
        let cluster = clusters.next().expect("a live cluster");
        assert!(clusters.next().is_none(), "one live cluster");
        cluster
    }

    /// A member whose users leave with the evicted record, while it still
    /// occurs in the window: the registry does not touch the cluster and
    /// no AKG delta names the member, so only the evicted record's marks
    /// show that its support fell.
    #[test]
    fn a_member_seen_only_in_the_evicted_record_is_re_ranked() {
        let mut det = detector(cfg());
        let mut reports = Vec::new();
        for quantum in [
            posts(100..106, &[1, 2, 3]),
            posts(200..201, &[1, 2, 3]),
            Vec::new(),
            Vec::new(),
            // Quantum 0 slides out: six of each member's seven users go.
            Vec::new(),
        ] {
            let summary = step(&mut det, &quantum);
            let cluster = only_cluster(&det);
            reports.push(rank_of(&summary, cluster.id));
            assert!(cluster.updated_quantum <= 1);
        }
        assert_eq!(
            reports,
            [Some(18.0), Some(21.0), Some(21.0), Some(21.0), None],
            "7 users × (1 + 2 · 1.0) while the burst is in the window, 1 × 3 after"
        );
    }

    /// A member that is bursty again, over new users whose sketch shares
    /// no minimum with its neighbours': set 1 leaves the cluster's edges
    /// unscored, so no AKG delta names it and the registry does not touch
    /// the cluster; only the pushed record's marks show that its support
    /// rose.  One-value sketches: the new users hash below the first ones.
    #[test]
    fn a_bursty_member_whose_edges_go_unscored_is_re_ranked() {
        let config = DetectorConfig {
            min_sketch_size: 1,
            ..cfg()
        };
        assert_eq!(config.sketch_size(), 1);
        let hasher = UserHasher::new(WINDOW_HASHER_SEED);
        let mut ids: Vec<u64> = (0..60).collect();
        ids.sort_unstable_by_key(|&id| hasher.hash(id));
        let users = |ranks: std::ops::Range<usize>, keywords: &[u32]| -> Vec<Message> {
            ids[ranks]
                .iter()
                .map(|&u| Message::new(UserId(u), u, keywords.iter().map(|&i| k(i)).collect()))
                .collect()
        };
        let mut det = detector(config);
        let summary = step(&mut det, &users(50..56, &[1, 2, 3]));
        let id = only_cluster(&det).id;
        assert_eq!(rank_of(&summary, id), Some(18.0));
        let mut apart = users(0..3, &[1]);
        apart.extend(users(3..6, &[2]));
        apart.extend(users(6..9, &[3]));
        let summary = step(&mut det, &apart);
        assert_eq!(summary.akg_stats.pairs_evaluated, 0);
        assert_eq!(only_cluster(&det).updated_quantum, 0);
        assert_eq!(rank_of(&summary, id), Some(27.0), "9 users × (1 + 2 · 1.0)");
    }

    /// An edge's weight moves while every member keeps its support: user
    /// 300 leaves keyword 3 with the evicted record and user 301 joins it,
    /// so EC(1, 3) falls from 1 to 6/8 on its own.
    #[test]
    fn a_cluster_edge_whose_weight_alone_moves_is_re_ranked() {
        let mut det = detector(cfg());
        let core = || posts(100..106, &[1, 2, 3]);
        let with = |mut messages: Vec<Message>, extra: Vec<Message>| {
            messages.extend(extra);
            messages
        };
        let mut reports = Vec::new();
        for quantum in [
            core(),
            with(core(), posts(300..301, &[1, 3])),
            core(),
            with(core(), posts(300..301, &[1])),
            core(),
            with(core(), posts(301..302, &[3])),
        ] {
            let summary = step(&mut det, &quantum);
            let cluster = only_cluster(&det);
            assert_eq!(cluster.updated_quantum, 0, "weights are not registry edits");
            let event = summary.events.iter().find(|e| e.cluster_id == cluster.id);
            reports.push(event.map(|e| (e.rank, e.support)));
        }
        let (before, after) = (reports[4].unwrap(), reports[5].unwrap());
        assert_eq!(before.1, after.1, "every member keeps its support");
        assert!(after.0 < before.0, "EC(1, 3) fell: {before:?} → {after:?}");
    }

    /// A five-node cluster (triangles 1-2-3 and 3-4-5 joined by triangle
    /// 2-3-4) loses edge 2-4 when its users slide out: it splits, the
    /// successor 1-2-3 keeps the cluster's id and is ranked afresh, and
    /// 3-4-5 gets a new id.
    #[test]
    fn a_split_whose_first_successor_keeps_its_id_is_re_ranked() {
        let mut det = detector(cfg());
        let mut first = posts(100..103, &[1, 2, 3]);
        first.extend(posts(200..203, &[3, 4, 5]));
        first.extend(posts(300..303, &[2, 4]));
        let summary = step(&mut det, &first);
        let whole = only_cluster(&det).id;
        assert_eq!(only_cluster(&det).nodes.len(), 5);
        let whole_rank = rank_of(&summary, whole).expect("the five-node cluster is reported");
        let mut again = posts(100..102, &[1, 2, 3]);
        again.extend(posts(200..202, &[3, 4, 5]));
        for quantum in 1..4 {
            let summary = step(&mut det, &again);
            assert_eq!(only_cluster(&det).updated_quantum, 0, "quantum {quantum}");
            assert!(rank_of(&summary, whole).is_some());
        }
        // Quantum 0 slides out with the users of 2-4.
        let summary = step(&mut det, &again);
        assert!(!det.akg().contains_edge(NodeId(2), NodeId(4)));
        let kept = det.clusters.registry().get(whole).expect("the id survives");
        assert_eq!(kept.nodes, [1, 2, 3].map(NodeId));
        assert_eq!(kept.updated_quantum, 4);
        assert_eq!(det.clusters.cluster_count(), 2);
        let kept_rank = rank_of(&summary, whole).expect("1-2-3 is reported");
        assert_ne!(kept_rank.to_bits(), whole_rank.to_bits());
        // 2 × (1 + 1 + 0.5), twice, and 4 × (1 + 0.5 + 0.5), over 3.
        assert_eq!(kept_rank, 6.0);
    }

    /// A cluster below the report threshold at q − 1 stays unreported
    /// while nothing moves, is reported once a new user lifts it, keeps
    /// that report while nothing moves, and drops out when the window
    /// loses its users.
    #[test]
    fn a_cluster_below_the_threshold_keeps_its_outcome_until_an_input_moves() {
        let config = DetectorConfig {
            rank_threshold_factor: 2.0,
            ..cfg()
        };
        // 9.6: above 3 users × (1 + 2 · 1.0), below 4 × 3.
        let threshold = config.rank_report_threshold();
        assert!(9.0 < threshold && threshold < 12.0);
        let mut det = detector(config);
        let mut reports = Vec::new();
        for quantum in [
            posts(100..103, &[1, 2, 3]),
            Vec::new(),
            posts(103..104, &[1, 2, 3]),
            Vec::new(),
            // Quantum 0 slides out.
            Vec::new(),
            Vec::new(),
        ] {
            let summary = step(&mut det, &quantum);
            reports.push(rank_of(&summary, only_cluster(&det).id));
        }
        assert_eq!(reports, [None, None, Some(12.0), Some(12.0), None, None]);
    }

    /// The scenarios above in one stream, under distinct keywords: a
    /// restore from either encoding after every quantum continues with
    /// the uninterrupted run's reports, every one held to a fresh re-rank.
    #[test]
    fn a_restored_detector_reuses_only_outcomes_its_inputs_give() {
        let config = DetectorConfig {
            rank_threshold_factor: 1.5,
            ..cfg()
        };
        let shifted = |messages: Vec<Message>, by: u32, users: u64| -> Vec<Message> {
            messages
                .into_iter()
                .map(|m| {
                    let keywords = m.keywords.iter().map(|kw| k(kw.0 + by)).collect();
                    Message::new(UserId(m.user.raw() + users), m.time, keywords)
                })
                .collect()
        };
        let quanta: Vec<Vec<Message>> = (0..14u64)
            .map(|q| {
                let mut messages = Vec::new();
                if q % 7 == 0 {
                    messages.extend(posts(100..106, &[1, 2, 3]));
                    messages.extend(shifted(posts(100..103, &[1, 2, 3]), 10, 1_000));
                    messages.extend(shifted(posts(200..203, &[3, 4, 5]), 10, 1_000));
                    messages.extend(shifted(posts(300..303, &[2, 4]), 10, 1_000));
                }
                if q % 7 == 1 {
                    messages.extend(posts(200..201, &[1, 2, 3]));
                }
                if q % 7 != 0 && q % 7 < 5 {
                    messages.extend(shifted(posts(100..102, &[1, 2, 3]), 10, 1_000));
                    messages.extend(shifted(posts(200..202, &[3, 4, 5]), 10, 1_000));
                }
                if q % 3 == 2 {
                    messages.extend(shifted(posts(100..103 + q, &[1, 2, 3]), 20, 2_000));
                }
                messages
            })
            .collect();
        let mut whole = detector(config.clone());
        let expected: Vec<QuantumSummary> = quanta.iter().map(|q| step(&mut whole, q)).collect();
        assert!(expected.iter().any(|s| !s.events.is_empty()));
        for at in 1..quanta.len() {
            let mut head = detector(config.clone());
            for quantum in &quanta[..at] {
                head.process_messages(quantum);
            }
            let mut bin = dengraph_json::BinWriter::new();
            head.to_bin(&mut bin);
            let restored = [
                EventDetector::from_json(&head.to_json()).expect("JSON restores"),
                EventDetector::from_bin(&mut dengraph_json::BinReader::new(bin.as_slice()))
                    .expect("binary restores"),
            ];
            for mut det in restored {
                for (quantum, summary) in quanta[at..].iter().zip(&expected[at..]) {
                    assert_eq!(&step(&mut det, quantum), summary, "restored at {at}");
                }
            }
        }
    }

    /// A document whose tracker does not hold a cluster's last outcome is
    /// one the engine could not have written, and both decoders refuse it:
    /// the next quantum would report from it.
    #[test]
    fn decoders_reject_a_tracker_that_contradicts_the_clusters() {
        let mut det = detector(cfg());
        step(&mut det, &posts(100..106, &[1, 2, 3]));
        step(&mut det, &[]);
        let id = only_cluster(&det).id;
        let honest = det.tracker.get(id).expect("reported").clone();
        let mut forged = honest.clone();
        forged.rank_history.last_mut().expect("a report").1 += 1.0;
        let mut stale = honest.clone();
        stale.rank_history.pop();
        for (record, expected) in [
            (
                Some(forged),
                "reports Some(18.0) from its inputs, but its outcome",
            ),
            (Some(stale), "is None"),
            (None, "is None"),
        ] {
            let mut tampered = detector(cfg());
            step(&mut tampered, &posts(100..106, &[1, 2, 3]));
            step(&mut tampered, &[]);
            tampered.tracker = EventTracker::new();
            if let Some(record) = &record {
                for (q, rank) in &record.rank_history {
                    tampered.tracker.observe(&DetectedEvent {
                        cluster_id: id,
                        quantum: *q,
                        keywords: record.keywords.clone(),
                        rank: *rank,
                        support: record.peak_support,
                    });
                }
            }
            let err = EventDetector::from_json(&tampered.to_json()).unwrap_err();
            assert!(err.message.contains(expected), "{}", err.message);
            let mut bin = dengraph_json::BinWriter::new();
            tampered.to_bin(&mut bin);
            let err = EventDetector::from_bin(&mut dengraph_json::BinReader::new(bin.as_slice()))
                .unwrap_err();
            assert!(err.message.contains(expected), "{}", err.message);
            assert!(tampered.validate_invariants().is_err());
        }
        let mut bin = dengraph_json::BinWriter::new();
        det.to_bin(&mut bin);
        assert!(
            EventDetector::from_bin(&mut dengraph_json::BinReader::new(bin.as_slice())).is_ok()
        );
    }
}
