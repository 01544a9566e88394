//! The service-shaped session API: typed construction, push-based event
//! delivery and durable checkpoints.
//!
//! The paper's detector is an always-on service over an unbounded stream;
//! this module wraps the batch-shaped [`EventDetector`] in the three pieces
//! such a deployment needs:
//!
//! * [`DetectorBuilder`] — fallible, typed construction.  `build()` returns
//!   `Err(`[`ConfigError`]`)` for every degenerate configuration instead of
//!   panicking (or worse, hanging) deep inside the pipeline.
//! * [`EventSink`] — push-based delivery.  Sinks attached to a
//!   [`DetectorSession`] are notified of every processed quantum, every
//!   reported event and every window slide, so subscribers no longer poll
//!   `process_quantum` return values.  [`VecSink`], [`JsonLinesSink`] and
//!   [`FnSink`] cover the common cases.
//! * [`Checkpoint`] — durable state.  [`DetectorSession::checkpoint`]
//!   serialises the *complete* detector state (window records and index,
//!   AKG, cluster registry, event tracker, partial message buffer,
//!   counters) and [`DetectorSession::restore`] resumes it such that
//!   restore-then-continue is **bit-identical** to the uninterrupted run —
//!   across every `Parallelism` × `WindowIndexMode` profile
//!   (`tests/checkpoint_resume.rs` gates this).
//!
//! ```
//! use dengraph_core::{DetectorBuilder, DetectorSession, VecSink};
//! use dengraph_stream::{Message, UserId};
//! use dengraph_text::KeywordId;
//! use std::sync::{Arc, Mutex};
//!
//! let mut session = DetectorBuilder::new()
//!     .quantum_size(8)
//!     .high_state_threshold(3)
//!     .build()
//!     .expect("nominal-derived config is valid");
//! let sink = Arc::new(Mutex::new(VecSink::new()));
//! session.attach_sink(Box::new(Arc::clone(&sink)));
//!
//! for u in 0..8u64 {
//!     let keywords = if u < 5 {
//!         vec![KeywordId(1), KeywordId(2), KeywordId(3)]
//!     } else {
//!         vec![KeywordId(100 + u as u32)]
//!     };
//!     session.push_message(Message::new(UserId(u), u, keywords));
//! }
//! assert_eq!(sink.lock().unwrap().summaries().len(), 1);
//!
//! // Durable state: checkpoint, restore, continue.
//! let checkpoint = session.checkpoint();
//! let resumed = DetectorSession::restore(&checkpoint).unwrap();
//! assert_eq!(resumed.quanta_processed(), session.quanta_processed());
//! ```

use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use dengraph_json::{Decode, JsonError, JsonWriter, WireFormat};
use dengraph_stream::{Message, Quantum};
use dengraph_text::KeywordInterner;

use crate::checkpoint::{self, CheckpointJournal, CheckpointMode};
use crate::cluster::ClusterId;
use crate::config::{ConfigError, DetectorConfig, Parallelism, WindowIndexMode};
use crate::detector::{EventDetector, QuantumSummary};
use crate::event::{EventRecord, EventTracker};
use crate::wal::{self, DurableJournalConfig, RecoveryReport};

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Typed, fallible construction of a [`DetectorSession`].
///
/// Defaults to the paper's nominal configuration (Table 2); every knob of
/// [`DetectorConfig`] has a builder method.  [`Self::build`] validates the
/// assembled configuration and returns a typed [`ConfigError`] instead of
/// panicking.
#[derive(Debug, Clone, Default)]
pub struct DetectorBuilder {
    config: DetectorConfig,
    interner: Option<KeywordInterner>,
    journal: Option<JournalSpec>,
}

/// What kind of checkpoint journal [`DetectorBuilder::build`] enables.
#[derive(Debug, Clone)]
enum JournalSpec {
    Memory {
        mode: CheckpointMode,
        format: WireFormat,
    },
    Durable {
        dir: PathBuf,
        config: DurableJournalConfig,
    },
}

impl DetectorBuilder {
    /// Starts from the nominal configuration of Table 2.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts from an explicit configuration (e.g. a sweep point or a
    /// configuration deserialised from disk).
    pub fn from_config(config: DetectorConfig) -> Self {
        Self {
            config,
            interner: None,
            journal: None,
        }
    }

    /// Sets the quantum size Δ (messages per quantum).
    pub fn quantum_size(mut self, delta: usize) -> Self {
        self.config.quantum_size = delta;
        self
    }

    /// Sets the high-state threshold σ (distinct users for burstiness).
    pub fn high_state_threshold(mut self, sigma: u32) -> Self {
        self.config.high_state_threshold = sigma;
        self
    }

    /// Sets the edge-correlation threshold τ.
    pub fn edge_correlation_threshold(mut self, tau: f64) -> Self {
        self.config.edge_correlation_threshold = tau;
        self
    }

    /// Sets the window length `w` in quanta.
    pub fn window_quanta(mut self, w: usize) -> Self {
        self.config.window_quanta = w;
        self
    }

    /// Uses the exact Jaccard coefficient instead of the min-hash estimate.
    pub fn exact_edge_correlation(mut self, exact: bool) -> Self {
        self.config.exact_edge_correlation = exact;
        self
    }

    /// Sets the lower bound on the min-hash sketch size.
    pub fn min_sketch_size(mut self, p: usize) -> Self {
        self.config.min_sketch_size = p;
        self
    }

    /// Enables or disables the cluster-membership hysteresis rule.
    pub fn hysteresis(mut self, keep: bool) -> Self {
        self.config.hysteresis = keep;
        self
    }

    /// Sets the rank-threshold precision-filter factor.
    pub fn rank_threshold_factor(mut self, factor: f64) -> Self {
        self.config.rank_threshold_factor = factor;
        self
    }

    /// Requires (or not) a noun keyword in reported events.
    pub fn require_noun(mut self, required: bool) -> Self {
        self.config.require_noun = required;
        self
    }

    /// Sets the pipeline parallelism.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.config.parallelism = parallelism;
        self
    }

    /// Sets the sliding-window index mode.
    pub fn window_index_mode(mut self, mode: WindowIndexMode) -> Self {
        self.config.window_index_mode = mode;
        self
    }

    /// Supplies the keyword interner of the message stream, enabling the
    /// noun-based precision filter (Section 7.2.2).
    pub fn interner(mut self, interner: KeywordInterner) -> Self {
        self.interner = Some(interner);
        self
    }

    /// Enables an in-memory checkpoint journal (binary wire format) on
    /// the built session — the builder form of
    /// [`DetectorSession::enable_journal`].
    pub fn journal(mut self, mode: CheckpointMode) -> Self {
        self.journal = Some(JournalSpec::Memory {
            mode,
            format: WireFormat::Binary,
        });
        self
    }

    /// Enables a durable, file-backed write-ahead journal under `dir` on
    /// the built session — the builder form of
    /// [`DetectorSession::enable_durable_journal`].  An I/O failure while
    /// opening the journal surfaces from [`Self::build`] as
    /// [`ConfigError::Journal`].
    pub fn durable_journal(
        mut self,
        dir: impl Into<PathBuf>,
        config: DurableJournalConfig,
    ) -> Self {
        self.journal = Some(JournalSpec::Durable {
            dir: dir.into(),
            config,
        });
        self
    }

    /// The configuration assembled so far.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Validates the configuration and builds the session.
    ///
    /// Never panics: every degenerate configuration — zero quantum, window
    /// or σ, zero sketch width, out-of-range or NaN thresholds,
    /// `Threads(0)` — comes back as the matching [`ConfigError`] variant.
    pub fn build(self) -> Result<DetectorSession, ConfigError> {
        self.config.validate()?;
        let mut detector = EventDetector::from_config(self.config);
        if let Some(interner) = self.interner {
            detector = detector.with_interner(interner);
        }
        let mut session = DetectorSession {
            detector,
            sinks: Vec::new(),
            journal: None,
        };
        match self.journal {
            None => {}
            Some(JournalSpec::Memory { mode, format }) => {
                session.enable_journal_with_format(mode, format);
            }
            Some(JournalSpec::Durable { dir, config }) => {
                session
                    .enable_durable_journal(&dir, config)
                    .map_err(|e| ConfigError::Journal(format!("{}: {e}", dir.display())))?;
            }
        }
        Ok(session)
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// A push-based subscriber to a [`DetectorSession`].
///
/// All methods have empty default bodies, so implementors override only
/// what they care about.  Per processed quantum a session calls, in order:
/// [`Self::on_slide`] (if a quantum slid out of the window),
/// [`Self::on_quantum`] with the full summary, then [`Self::on_event`] once
/// per event reported in that quantum — with the *up-to-date long-term
/// record*, so subscribers see rank history and keyword evolution without
/// keeping their own state.  That is the in-process contract; what a sink
/// puts on a wire is its own business ([`JsonLinesSink`] sends only what
/// the report added, and [`EventLineReader`] rebuilds the records).
pub trait EventSink {
    /// One quantum was processed.
    fn on_quantum(&mut self, _summary: &QuantumSummary) {}

    /// An event was reported in the quantum just processed.  `record` is
    /// the event's full history including this report.
    fn on_event(&mut self, _record: &EventRecord) {}

    /// The window slid past its capacity: quantum `evicted_quantum` just
    /// left the window of `window_quanta` quanta.
    fn on_slide(&mut self, _evicted_quantum: u64, _window_quanta: usize) {}

    /// Everything from one processed quantum, delivered in a single call:
    /// the slide (if any), the summary, and every reported event's
    /// up-to-date record, in that order.  The default implementation
    /// fans out to the three fine-grained callbacks, so ordinary sinks
    /// implement only those; adapters that pay a per-call cost (locks,
    /// syscalls, network round trips) override this to pay it **once per
    /// quantum** instead of once per notification.
    fn on_quantum_batch(&mut self, batch: &QuantumNotifications<'_>) {
        if let Some(evicted) = batch.evicted_quantum {
            self.on_slide(evicted, batch.window_quanta);
        }
        self.on_quantum(batch.summary);
        for record in batch.records {
            self.on_event(record);
        }
    }
}

/// One quantum's worth of sink notifications, bundled so adapters can
/// deliver them under a single lock acquisition (see
/// [`EventSink::on_quantum_batch`]).
pub struct QuantumNotifications<'a> {
    /// The processed quantum's summary.
    pub summary: &'a QuantumSummary,
    /// The up-to-date long-term record of each event reported this
    /// quantum, in report order.
    pub records: &'a [&'a EventRecord],
    /// The quantum that slid out of the window, if it was full.
    pub evicted_quantum: Option<u64>,
    /// The configured window length in quanta.
    pub window_quanta: usize,
}

/// Shared-ownership adapter: attach an `Arc<Mutex<S>>` and keep a clone to
/// read the sink's state back after (or while) the session runs.  The
/// mutex is taken **once per processed quantum** (via
/// [`EventSink::on_quantum_batch`]), not once per notification.
impl<S: EventSink> EventSink for Arc<Mutex<S>> {
    fn on_quantum(&mut self, summary: &QuantumSummary) {
        self.lock().expect("sink poisoned").on_quantum(summary);
    }

    fn on_event(&mut self, record: &EventRecord) {
        self.lock().expect("sink poisoned").on_event(record);
    }

    fn on_slide(&mut self, evicted_quantum: u64, window_quanta: usize) {
        self.lock()
            .expect("sink poisoned")
            .on_slide(evicted_quantum, window_quanta);
    }

    fn on_quantum_batch(&mut self, batch: &QuantumNotifications<'_>) {
        // One lock acquisition for the whole quantum; the inner sink's own
        // `on_quantum_batch` preserves the slide → quantum → events order.
        self.lock().expect("sink poisoned").on_quantum_batch(batch);
    }
}

/// Collects everything pushed to it (the in-memory default sink).
#[derive(Debug, Default)]
pub struct VecSink {
    summaries: Vec<QuantumSummary>,
    events: Vec<EventRecord>,
    slides: Vec<u64>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every summary received so far, in quantum order.
    pub fn summaries(&self) -> &[QuantumSummary] {
        &self.summaries
    }

    /// Every event-record snapshot received so far (one per report, so an
    /// evolving event appears repeatedly with growing history).
    pub fn events(&self) -> &[EventRecord] {
        &self.events
    }

    /// Every evicted quantum index received so far.
    pub fn slides(&self) -> &[u64] {
        &self.slides
    }

    /// Consumes the sink, returning the collected summaries.
    pub fn into_summaries(self) -> Vec<QuantumSummary> {
        self.summaries
    }
}

impl EventSink for VecSink {
    fn on_quantum(&mut self, summary: &QuantumSummary) {
        self.summaries.push(summary.clone());
    }

    fn on_event(&mut self, record: &EventRecord) {
        self.events.push(record.clone());
    }

    fn on_slide(&mut self, evicted_quantum: u64, _window_quanta: usize) {
        self.slides.push(evicted_quantum);
    }
}

/// Writes one JSON object per notification to any [`Write`] destination
/// (a file, a socket, a `Vec<u8>` in tests), keys sorted, one line each:
///
/// * `{…,"type":"quantum"}` — the fields of [`QuantumSummary::to_json`];
/// * `{"evicted_quantum":…,"type":"slide","window_quanta":…}`;
/// * `{…,"type":"event"}` — the reported event's record **without its
///   `rank_history`**: every other [`EventRecord`] field, plus `"rank"`
///   (the point this report appended; its quantum is `last_seen`) and
///   `"reports"` (the history's length so far).  A line therefore costs
///   O(keywords) however long the event has lived, instead of re-sending
///   the whole history with every report.  [`EventLineReader`] folds the
///   lines back into full records.
///
/// Lines are serialised straight into one reused buffer (no value tree,
/// no allocation once the buffer has grown to the longest line), buffered
/// behind a [`BufWriter`] and flushed **once per quantum batch** (and on
/// drop), so a file- or socket-backed sink costs one syscall per quantum
/// instead of one per notification.
///
/// A sink must never abort the detector, so delivery failures do not
/// propagate out of the notification callbacks; instead the **first**
/// write/flush error is latched.  Callers that care about delivery call
/// [`Self::close`] when done — it surfaces the latched error (or the
/// final flush's) as a real `Err`.  A sink dropped with an unreported
/// error logs it to stderr rather than swallowing it.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write> {
    /// `None` only after `close`/`into_inner` moved the writer out.
    writer: Option<BufWriter<W>>,
    error: Option<io::Error>,
    /// The line being serialised.
    line: String,
}

impl<W: Write> JsonLinesSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        Self {
            writer: Some(BufWriter::new(writer)),
            error: None,
            line: String::new(),
        }
    }

    /// Flushes buffered lines to the underlying writer.  Called
    /// automatically at every quantum-batch boundary and on drop;
    /// exposed for subscribers that need an explicit sync point.
    /// Failures are latched (see [`Self::last_error`]), not returned —
    /// a sink must never abort the detector mid-quantum.
    pub fn flush(&mut self) {
        if let Some(writer) = &mut self.writer {
            if let Err(e) = writer.flush() {
                self.latch(e);
            }
        }
    }

    /// The first write or flush failure since the sink was created, if
    /// any.  Once set, it stays set (later lines may have been lost).
    pub fn last_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Flushes and unwraps the inner writer, surfacing the latched error
    /// (or the final flush's) instead of discarding it — the "did every
    /// line reach the destination?" exit path.
    pub fn close(mut self) -> io::Result<W> {
        let mut writer = self.writer.take().expect("writer present until close");
        let flushed = writer.flush();
        let inner = writer.into_parts().0;
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        flushed?;
        Ok(inner)
    }

    /// Unwraps the inner writer, flushing buffered lines first.  Any
    /// latched delivery error is debug-logged on drop; use
    /// [`Self::close`] to receive it instead.
    pub fn into_inner(mut self) -> W {
        self.flush();
        let writer = self.writer.take().expect("writer present until into_inner");
        // Drop still runs on `self` and reports `self.error` if set.
        writer.into_parts().0
    }

    fn latch(&mut self, e: io::Error) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// Writes one line: an object of the `fields` the closure streams
    /// (its `"type"` tag included, in its sorted place).
    fn write_line(&mut self, fields: impl FnOnce(&mut JsonWriter<'_>)) {
        let Some(writer) = &mut self.writer else {
            return;
        };
        self.line.clear();
        let mut w = JsonWriter::new(&mut self.line);
        w.begin_obj();
        fields(&mut w);
        w.end_obj();
        self.line.push('\n');
        if let Err(e) = writer.write_all(self.line.as_bytes()) {
            self.latch(e);
        }
    }
}

impl<W: Write> Drop for JsonLinesSink<W> {
    fn drop(&mut self) {
        self.flush();
        // Dropping is the lossy exit: an error nobody collected via
        // `close()`/`last_error()` would vanish silently, so make it at
        // least visible.
        if let Some(e) = &self.error {
            eprintln!("dengraph: JsonLinesSink dropped with undelivered output: {e}");
        }
    }
}

impl<W: Write> EventSink for JsonLinesSink<W> {
    fn on_quantum(&mut self, summary: &QuantumSummary) {
        self.write_line(|w| {
            summary.write_fields(w);
            w.key("type");
            w.str("quantum");
        });
    }

    fn on_event(&mut self, record: &EventRecord) {
        self.write_line(|w| {
            record.write_report_fields(w);
            w.key("type");
            w.str("event");
        });
    }

    fn on_slide(&mut self, evicted_quantum: u64, window_quanta: usize) {
        self.write_line(|w| {
            w.key("evicted_quantum");
            w.u64(evicted_quantum);
            w.key("type");
            w.str("slide");
            w.key("window_quanta");
            w.u64(window_quanta as u64);
        });
    }

    fn on_quantum_batch(&mut self, batch: &QuantumNotifications<'_>) {
        // Default fan-out (slide → quantum → events), then one flush for
        // the whole quantum.
        if let Some(evicted) = batch.evicted_quantum {
            self.on_slide(evicted, batch.window_quanta);
        }
        self.on_quantum(batch.summary);
        for record in batch.records {
            self.on_event(record);
        }
        self.flush();
    }
}

/// Adapts a closure into a per-quantum sink — the quickest way to hook a
/// dashboard or a log line onto the stream.
pub struct FnSink<F: FnMut(&QuantumSummary)> {
    f: F,
}

impl<F: FnMut(&QuantumSummary)> FnSink<F> {
    /// Wraps a closure invoked once per processed quantum.
    pub fn new(f: F) -> Self {
        Self { f }
    }
}

impl<F: FnMut(&QuantumSummary)> EventSink for FnSink<F> {
    fn on_quantum(&mut self, summary: &QuantumSummary) {
        (self.f)(summary)
    }
}

/// Why [`EventLineReader::push_line`] rejected a line.
#[derive(Debug, Clone, PartialEq)]
pub enum EventLineError {
    /// The line is not a JSON object with a `"type"`, or an `event` line
    /// lacks a field.
    Json(JsonError),
    /// An `event` line is report number `reports` of its event, but the
    /// reader has seen only `seen` of them (this one included): it joined
    /// mid-stream or lines were lost, and the reassembled rank history
    /// would be silently short.
    MissedReports {
        /// The event the line belongs to.
        cluster_id: ClusterId,
        /// The line's own report count.
        reports: usize,
        /// Reports of this event the reader has folded, this one included.
        seen: usize,
    },
}

impl std::fmt::Display for EventLineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventLineError::Json(e) => write!(f, "malformed sink line: {e}"),
            EventLineError::MissedReports {
                cluster_id,
                reports,
                seen,
            } => write!(
                f,
                "event {} is at report {reports} but only {seen} were read: \
                 the stream was joined after its start or lost lines",
                cluster_id.0
            ),
        }
    }
}

impl std::error::Error for EventLineError {}

impl From<JsonError> for EventLineError {
    fn from(e: JsonError) -> Self {
        EventLineError::Json(e)
    }
}

/// Rebuilds full [`EventRecord`]s from the lines a [`JsonLinesSink`]
/// wrote.  An `event` line carries the record's header and only the
/// newest rank point; the reader groups lines by `cluster_id`, overwrites
/// the header and appends the point, so after the last line its records
/// equal [`DetectorSession::event_records`] field for field.
#[derive(Debug, Default)]
pub struct EventLineReader {
    tracker: EventTracker,
}

impl EventLineReader {
    /// Creates a reader with no records.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one sink line in; `quantum` and `slide` lines are skipped.
    /// Must see an event's lines from its first report on — a line whose
    /// `reports` disagrees with what was read fails with
    /// [`EventLineError::MissedReports`] (as will every later line of that
    /// event; its record stays, with the history that was read).  A
    /// malformed line changes nothing.
    pub fn push_line(&mut self, line: &str) -> Result<(), EventLineError> {
        let value = dengraph_json::parse(line)?;
        if value.get("type")?.as_str()? != "event" {
            return Ok(());
        }
        let (cluster_id, reports, seen) = self.tracker.absorb_report(&value)?;
        if reports != seen {
            return Err(EventLineError::MissedReports {
                cluster_id,
                reports,
                seen,
            });
        }
        Ok(())
    }

    /// The reassembled records, in order of first appearance (the order
    /// of [`DetectorSession::event_records`]).
    pub fn records(&self) -> Vec<&EventRecord> {
        self.tracker.records()
    }
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

/// A serialised snapshot of a [`DetectorSession`]'s complete state.
///
/// Produced by [`DetectorSession::checkpoint`], consumed by
/// [`DetectorSession::restore`].  The underlying representation is a
/// [`dengraph_json::Value`]; [`Self::to_json_string`] /
/// [`Self::from_json_str`] convert to and from the durable wire form.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    value: dengraph_json::Value,
}

impl Checkpoint {
    /// Serialises the checkpoint to compact JSON.
    pub fn to_json_string(&self) -> String {
        dengraph_json::to_string(&self.value)
    }

    /// Parses a checkpoint from its JSON form.  Only the JSON grammar is
    /// checked here; structural and configuration validation happen in
    /// [`DetectorSession::restore`].
    pub fn from_json_str(text: &str) -> Result<Self, JsonError> {
        Ok(Self {
            value: dengraph_json::parse(text)?,
        })
    }

    /// The checkpoint's value-model representation.
    pub fn as_value(&self) -> &dengraph_json::Value {
        &self.value
    }

    /// Wraps an already-parsed value (e.g. a checkpoint embedded in a
    /// larger document).
    pub fn from_value(value: dengraph_json::Value) -> Self {
        Self { value }
    }
}

/// Why a [`DetectorSession::restore`] failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// The checkpoint is structurally broken (missing keys, wrong types,
    /// unknown format or version).
    Json(JsonError),
    /// The checkpoint's embedded configuration is degenerate.
    Config(ConfigError),
    /// The journal directory could not be read (the message carries the
    /// path and the underlying I/O error).  Note a *torn* journal tail is
    /// not an error — recovery rolls back to the last durable quantum —
    /// but an unreadable directory or a journal with no complete
    /// snapshot is.
    Io(String),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Json(e) => write!(f, "malformed checkpoint: {e}"),
            RestoreError::Config(e) => write!(f, "invalid configuration in checkpoint: {e}"),
            RestoreError::Io(detail) => write!(f, "cannot read journal: {detail}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<JsonError> for RestoreError {
    fn from(e: JsonError) -> Self {
        RestoreError::Json(e)
    }
}

impl From<ConfigError> for RestoreError {
    fn from(e: ConfigError) -> Self {
        RestoreError::Config(e)
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// A long-running detector with attached [`EventSink`]s and durable state.
///
/// Built by [`DetectorBuilder::build`].  The polling API of the inner
/// [`EventDetector`] keeps working — [`Self::run`], [`Self::push_message`]
/// and [`Self::flush`] still *return* summaries — but every processed
/// quantum is additionally pushed to the attached sinks, so a service can
/// subscribe instead of polling.
pub struct DetectorSession {
    detector: EventDetector,
    sinks: Vec<Box<dyn EventSink>>,
    journal: Option<CheckpointJournal>,
}

impl std::fmt::Debug for DetectorSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectorSession")
            .field("detector", &self.detector)
            .field("sinks", &self.sinks.len())
            .field("journal", &self.journal.is_some())
            .finish()
    }
}

impl DetectorSession {
    /// Attaches a sink; it receives every notification from now on.
    /// Returns `&mut self` so attachments chain.
    pub fn attach_sink(&mut self, sink: Box<dyn EventSink>) -> &mut Self {
        self.sinks.push(sink);
        self
    }

    /// Number of attached sinks.
    pub fn sink_count(&self) -> usize {
        self.sinks.len()
    }

    /// The active configuration.
    pub fn config(&self) -> &DetectorConfig {
        self.detector.config()
    }

    /// Read access to the inner detector (AKG, clusters, records…).
    pub fn detector(&self) -> &EventDetector {
        &self.detector
    }

    /// The current AKG.
    pub fn akg(&self) -> &dengraph_graph::DynamicGraph {
        self.detector.akg()
    }

    /// The cluster maintainer (read access).
    pub fn clusters(&self) -> &crate::cluster::ClusterMaintainer {
        self.detector.clusters()
    }

    /// The long-term event records accumulated so far.
    pub fn event_records(&self) -> Vec<&EventRecord> {
        self.detector.event_records()
    }

    /// Event records not flagged spurious by the post-hoc heuristic.
    pub fn non_spurious_event_records(&self) -> Vec<&EventRecord> {
        self.detector.non_spurious_event_records()
    }

    /// Total messages ingested.
    pub fn total_messages(&self) -> u64 {
        self.detector.total_messages()
    }

    /// Number of quanta fully processed.
    pub fn quanta_processed(&self) -> u64 {
        self.detector.quanta_processed()
    }

    /// Messages sitting in the partially filled quantum buffer (not yet
    /// counted by [`Self::total_messages`]).  The next message any
    /// restored session expects is stream position
    /// `total_messages() + buffered_messages()` — a journal restore may
    /// land on a snapshot that still carries a partial buffer (taken
    /// mid-quantum) and those messages must **not** be re-fed.
    pub fn buffered_messages(&self) -> usize {
        self.detector.buffered_messages()
    }

    /// Streams one message; when the quantum completes, sinks are notified
    /// and the summary is also returned.
    pub fn push_message(&mut self, message: Message) -> Option<QuantumSummary> {
        let summary = self.detector.push_message(message);
        if let Some(summary) = &summary {
            self.after_quantum(summary);
        }
        summary
    }

    /// Flushes a partial quantum (e.g. at end of stream), notifying sinks.
    pub fn flush(&mut self) -> Option<QuantumSummary> {
        let summary = self.detector.flush();
        if let Some(summary) = &summary {
            self.after_quantum(summary);
        }
        summary
    }

    /// Processes one pre-batched quantum, notifying sinks.
    pub fn process_quantum(&mut self, quantum: &Quantum) -> QuantumSummary {
        let summary = self.detector.process_quantum(quantum);
        self.after_quantum(&summary);
        summary
    }

    /// Everything that happens once per completed quantum besides the
    /// detector pipeline itself: append to the checkpoint journal (if
    /// enabled), then push the batch to every sink.
    fn after_quantum(&mut self, summary: &QuantumSummary) {
        if let Some(journal) = &mut self.journal {
            journal.record_quantum(&self.detector, summary);
        }
        Self::dispatch(&self.detector, &mut self.sinks, summary);
    }

    /// Deep-checks the session's structural invariants: every stateful
    /// detector component
    /// ([`EventDetector::validate_invariants`]) plus, when a journal is
    /// enabled, a full re-read of its frame log
    /// ([`CheckpointJournal::validate_invariants`]).  O(total state +
    /// journal size) — a validation aid for tests and debugging, wired
    /// into quantum boundaries by the `invariants` cargo feature.
    pub fn validate_invariants(&self) -> Result<(), String> {
        self.detector.validate_invariants()?;
        if let Some(journal) = &self.journal {
            journal
                .validate_invariants()
                .map_err(|e| format!("journal: {e}"))?;
        }
        Ok(())
    }

    /// Runs an entire message slice through the detector (batching into
    /// quanta, flushing the remainder), notifying sinks along the way.
    /// Returns one summary per quantum, like the old polling API.
    pub fn run(&mut self, messages: &[Message]) -> Vec<QuantumSummary> {
        let mut out = Vec::new();
        for message in messages {
            if let Some(summary) = self.push_message(message.clone()) {
                out.push(summary);
            }
        }
        if let Some(summary) = self.flush() {
            out.push(summary);
        }
        out
    }

    /// Pushes one summary to every sink as a single batch per sink: slide
    /// first, then the quantum, then each reported event with its
    /// up-to-date long-term record.  The records are resolved once and
    /// shared across sinks, and batch delivery lets locking adapters take
    /// their lock once per quantum.
    fn dispatch(
        detector: &EventDetector,
        sinks: &mut [Box<dyn EventSink>],
        summary: &QuantumSummary,
    ) {
        if sinks.is_empty() {
            return;
        }
        let records: Vec<&EventRecord> = summary
            .events
            .iter()
            .filter_map(|event| detector.event_record(event.cluster_id))
            .collect();
        let batch = QuantumNotifications {
            summary,
            records: &records,
            evicted_quantum: summary.evicted_quantum,
            window_quanta: detector.config().window_quanta,
        };
        for sink in sinks {
            sink.on_quantum_batch(&batch);
        }
    }

    /// Snapshots the complete detector state — window records and
    /// incremental index, AKG graph and keyword automaton, cluster
    /// registry, event tracker, the partially filled message buffer and
    /// all counters.  Attached sinks are *not* part of the snapshot;
    /// re-attach them after [`Self::restore`].
    ///
    /// This is the JSON (debugging / cross-version fallback) form; the
    /// compact binary form is [`Self::checkpoint_bytes`] with
    /// [`WireFormat::Binary`].
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            value: self.detector.to_json(),
        }
    }

    /// Snapshots the complete detector state as standalone durable bytes
    /// in the requested wire format.  [`WireFormat::Binary`] (the
    /// default format) is typically several times smaller than the JSON
    /// text; [`WireFormat::Json`] yields exactly
    /// [`Checkpoint::to_json_string`]'s bytes.  [`Self::restore_bytes`]
    /// accepts either, sniffing the format from the first byte.
    pub fn checkpoint_bytes(&self, format: WireFormat) -> Vec<u8> {
        checkpoint::encode_checkpoint_document(&self.detector, format)
    }

    /// Reconstructs a session from checkpoint bytes written by
    /// [`Self::checkpoint_bytes`] (either wire format — the format is
    /// sniffed, JSON being the cross-version fallback).
    pub fn restore_bytes(bytes: &[u8]) -> Result<Self, RestoreError> {
        Ok(Self {
            detector: checkpoint::decode_checkpoint_document(bytes)?,
            sinks: Vec::new(),
            journal: None,
        })
    }

    /// Reconstructs a session from a checkpoint.  The restored session
    /// continues exactly where the original left off: feeding both the
    /// same remaining stream produces bit-identical summaries and event
    /// records (`tests/checkpoint_resume.rs`).
    pub fn restore(checkpoint: &Checkpoint) -> Result<Self, RestoreError> {
        // Decode and validate the configuration once, surfacing a
        // degenerate one as the typed error; the detector decoder then
        // reuses the validated value.
        let config = DetectorConfig::from_json(checkpoint.value.get("config")?)?;
        config.validate()?;
        let detector = EventDetector::from_json_validated(config, &checkpoint.value)?;
        Ok(Self {
            detector,
            sinks: Vec::new(),
            journal: None,
        })
    }

    /// Enables incremental checkpointing: from now on every processed
    /// quantum appends one frame to an internal [`CheckpointJournal`]
    /// (binary wire format) — a full snapshot under
    /// [`CheckpointMode::Full`], an O(quantum Δ) [`DeltaRecord`] under
    /// [`CheckpointMode::Delta`] with periodic snapshot rebases.  The
    /// journal opens with a snapshot of the *current* state, so enabling
    /// mid-stream is safe.  Re-enabling replaces the previous journal.
    ///
    /// [`DeltaRecord`]: crate::checkpoint::DeltaRecord
    pub fn enable_journal(&mut self, mode: CheckpointMode) -> &mut Self {
        self.enable_journal_with_format(mode, WireFormat::Binary)
    }

    /// [`Self::enable_journal`] with an explicit wire format (JSON keeps
    /// the journal greppable for debugging, at a size cost).
    pub fn enable_journal_with_format(
        &mut self,
        mode: CheckpointMode,
        format: WireFormat,
    ) -> &mut Self {
        let mut journal = CheckpointJournal::with_format(mode, format);
        journal.append_snapshot(&self.detector);
        self.journal = Some(journal);
        self
    }

    /// Enables the durable, file-backed write-ahead journal: every
    /// processed quantum appends one checksummed frame to rotating
    /// segment files under `dir`, fsynced per
    /// [`config.fsync`](crate::wal::FsyncPolicy), so a crash loses at
    /// most the configured durability window and
    /// [`Self::restore_from_dir`] recovers the rest.
    ///
    /// Opening writes (and always fsyncs) an initial snapshot of the
    /// *current* state, then compacts segments left behind by earlier
    /// journal incarnations in the same directory.  Re-enabling replaces
    /// the previous journal.  Errors *after* this point do not surface
    /// from `push_message` — the first one is latched
    /// ([`Self::journal_io_error`]) and journaling stops while the
    /// detector keeps running.
    pub fn enable_durable_journal(
        &mut self,
        dir: impl AsRef<Path>,
        config: DurableJournalConfig,
    ) -> io::Result<&mut Self> {
        let journal = CheckpointJournal::open_durable(dir.as_ref(), config, &self.detector)?;
        self.journal = Some(journal);
        Ok(self)
    }

    /// The active checkpoint journal, if [`Self::enable_journal`] or
    /// [`Self::enable_durable_journal`] was called.  For an in-memory
    /// journal, [`memory_bytes`](CheckpointJournal::memory_bytes) is the
    /// durable, append-friendly byte log; a durable journal's bytes live
    /// in its segment files instead.
    pub fn journal(&self) -> Option<&CheckpointJournal> {
        self.journal.as_ref()
    }

    /// The journal's latched I/O error, if journaling has failed (always
    /// `None` for in-memory journals and sessions without a journal).
    /// After a failure the journal no longer appends; the detector keeps
    /// running.
    pub fn journal_io_error(&self) -> Option<&io::Error> {
        self.journal.as_ref().and_then(|j| j.io_error())
    }

    /// Forces all journaled frames to stable storage now, regardless of
    /// the configured [`FsyncPolicy`](crate::wal::FsyncPolicy) — the
    /// explicit sync point for `FsyncPolicy::Never`/`EveryN`
    /// deployments — and then deletes the segments behind the latest
    /// snapshot, which under `Never` nothing else does while the session
    /// runs.  A no-op without a journal; returns the latched error if
    /// journaling already failed.
    pub fn sync_journal(&mut self) -> io::Result<()> {
        match &mut self.journal {
            Some(journal) => journal.sync(),
            None => Ok(()),
        }
    }

    /// Detaches and returns the active journal, disabling journaling.
    pub fn take_journal(&mut self) -> Option<CheckpointJournal> {
        self.journal.take()
    }

    /// Reconstructs a session from a checkpoint-journal byte log:
    /// restores the *latest* snapshot frame, then replays every delta
    /// frame after it.  The restored session is bit-identical to the
    /// session that wrote the journal as of its last frame; resume the
    /// stream from position `total_messages() + buffered_messages()` —
    /// the buffer is non-empty exactly when the restore landed on a
    /// snapshot taken mid-quantum with no delta after it, and those
    /// buffered messages must not be re-fed.  Re-enable journaling (and
    /// re-attach sinks) explicitly if the resumed session should keep
    /// checkpointing.
    pub fn restore_from_journal(bytes: &[u8]) -> Result<Self, RestoreError> {
        Ok(Self {
            detector: checkpoint::restore_journal_detector(bytes)?,
            sinks: Vec::new(),
            journal: None,
        })
    }

    /// Recovers a session from a durable journal directory written by
    /// [`Self::enable_durable_journal`]: scans the segment files in
    /// order, restores the latest snapshot and replays the delta tail.
    ///
    /// This is the crash-recovery entry point, so a **torn tail** —
    /// truncated or checksum-corrupt final frames from a crash
    /// mid-append — is *not* an error: recovery stops at the tear and
    /// the session resumes from the last fully-durable quantum (resume
    /// the stream from `total_messages() + buffered_messages()`, exactly
    /// like [`Self::restore_from_journal`]).  Errors are reserved for a
    /// directory that is unreadable, is not a journal, or holds no
    /// complete snapshot.  Journaling is **not** re-enabled on the
    /// recovered session; call [`Self::enable_durable_journal`] again
    /// (same directory is fine — recovery and startup compaction ignore
    /// the torn tail and the fresh snapshot supersedes it).
    pub fn restore_from_dir(dir: impl AsRef<Path>) -> Result<Self, RestoreError> {
        Self::restore_from_dir_with_report(dir).map(|(session, _report)| session)
    }

    /// [`Self::restore_from_dir`] plus the [`RecoveryReport`] describing
    /// what was scanned, how many deltas were replayed, and where (if
    /// anywhere) the journal was torn.
    pub fn restore_from_dir_with_report(
        dir: impl AsRef<Path>,
    ) -> Result<(Self, RecoveryReport), RestoreError> {
        let (detector, report) = wal::restore_detector_from_dir(dir.as_ref())?;
        Ok((
            Self {
                detector,
                sinks: Vec::new(),
                journal: None,
            },
            report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigError;
    use dengraph_json::Encode;
    use dengraph_stream::UserId;
    use dengraph_text::KeywordId;

    fn builder() -> DetectorBuilder {
        DetectorBuilder::new()
            .quantum_size(20)
            .high_state_threshold(3)
            .edge_correlation_threshold(0.3)
            .window_quanta(4)
    }

    /// A quantum in which `users` distinct users each post the same keyword
    /// set, plus filler chatter to reach the quantum size.
    fn event_quantum(
        quantum_size: usize,
        users: u64,
        keywords: &[u32],
        time0: u64,
    ) -> Vec<Message> {
        let mut msgs = Vec::new();
        for u in 0..users {
            msgs.push(Message::new(
                UserId(100 + u),
                time0 + u,
                keywords.iter().map(|&i| KeywordId(i)).collect(),
            ));
        }
        let mut filler = 10_000 + time0 * 100;
        while msgs.len() < quantum_size {
            msgs.push(Message::new(
                UserId(filler),
                time0 + filler,
                vec![KeywordId(5_000 + filler as u32)],
            ));
            filler += 1;
        }
        msgs
    }

    #[test]
    fn build_rejects_every_degenerate_config() {
        let cases: Vec<(DetectorBuilder, ConfigError)> = vec![
            (builder().quantum_size(0), ConfigError::ZeroQuantumSize),
            (builder().window_quanta(0), ConfigError::ZeroWindowQuanta),
            (
                builder().high_state_threshold(0),
                ConfigError::ZeroHighStateThreshold,
            ),
            (builder().min_sketch_size(0), ConfigError::ZeroSketchWidth),
            // Used to pass and abort in `Vec::with_capacity` when the first
            // keyword materialized.
            (
                builder().min_sketch_size(1 << 40),
                ConfigError::SketchWidthTooLarge(1 << 40),
            ),
            (
                builder().edge_correlation_threshold(-0.1),
                ConfigError::EdgeCorrelationOutOfRange(-0.1),
            ),
            (
                builder().edge_correlation_threshold(0.0),
                ConfigError::EdgeCorrelationOutOfRange(0.0),
            ),
            (
                builder().rank_threshold_factor(-2.0),
                ConfigError::RankThresholdFactorOutOfRange(-2.0),
            ),
            (
                builder().parallelism(Parallelism::Threads(0)),
                ConfigError::ZeroThreads,
            ),
        ];
        for (b, expected) in cases {
            assert_eq!(b.build().err(), Some(expected));
        }
        assert!(builder().build().is_ok());
    }

    #[test]
    fn sinks_receive_quanta_events_and_slides_without_polling() {
        let mut session = builder().build().unwrap();
        let sink = Arc::new(Mutex::new(VecSink::new()));
        session.attach_sink(Box::new(Arc::clone(&sink)));
        assert_eq!(session.sink_count(), 1);

        // Quantum 0 carries a correlated burst; the window (w = 4) then
        // slides past capacity on quantum 4.
        session.run(&event_quantum(20, 6, &[1, 2, 3], 0));
        for q in 1..=4u64 {
            session.run(&event_quantum(20, 0, &[], q * 1_000));
        }

        let sink = sink.lock().unwrap();
        assert_eq!(sink.summaries().len(), 5);
        assert_eq!(sink.summaries()[0].events.len(), 1);
        let reported: usize = sink.summaries().iter().map(|s| s.events.len()).sum();
        assert!(reported >= 1);
        assert_eq!(
            sink.events().len(),
            reported,
            "one record push per reported event"
        );
        assert_eq!(
            sink.events()[0].keywords,
            vec![KeywordId(1), KeywordId(2), KeywordId(3)]
        );
        assert_eq!(sink.slides(), &[0], "quantum 0 slid out at quantum 4");
    }

    /// The `Arc<Mutex<S>>` adapter must reach the inner sink through a
    /// single `on_quantum_batch` call per processed quantum (one lock
    /// acquisition), with the fine-grained callbacks fanned out inside
    /// and the slide → quantum → events order preserved.
    #[test]
    fn mutex_adapter_batches_to_one_delivery_per_quantum() {
        #[derive(Default)]
        struct BatchProbe {
            batches: usize,
            log: Vec<&'static str>,
        }
        impl EventSink for BatchProbe {
            fn on_quantum(&mut self, _summary: &QuantumSummary) {
                self.log.push("quantum");
            }
            fn on_event(&mut self, _record: &crate::event::EventRecord) {
                self.log.push("event");
            }
            fn on_slide(&mut self, _evicted: u64, _w: usize) {
                self.log.push("slide");
            }
            fn on_quantum_batch(&mut self, batch: &QuantumNotifications<'_>) {
                self.batches += 1;
                // Re-implement the default fan-out so the fine-grained
                // callbacks are still observed.
                if let Some(evicted) = batch.evicted_quantum {
                    self.on_slide(evicted, batch.window_quanta);
                }
                self.on_quantum(batch.summary);
                for record in batch.records {
                    self.on_event(record);
                }
            }
        }

        let mut session = builder().build().unwrap();
        let probe = Arc::new(Mutex::new(BatchProbe::default()));
        session.attach_sink(Box::new(Arc::clone(&probe)));
        session.run(&event_quantum(20, 6, &[1, 2, 3], 0));
        for q in 1..=4u64 {
            session.run(&event_quantum(20, 0, &[], q * 1_000));
        }
        let probe = probe.lock().unwrap();
        assert_eq!(probe.batches, 5, "exactly one batch per processed quantum");
        assert_eq!(probe.log[0], "quantum");
        assert_eq!(probe.log[1], "event", "quantum 0 reported one event");
        assert!(
            probe.log.contains(&"slide"),
            "the w=4 window slid during the run"
        );
    }

    #[test]
    fn on_event_receives_the_up_to_date_record() {
        let mut session = builder().build().unwrap();
        let sink = Arc::new(Mutex::new(VecSink::new()));
        session.attach_sink(Box::new(Arc::clone(&sink)));
        session.run(&event_quantum(20, 6, &[1, 2, 3], 0));
        session.run(&event_quantum(20, 6, &[1, 2, 3, 4], 1_000));
        let sink = sink.lock().unwrap();
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.events()[0].rank_history.len(), 1);
        assert_eq!(sink.events()[1].rank_history.len(), 2);
        assert!(sink.events()[1].evolved());
    }

    #[test]
    fn fn_sink_observes_every_quantum() {
        let mut session = builder().build().unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen_clone = Arc::clone(&seen);
        session.attach_sink(Box::new(FnSink::new(move |summary: &QuantumSummary| {
            seen_clone.lock().unwrap().push(summary.quantum);
        })));
        session.run(&event_quantum(20, 6, &[1, 2, 3], 0));
        session.run(&event_quantum(20, 0, &[], 1_000));
        assert_eq!(*seen.lock().unwrap(), vec![0, 1]);
    }

    #[test]
    fn json_lines_sink_writes_one_object_per_notification() {
        let mut session = builder().build().unwrap();
        session.attach_sink(Box::new(JsonLinesSink::new(Vec::new())));
        // Steal the sink back is not possible through the trait object, so
        // drive a second, standalone sink directly.
        let mut sink = JsonLinesSink::new(Vec::new());
        let summaries = session.run(&event_quantum(20, 6, &[1, 2, 3], 0));
        sink.on_quantum(&summaries[0]);
        sink.on_slide(7, 4);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let quantum = dengraph_json::parse(lines[0]).unwrap();
        assert_eq!(quantum.get("type").unwrap().as_str().unwrap(), "quantum");
        assert_eq!(quantum.get("quantum").unwrap().as_u64().unwrap(), 0);
        let slide = dengraph_json::parse(lines[1]).unwrap();
        assert_eq!(slide.get("type").unwrap().as_str().unwrap(), "slide");
        assert_eq!(slide.get("evicted_quantum").unwrap().as_u64().unwrap(), 7);
    }

    /// A `Write` whose bytes stay readable after the sink is boxed away
    /// into a session.
    #[derive(Debug, Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn lines(&self) -> Vec<String> {
            let text = String::from_utf8(self.0.lock().unwrap().clone()).unwrap();
            text.lines().map(str::to_string).collect()
        }
    }

    /// Eight quanta over a w = 4 window: event A (keywords 1‥) grows a
    /// keyword per quantum for five reports, event B (keywords 50‥) joins
    /// at quantum 2 and evolves once; the window slides from quantum 4 on.
    /// Returns the session, the sink's lines and the per-quantum summaries.
    fn evolving_session() -> (DetectorSession, Vec<String>, Vec<QuantumSummary>) {
        let mut session = builder().quantum_size(40).build().unwrap();
        let out = SharedBuf::default();
        session.attach_sink(Box::new(JsonLinesSink::new(out.clone())));
        let mut summaries = Vec::new();
        for q in 0..8u64 {
            let mut msgs = Vec::new();
            if q < 5 {
                let keywords: Vec<u32> = (1..=3 + q as u32).collect();
                msgs.extend(event_quantum(7, 7, &keywords, q * 1_000));
            }
            if (2..7).contains(&q) {
                let keywords: Vec<u32> = (50..53 + u32::from(q >= 4)).collect();
                for (u, mut m) in event_quantum(6, 6, &keywords, q * 1_000 + 500)
                    .into_iter()
                    .enumerate()
                {
                    m.user = UserId(300 + u as u64);
                    msgs.push(m);
                }
            }
            let filler = 40 - msgs.len();
            msgs.extend(event_quantum(filler, 0, &[], q * 1_000 + 700));
            summaries.extend(session.run(&msgs));
        }
        (session, out.lines(), summaries)
    }

    /// The line the value-tree path wrote: the body's object plus a
    /// `"type"` key, through `to_string`.
    fn tree_line(kind: &str, body: dengraph_json::Value) -> String {
        let dengraph_json::Value::Obj(mut map) = body else {
            panic!("sink bodies are objects");
        };
        map.insert("type".to_string(), dengraph_json::Value::str(kind));
        dengraph_json::to_string(&dengraph_json::Value::Obj(map))
    }

    fn streamed(write: impl FnOnce(&mut JsonWriter<'_>)) -> String {
        let mut out = String::new();
        write(&mut JsonWriter::new(&mut out));
        out
    }

    #[test]
    fn streamed_quantum_and_slide_lines_equal_the_tree_path_byte_for_byte() {
        use dengraph_json::{to_string, Value};
        let (session, lines, summaries) = evolving_session();
        assert_eq!(summaries.len(), 8);
        let mut expected = Vec::new();
        for summary in &summaries {
            if let Some(evicted) = summary.evicted_quantum {
                expected.push(tree_line(
                    "slide",
                    Value::obj([
                        ("evicted_quantum", Value::from(evicted)),
                        ("window_quanta", Value::from(session.config().window_quanta)),
                    ]),
                ));
            }
            expected.push(tree_line("quantum", summary.to_json()));

            // Each struct's streamed form equals its tree form.
            assert_eq!(
                streamed(|w| summary.write_json(w)),
                to_string(&summary.to_json())
            );
            assert_eq!(
                streamed(|w| summary.akg_stats.write_json(w)),
                to_string(&summary.akg_stats.to_json())
            );
            assert_eq!(
                streamed(|w| summary.maintenance_stats.write_json(w)),
                to_string(&summary.maintenance_stats.to_json())
            );
            for event in &summary.events {
                assert_eq!(
                    streamed(|w| event.write_json(w)),
                    to_string(&event.to_json())
                );
            }
        }
        let got: Vec<&String> = lines
            .iter()
            .filter(|l| !l.ends_with("\"type\":\"event\"}"))
            .collect();
        assert_eq!(got, expected.iter().collect::<Vec<_>>());
        assert!(expected.iter().any(|l| l.contains("\"type\":\"slide\"")));
        assert!(summaries.iter().any(|s| s.events.len() == 2));
    }

    #[test]
    fn event_lines_reassemble_into_the_sessions_records() {
        let (session, lines, _) = evolving_session();
        let mut reader = EventLineReader::new();
        for line in &lines {
            reader.push_line(line).unwrap();
        }
        let records = session.event_records();
        assert_eq!(reader.records(), records, "field for field");
        assert!(records.len() >= 2);
        assert!(records.iter().all(|r| r.rank_history.len() >= 3));
        assert!(records.iter().all(|r| r.evolved()));

        // An event line carries one rank point, never the history.
        let event_lines: Vec<&String> =
            lines.iter().filter(|l| l.contains("\"reports\"")).collect();
        assert_eq!(
            event_lines.len(),
            records.iter().map(|r| r.rank_history.len()).sum::<usize>()
        );
        assert!(event_lines.iter().all(|l| !l.contains("rank_history")));
        let last = dengraph_json::parse(event_lines[event_lines.len() - 1]).unwrap();
        assert!(last.get("rank").unwrap().as_f64().is_ok());
        assert!(last.get("reports").unwrap().as_u64().unwrap() >= 3);
    }

    #[test]
    fn reader_rejects_a_stream_joined_after_its_start() {
        let (_, lines, _) = evolving_session();
        let first_event = lines
            .iter()
            .position(|l| l.contains("\"reports\""))
            .unwrap();
        let mut reader = EventLineReader::new();
        let outcome: Result<(), EventLineError> = lines[first_event + 1..]
            .iter()
            .try_for_each(|line| reader.push_line(line));
        assert!(
            matches!(
                outcome,
                Err(EventLineError::MissedReports {
                    reports: 2,
                    seen: 1,
                    ..
                })
            ),
            "{outcome:?}"
        );

        // Malformed lines are typed errors and leave no record behind.
        let mut reader = EventLineReader::new();
        for bad in ["{not json", "[]", "{\"type\":\"event\",\"cluster_id\":9}"] {
            assert!(matches!(
                reader.push_line(bad),
                Err(EventLineError::Json(_))
            ));
        }
        assert!(reader.records().is_empty());
    }

    #[test]
    fn json_lines_sink_close_surfaces_latched_write_errors() {
        /// Accepts `good` bytes, then fails every later write.
        #[derive(Debug)]
        struct FailingWriter {
            good: usize,
        }
        impl io::Write for FailingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.good == 0 {
                    return Err(io::Error::other("disk full"));
                }
                let n = buf.len().min(self.good);
                self.good -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        // Clean path: close() hands the writer back.
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.on_slide(3, 4);
        let bytes = sink.close().expect("clean close succeeds");
        assert!(!bytes.is_empty());

        // Failure path: the error latched mid-run comes out of close()
        // instead of being dropped on the floor.
        let mut sink = JsonLinesSink::new(FailingWriter { good: 4 });
        sink.on_slide(3, 4);
        sink.flush();
        assert!(sink.last_error().is_some(), "flush latches the write error");
        let err = sink.close().expect_err("close surfaces the latched error");
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn checkpoint_restores_counters_and_partial_buffer() {
        let mut session = builder().build().unwrap();
        session.run(&event_quantum(20, 6, &[1, 2, 3], 0));
        // Leave 5 messages sitting in the partial-quantum buffer.
        for m in event_quantum(20, 6, &[1, 2, 3], 1_000).into_iter().take(5) {
            assert!(session.push_message(m).is_none());
        }
        let checkpoint = session.checkpoint();
        let text = checkpoint.to_json_string();
        let mut restored =
            DetectorSession::restore(&Checkpoint::from_json_str(&text).unwrap()).unwrap();
        assert_eq!(restored.quanta_processed(), 1);
        assert_eq!(restored.total_messages(), 20);
        // The buffered 5 messages survive: flushing yields a 5-message quantum.
        let summary = restored.flush().unwrap();
        assert_eq!(summary.messages, 5);
    }

    #[test]
    fn restore_rejects_tampered_configs_with_a_typed_error() {
        let session = builder().build().unwrap();
        let text = session.checkpoint().to_json_string();
        let tampered = text.replace("\"quantum_size\":20", "\"quantum_size\":0");
        assert_ne!(text, tampered, "the fixture must actually tamper");
        let checkpoint = Checkpoint::from_json_str(&tampered).unwrap();
        assert_eq!(
            DetectorSession::restore(&checkpoint).err(),
            Some(RestoreError::Config(ConfigError::ZeroQuantumSize))
        );
    }

    /// Derived state must agree with the validated configuration: a
    /// checkpoint whose window geometry was tampered (capacity, sketch
    /// size, mode or index threshold out of step with the config) is
    /// rejected instead of silently restoring a self-contradictory
    /// detector.
    #[test]
    fn restore_rejects_window_geometry_contradicting_the_config() {
        let mut session = builder().build().unwrap();
        session.run(&event_quantum(20, 6, &[1, 2, 3], 0));
        let text = session.checkpoint().to_json_string();
        for (needle, replacement) in [
            ("\"capacity\":4", "\"capacity\":2"),
            ("\"capacity\":4", "\"capacity\":0"),
            // σ is 3: a lower threshold would index keywords the detector
            // never indexed, a higher one drop entries it relies on.
            ("\"materialize_threshold\":3", "\"materialize_threshold\":2"),
            ("\"materialize_threshold\":3", "\"materialize_threshold\":4"),
        ] {
            let tampered = text.replace(needle, replacement);
            assert_ne!(text, tampered, "the fixture must actually tamper");
            let checkpoint = Checkpoint::from_json_str(&tampered).unwrap();
            assert!(
                matches!(
                    DetectorSession::restore(&checkpoint),
                    Err(RestoreError::Json(_))
                ),
                "tamper {needle} -> {replacement} must be rejected"
            );
        }
    }

    #[test]
    fn restore_rejects_structural_garbage() {
        assert!(Checkpoint::from_json_str("{not json").is_err());
        let checkpoint = Checkpoint::from_json_str("{\"hello\": 1}").unwrap();
        assert!(matches!(
            DetectorSession::restore(&checkpoint),
            Err(RestoreError::Json(_))
        ));
    }

    #[test]
    fn builder_exposes_the_assembled_config() {
        let b = builder();
        assert_eq!(b.config().quantum_size, 20);
        let session = b.build().unwrap();
        assert_eq!(session.config().window_quanta, 4);
    }
}
