//! Incremental checkpointing: delta records and the checkpoint journal.
//!
//! A full checkpoint re-encodes the *entire* detector — every window
//! record, the whole incremental index, all clusters and the complete
//! event tracker — even though a single quantum changes only an O(Δ)
//! slice of that state.  This module makes steady-state durability
//! proportional to the change instead:
//!
//! * a [`DeltaRecord`] captures one quantum's state transition — the
//!   pushed [`QuantumRecord`], the AKG [`GraphDelta`] log, the quantum's
//!   AKG statistics and the reported events (the tracker updates);
//! * a [`CheckpointJournal`] is an append-only frame log: full snapshots
//!   as rebase points, delta records between them, governed by
//!   [`CheckpointMode`];
//! * restore finds the latest snapshot and **replays** the journal-tail
//!   deltas on top of it.
//!
//! Replay is a pure redo: the window record is pushed as-is, the graph
//! and keyword automaton re-apply the logged deltas (no correlation is
//! re-scored), cluster maintenance re-runs the deterministic Section-5
//! algorithms from the same delta log (reproducing cluster ids exactly —
//! the property the sharded maintainer already guarantees), and the
//! tracker re-observes the logged events.  The result is bit-identical
//! to the uninterrupted run (`tests/checkpoint_resume.rs` gates this
//! across `Parallelism` × `WindowIndexMode` × [`CheckpointMode`]).
//!
//! ## Wire layout
//!
//! Binary checkpoint documents and journals both start with a magic the
//! JSON grammar cannot produce (`0xD6`), so every restore entry point
//! sniffs the format from the first bytes:
//!
//! ```text
//! checkpoint  = D6 'D' 'G' 'C'  version  method  payload
//! method      = 00 raw | 01 lzss (read only) | 02 block
//! journal     = D6 'D' 'G' 'J'  version  format-byte  frame*
//! frame       = tag(01 snapshot | 02 delta)  len u32-LE  crc32 u32-LE  payload
//! ```
//!
//! A checkpoint's payload is the detector state
//! ([`EventDetector::to_bin`]) stored raw or packed by one of the codecs
//! of [`dengraph_json::lz`].  Documents are **written** with method 02
//! (the LZ4-class block codec) or 00 (when packing does not shrink the
//! body); method 01 is what documents carried before the block codec
//! existed and is only ever read.  The state bytes under the wrapping
//! are the same for all three.
//!
//! Snapshot payloads are complete checkpoint documents (themselves
//! sniffable); delta payloads are [`DeltaRecord`]s in the journal's
//! configured [`WireFormat`].  Since PR 6 the journal frame layout is
//! the checksummed fixed-width framing of [`dengraph_json::frame`] —
//! the same byte stream whether the journal lives in memory or in the
//! segment files of [`crate::wal`] — and restoring a journal *recovers*:
//! a torn tail (truncated or corrupt final frames, e.g. from a crash
//! mid-append) rolls back to the last fully-durable quantum instead of
//! failing the restore.
//!
//! ## The append path
//!
//! A journaled session pays for its journal inside every quantum's
//! latency, and every `every`-th quantum pays for a whole snapshot, so
//! the journal owns its buffers and moves each byte once: the state is
//! encoded into a reused body buffer, packed straight into a reused
//! frame buffer behind nine reserved header bytes, checksummed, and
//! handed to the backend as **one** write.  A delta record is encoded
//! directly behind the reserved bytes.  After the first rebase no frame
//! allocates (`tests/allocation_gate_durable.rs`).

use std::io;
use std::path::Path;

use dengraph_json::frame::{begin_frame, finish_frame, FRAME_HEADER_LEN};
use dengraph_json::lz::{self, BlockEncoder};
use dengraph_json::{BinReader, BinWriter, Decode, Encode, JsonError, Value, WireFormat};

use crate::akg::{AkgQuantumStats, GraphDelta};
use crate::config::DetectorConfig;
use crate::detector::{EventDetector, QuantumSummary};
use crate::event::DetectedEvent;
use crate::keyword_state::QuantumRecord;
use crate::session::RestoreError;
use crate::wal::{self, DurableJournalConfig, FsyncPolicy, JournalWriter, SegmentedJournal};

/// Magic prefix of a binary checkpoint document.
pub(crate) const CHECKPOINT_MAGIC: [u8; 4] =
    [dengraph_json::codec::BINARY_MAGIC_BYTE, b'D', b'G', b'C'];

/// Version of the binary checkpoint-document container (the journal
/// container is versioned separately — [`crate::wal::JOURNAL_VERSION`]).
const CONTAINER_VERSION: u64 = 1;

pub(crate) const TAG_SNAPSHOT: u8 = 1;
pub(crate) const TAG_DELTA: u8 = 2;

/// How a session checkpoints into its journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointMode {
    /// Every journal entry is a full whole-state snapshot (the ablation
    /// baseline, and the pre-PR-5 behaviour made continuous).
    Full,
    /// Append one O(quantum Δ) [`DeltaRecord`] per processed quantum,
    /// with a full snapshot rebase point after every `every` deltas.
    /// Restore cost is bounded by `every` replays; journal growth is
    /// bounded by one snapshot per `every` quanta.  `every` is clamped
    /// to at least 1.
    Delta {
        /// Delta records between consecutive snapshot rebase points.
        every: u32,
    },
}

/// One quantum's state transition, as appended to a checkpoint journal.
///
/// Everything needed to redo the quantum without re-scoring a single
/// correlation: the aggregated record that entered the window, the AKG
/// delta log (which also deterministically drives cluster maintenance),
/// the quantum's AKG statistics, and the events reported to the tracker.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRecord {
    pub(crate) record: QuantumRecord,
    pub(crate) akg_deltas: Vec<GraphDelta>,
    pub(crate) akg_stats: AkgQuantumStats,
    pub(crate) events: Vec<DetectedEvent>,
}

impl DeltaRecord {
    /// The quantum this record transitions the detector into.
    pub fn quantum(&self) -> u64 {
        self.record.index
    }

    /// Messages aggregated into the quantum.
    pub fn message_count(&self) -> usize {
        self.record.message_count
    }

    /// Number of AKG deltas logged for the quantum.
    pub fn delta_count(&self) -> usize {
        self.akg_deltas.len()
    }

    /// The borrowed view whose encoders define this record's wire forms.
    fn view(&self) -> DeltaRecordView<'_> {
        DeltaRecordView {
            record: &self.record,
            akg_deltas: &self.akg_deltas,
            akg_stats: self.akg_stats,
            events: &self.events,
        }
    }
}

impl Encode for DeltaRecord {
    fn to_json(&self) -> Value {
        self.view().to_json()
    }

    fn to_bin(&self, w: &mut BinWriter) {
        self.view().to_bin(w)
    }
}

impl Decode for DeltaRecord {
    /// Reconstructs a record serialised by [`Self::to_json`].
    fn from_json(value: &Value) -> dengraph_json::Result<Self> {
        Ok(Self {
            record: QuantumRecord::from_json(value.get("record")?)?,
            akg_deltas: value
                .get("akg_deltas")?
                .as_arr()?
                .iter()
                .map(GraphDelta::from_json)
                .collect::<dengraph_json::Result<_>>()?,
            akg_stats: AkgQuantumStats::from_json(value.get("akg_stats")?)?,
            events: value
                .get("events")?
                .as_arr()?
                .iter()
                .map(DetectedEvent::from_json)
                .collect::<dengraph_json::Result<_>>()?,
        })
    }

    /// Reconstructs a record encoded by [`Self::to_bin`].
    fn from_bin(r: &mut BinReader<'_>) -> dengraph_json::Result<Self> {
        let record = QuantumRecord::from_bin(r)?;
        let deltas = r.seq_len(2)?;
        let mut akg_deltas = Vec::with_capacity(deltas);
        for _ in 0..deltas {
            akg_deltas.push(GraphDelta::from_bin(r)?);
        }
        let akg_stats = AkgQuantumStats::from_bin(r)?;
        let events = r.seq_len(4)?;
        let mut out = Vec::with_capacity(events);
        for _ in 0..events {
            out.push(DetectedEvent::from_bin(r)?);
        }
        Ok(Self {
            record,
            akg_deltas,
            akg_stats,
            events: out,
        })
    }
}

/// Borrowed view of a [`DeltaRecord`] used on the per-quantum append hot
/// path: the one encoder of a delta record (the owned record encodes
/// through it), so a journal append never clones the window record, the
/// AKG delta log and the event list out of the detector.
pub(crate) struct DeltaRecordView<'a> {
    pub(crate) record: &'a QuantumRecord,
    pub(crate) akg_deltas: &'a [GraphDelta],
    pub(crate) akg_stats: AkgQuantumStats,
    pub(crate) events: &'a [DetectedEvent],
}

impl Encode for DeltaRecordView<'_> {
    /// Serialises the record to a [`Value`] (the JSON journal form).
    fn to_json(&self) -> Value {
        Value::obj([
            ("record", self.record.to_json()),
            (
                "akg_deltas",
                Value::arr(self.akg_deltas.iter().map(|d| d.to_json())),
            ),
            ("akg_stats", self.akg_stats.to_json()),
            (
                "events",
                Value::arr(self.events.iter().map(|e| e.to_json())),
            ),
        ])
    }

    /// Appends the compact binary encoding.
    fn to_bin(&self, w: &mut BinWriter) {
        self.record.to_bin(w);
        w.usize(self.akg_deltas.len());
        for d in self.akg_deltas {
            d.to_bin(w);
        }
        self.akg_stats.to_bin(w);
        w.usize(self.events.len());
        for e in self.events {
            e.to_bin(w);
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint documents
// ---------------------------------------------------------------------------

/// Payload methods of a binary checkpoint container.  The writer emits
/// `RAW` or `BLOCK`; `LZSS` is read for documents already on disk.
const METHOD_RAW: u8 = 0;
const METHOD_LZSS: u8 = 1;
const METHOD_BLOCK: u8 = 2;

/// Appends the binary checkpoint container holding `body` (a detector's
/// [`EventDetector::to_bin`] bytes) to `out`: header, then the body
/// packed by the block codec — or raw when packing does not shrink it
/// (tiny or incompressible states).  The one container writer: the
/// journal calls it with its own buffers, [`encode_checkpoint_document`]
/// with temporaries.
fn write_checkpoint_container(body: &[u8], codec: &mut BlockEncoder, out: &mut Vec<u8>) {
    let mut header = BinWriter::from_vec(std::mem::take(out));
    header.raw(&CHECKPOINT_MAGIC);
    header.u64(CONTAINER_VERSION);
    header.byte(METHOD_BLOCK);
    *out = header.into_bytes();
    let payload_at = out.len();
    if !codec.compress_into(body, out) || out.len() - payload_at >= body.len() {
        out.truncate(payload_at);
        out[payload_at - 1] = METHOD_RAW;
        out.extend_from_slice(body);
    }
}

/// Encodes the complete detector as a standalone checkpoint document in
/// the requested wire format: JSON text, or the headered binary layout
/// whose payload is packed by the block codec (the struct encodings
/// strip JSON's framing; the container compression then folds the
/// remaining redundancy — interner words, repeated column structure —
/// typically another ~1.5×).
pub(crate) fn encode_checkpoint_document(detector: &EventDetector, format: WireFormat) -> Vec<u8> {
    match format {
        WireFormat::Json => dengraph_json::to_string(&detector.to_json()).into_bytes(),
        WireFormat::Binary => {
            let mut body = BinWriter::new();
            detector.to_bin(&mut body);
            let mut out = Vec::new();
            write_checkpoint_container(body.as_slice(), &mut BlockEncoder::new(), &mut out);
            out
        }
    }
}

/// Decodes a standalone checkpoint document, sniffing the wire format
/// from the first bytes.  Configuration validation failures surface as
/// the typed [`RestoreError::Config`], exactly like the JSON-only path.
pub(crate) fn decode_checkpoint_document(bytes: &[u8]) -> Result<EventDetector, RestoreError> {
    match WireFormat::sniff(bytes) {
        WireFormat::Json => {
            let text = std::str::from_utf8(bytes).map_err(|_| JsonError {
                message: "json checkpoint is not valid utf-8".into(),
                offset: 0,
            })?;
            let value = dengraph_json::parse(text)?;
            let config = DetectorConfig::from_json(value.get("config")?)?;
            config.validate()?;
            Ok(EventDetector::from_json_validated(config, &value)?)
        }
        WireFormat::Binary => {
            let mut r = BinReader::new(bytes);
            let magic = r.take(4)?;
            if magic != CHECKPOINT_MAGIC {
                return Err(JsonError {
                    message: "not a dengraph binary checkpoint (bad magic)".into(),
                    offset: 0,
                }
                .into());
            }
            let version = r.u64()?;
            if version != CONTAINER_VERSION {
                return Err(JsonError {
                    message: format!("unsupported binary checkpoint version {version}"),
                    offset: r.pos(),
                }
                .into());
            }
            let method = r.byte()?;
            let payload = r.take(r.remaining())?;
            let mut decompressed = Vec::new();
            let body: &[u8] = match method {
                METHOD_RAW => payload,
                METHOD_LZSS => {
                    decompressed = lz::decompress(payload)?;
                    &decompressed
                }
                METHOD_BLOCK => {
                    lz::decompress_block_into(payload, &mut decompressed)?;
                    &decompressed
                }
                other => {
                    return Err(JsonError {
                        message: format!("unknown checkpoint payload method {other}"),
                        offset: 5,
                    }
                    .into())
                }
            };
            let mut r = BinReader::new(body);
            let config = DetectorConfig::from_bin(&mut r)?;
            config.validate()?;
            let detector = EventDetector::from_bin_validated(config, &mut r)?;
            r.expect_end()?;
            Ok(detector)
        }
    }
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

/// Where a [`CheckpointJournal`]'s frames go.
#[derive(Debug)]
enum JournalBackend {
    /// The PR-5 in-memory byte log (tests, ablations, callers that ship
    /// the bytes to their own storage).
    Memory(JournalWriter<Vec<u8>>),
    /// The durable on-disk backend: rotating, compacting segment files.
    Durable(SegmentedJournal),
}

/// An append-only checkpoint journal: snapshot frames as rebase points,
/// [`DeltaRecord`] frames between them.
///
/// Owned by a [`DetectorSession`](crate::session::DetectorSession) once
/// [`enable_journal`](crate::session::DetectorSession::enable_journal)
/// (in-memory byte log, [`Self::memory_bytes`]) or
/// [`enable_durable_journal`](crate::session::DetectorSession::enable_durable_journal)
/// (file-backed write-ahead log) is called; one frame is appended per
/// processed quantum.
///
/// Durable appends can fail.  Because they run inside the infallible
/// per-quantum hot path, the first I/O error is latched
/// ([`Self::io_error`]) and the journal stops appending — the detector
/// keeps running, and the caller checks/clears the condition at its own
/// cadence (e.g. once per quantum batch) via
/// [`DetectorSession::journal_io_error`](crate::session::DetectorSession::journal_io_error).
pub struct CheckpointJournal {
    mode: CheckpointMode,
    format: WireFormat,
    backend: JournalBackend,
    /// First append/sync failure, latched; all later appends are skipped.
    io_error: Option<io::Error>,
    deltas_since_snapshot: u32,
    snapshot_frames: usize,
    delta_frames: usize,
    delta_payload_bytes: u64,
    last_snapshot_bytes: usize,
    /// A snapshot's detector state, before packing.  This and the next
    /// two are scratch reused across frames (module docs, "The append
    /// path").
    body: BinWriter,
    /// The frame being assembled: reserved header bytes + payload.
    frame: Vec<u8>,
    /// The block codec's table.
    codec: BlockEncoder,
}

impl std::fmt::Debug for CheckpointJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointJournal")
            .field("mode", &self.mode)
            .field("format", &self.format)
            .field("durable", &self.is_durable())
            .field("io_error", &self.io_error)
            .field("snapshot_frames", &self.snapshot_frames)
            .field("delta_frames", &self.delta_frames)
            .finish()
    }
}

impl CheckpointJournal {
    /// Creates an empty in-memory journal with an explicit wire format
    /// (JSON keeps the journal greppable for debugging at a size cost).
    /// Only [`DetectorSession::enable_journal`] constructs journals — it
    /// immediately writes the initial rebase snapshot, without which a
    /// journal cannot be restored.
    ///
    /// [`DetectorSession::enable_journal`]: crate::session::DetectorSession::enable_journal
    pub(crate) fn with_format(mode: CheckpointMode, format: WireFormat) -> Self {
        let writer = JournalWriter::new(Vec::new(), format, FsyncPolicy::Never)
            .expect("writing to a Vec cannot fail");
        Self::over(mode, format, JournalBackend::Memory(writer))
    }

    /// An empty journal over `backend`.
    fn over(mode: CheckpointMode, format: WireFormat, backend: JournalBackend) -> Self {
        Self {
            mode,
            format,
            backend,
            io_error: None,
            deltas_since_snapshot: 0,
            snapshot_frames: 0,
            delta_frames: 0,
            delta_payload_bytes: 0,
            last_snapshot_bytes: 0,
            body: BinWriter::new(),
            frame: Vec::new(),
            codec: BlockEncoder::new(),
        }
    }

    /// Opens a durable journal under `dir` and writes (and always
    /// fsyncs) the initial rebase snapshot of `detector`, then compacts
    /// any segments left behind by previous journal incarnations in the
    /// same directory — startup compaction is safe precisely because the
    /// fresh snapshot is already durable.
    pub(crate) fn open_durable(
        dir: &Path,
        config: DurableJournalConfig,
        detector: &EventDetector,
    ) -> io::Result<Self> {
        let segments =
            SegmentedJournal::create(dir, config.format, config.fsync, config.segment_bytes)?;
        let mut journal = Self::over(
            config.mode,
            config.format,
            JournalBackend::Durable(segments),
        );
        journal.append_snapshot_inner(detector)?;
        journal.sync()?;
        Ok(journal)
    }

    /// The journal's checkpoint mode.
    pub fn mode(&self) -> CheckpointMode {
        self.mode
    }

    /// The journal's wire format.
    pub fn format(&self) -> WireFormat {
        self.format
    }

    /// The in-memory byte log — header plus every frame appended so far
    /// (`None` for a durable journal, whose bytes live in the segment
    /// files under [`Self::directory`]).
    pub fn memory_bytes(&self) -> Option<&[u8]> {
        match &self.backend {
            JournalBackend::Memory(writer) => Some(writer.sink()),
            JournalBackend::Durable(_) => None,
        }
    }

    /// Whether this journal writes to segment files rather than memory.
    pub fn is_durable(&self) -> bool {
        matches!(self.backend, JournalBackend::Durable(_))
    }

    /// The durable journal's directory (`None` for in-memory journals).
    pub fn directory(&self) -> Option<&Path> {
        match &self.backend {
            JournalBackend::Memory(_) => None,
            JournalBackend::Durable(segments) => Some(segments.dir()),
        }
    }

    /// The journal's fsync policy (in-memory journals report
    /// [`FsyncPolicy::Never`]; there is nothing to sync).
    pub fn fsync_policy(&self) -> FsyncPolicy {
        match &self.backend {
            JournalBackend::Memory(_) => FsyncPolicy::Never,
            JournalBackend::Durable(segments) => segments.fsync(),
        }
    }

    /// The first append/sync I/O failure, if any.  Once set, the journal
    /// has stopped appending (the detector keeps running); restore from
    /// the frames that did reach the log recovers the quantum before the
    /// failure.
    pub fn io_error(&self) -> Option<&io::Error> {
        self.io_error.as_ref()
    }

    /// Forces all appended frames to stable storage now, regardless of
    /// [`FsyncPolicy`], and then compacts: with the latest snapshot
    /// durable, every segment behind it is deleted.  This is the only
    /// point at which a running [`FsyncPolicy::Never`] journal sheds its
    /// dead segments (the policies that sync also compact at every
    /// rebase).  A no-op for in-memory journals.  Returns the latched
    /// error if the journal already failed.
    pub fn sync(&mut self) -> io::Result<()> {
        if let Some(e) = &self.io_error {
            return Err(io::Error::new(e.kind(), e.to_string()));
        }
        let result = match &mut self.backend {
            JournalBackend::Memory(_) => Ok(()),
            JournalBackend::Durable(segments) => sync_and_compact(segments),
        };
        if let Err(e) = &result {
            self.io_error = Some(io::Error::new(e.kind(), e.to_string()));
        }
        result
    }

    /// Total journal size in bytes (on disk for durable journals, of the
    /// byte log for in-memory ones).
    pub fn len_bytes(&self) -> usize {
        match &self.backend {
            JournalBackend::Memory(writer) => writer.sink().len(),
            JournalBackend::Durable(segments) => segments.total_bytes() as usize,
        }
    }

    /// Snapshot frames written so far.
    pub fn snapshot_frames(&self) -> usize {
        self.snapshot_frames
    }

    /// Delta frames written so far.
    pub fn delta_frames(&self) -> usize {
        self.delta_frames
    }

    /// Payload bytes of the most recent snapshot frame.
    pub fn last_snapshot_bytes(&self) -> usize {
        self.last_snapshot_bytes
    }

    /// Mean payload size of a delta frame, in bytes (0.0 before the
    /// first delta) — the steady-state per-quantum durability cost.
    pub fn mean_delta_bytes(&self) -> f64 {
        if self.delta_frames == 0 {
            0.0
        } else {
            self.delta_payload_bytes as f64 / self.delta_frames as f64
        }
    }

    /// Deep-checks the journal by re-reading every byte it has written:
    /// segment headers parse and agree on the wire format, segment
    /// sequence numbers are contiguous up to the live segment, every
    /// frame passes its CRC (no torn writes in a journal that never
    /// crashed), delta payloads decode and carry strictly increasing
    /// quantum numbers, and at least one snapshot rebase point exists so
    /// the journal is restorable.  O(journal size) — a validation aid
    /// (the `invariants` feature wires it into quantum boundaries), not
    /// a hot-path check.
    pub fn validate_invariants(&self) -> Result<(), String> {
        if let Some(e) = &self.io_error {
            return Err(format!("journal latched an I/O error: {e}"));
        }
        let mut last_quantum: Option<u64> = None;
        let (snapshots, deltas) = match &self.backend {
            JournalBackend::Memory(writer) => {
                let counts =
                    validate_segment_frames(writer.sink(), self.format, &mut last_quantum, "log")?;
                // The in-memory log is never compacted, so the frame
                // counters must match the bytes exactly.
                if counts != (self.snapshot_frames, self.delta_frames) {
                    return Err(format!(
                        "byte log holds {counts:?} (snapshot, delta) frames but the counters say ({}, {})",
                        self.snapshot_frames, self.delta_frames
                    ));
                }
                counts
            }
            JournalBackend::Durable(segments) => {
                let listed = wal::list_segments(segments.dir())
                    .map_err(|e| format!("cannot list journal segments: {e}"))?;
                if listed.last().map(|&(seq, _)| seq) != Some(segments.current_seq()) {
                    return Err(format!(
                        "live segment {} is not the newest on disk ({:?})",
                        segments.current_seq(),
                        listed.last().map(|&(seq, _)| seq)
                    ));
                }
                let mut totals = (0usize, 0usize);
                let mut prev_seq: Option<u64> = None;
                // lint: allow(L001, Vec iteration in sequence order — listed is sorted)
                for (seq, path) in &listed {
                    if prev_seq.is_some_and(|p| *seq != p + 1) {
                        return Err(format!("segment sequence gap: {seq} follows {prev_seq:?}"));
                    }
                    prev_seq = Some(*seq);
                    let bytes = std::fs::read(path)
                        .map_err(|e| format!("cannot read segment {seq}: {e}"))?;
                    let label = format!("segment {seq}");
                    let counts =
                        validate_segment_frames(&bytes, self.format, &mut last_quantum, &label)?;
                    totals.0 += counts.0;
                    totals.1 += counts.1;
                }
                // Compaction drops whole old segments, so the on-disk
                // counts can only be at or below the lifetime counters.
                if totals.0 > self.snapshot_frames || totals.1 > self.delta_frames {
                    return Err(format!(
                        "disk holds {totals:?} (snapshot, delta) frames but only ({}, {}) were ever written",
                        self.snapshot_frames, self.delta_frames
                    ));
                }
                totals
            }
        };
        if snapshots == 0 {
            return Err(format!(
                "journal holds {deltas} delta frames but no snapshot rebase point"
            ));
        }
        Ok(())
    }

    /// Completes the frame assembled in `self.frame` (payload behind the
    /// reserved header bytes) and appends it: one write.  Returns the
    /// payload length.
    fn push_frame(&mut self, tag: u8) -> io::Result<usize> {
        finish_frame(tag, &mut self.frame);
        match &mut self.backend {
            JournalBackend::Memory(writer) => writer.append_assembled(&self.frame),
            JournalBackend::Durable(segments) => segments.append_assembled(&self.frame),
        }?;
        Ok(self.frame.len() - FRAME_HEADER_LEN)
    }

    /// Appends a full-snapshot rebase frame.  The statistics counters
    /// update only when the frame actually reached the log.
    fn append_snapshot_inner(&mut self, detector: &EventDetector) -> io::Result<()> {
        begin_frame(&mut self.frame);
        match self.format {
            WireFormat::Json => self
                .frame
                .extend_from_slice(dengraph_json::to_string(&detector.to_json()).as_bytes()),
            WireFormat::Binary => {
                self.body.clear();
                detector.to_bin(&mut self.body);
                write_checkpoint_container(self.body.as_slice(), &mut self.codec, &mut self.frame);
            }
        }
        self.last_snapshot_bytes = self.push_frame(TAG_SNAPSHOT)?;
        self.snapshot_frames += 1;
        self.deltas_since_snapshot = 0;
        Ok(())
    }

    /// Infallible wrapper over [`Self::append_snapshot_inner`] for the
    /// in-memory enable path; latches I/O failures like
    /// [`Self::record_quantum`].
    pub(crate) fn append_snapshot(&mut self, detector: &EventDetector) {
        if self.io_error.is_some() {
            return;
        }
        if let Err(e) = self.append_snapshot_inner(detector) {
            self.io_error = Some(e);
        }
    }

    /// Appends one processed quantum: a delta record, or a snapshot when
    /// the mode's rebase cadence (or [`CheckpointMode::Full`]) says so.
    ///
    /// Runs inside the infallible per-quantum pipeline, so an I/O failure
    /// is latched ([`Self::io_error`]) rather than returned; the journal
    /// stops appending from that point on.
    pub(crate) fn record_quantum(&mut self, detector: &EventDetector, summary: &QuantumSummary) {
        if self.io_error.is_some() {
            return;
        }
        if let Err(e) = self.record_quantum_inner(detector, summary) {
            self.io_error = Some(e);
        }
    }

    fn record_quantum_inner(
        &mut self,
        detector: &EventDetector,
        summary: &QuantumSummary,
    ) -> io::Result<()> {
        let rebase = match self.mode {
            CheckpointMode::Full => true,
            CheckpointMode::Delta { every } => self.deltas_since_snapshot >= every.max(1),
        };
        if rebase {
            self.append_snapshot_inner(detector)?;
            // A rebase makes every earlier segment dead weight — but only
            // once the snapshot is durable.  Under `Never` the hot path
            // syncs nothing, so compaction waits for the caller's next
            // explicit [`Self::sync`] (or the next startup).
            if let JournalBackend::Durable(segments) = &mut self.backend {
                if segments.fsync() != FsyncPolicy::Never {
                    sync_and_compact(segments)?;
                }
            }
        } else {
            begin_frame(&mut self.frame);
            let mut w = BinWriter::from_vec(std::mem::take(&mut self.frame));
            detector.encode_delta_record(summary, self.format, &mut w);
            self.frame = w.into_bytes();
            self.delta_payload_bytes += self.push_frame(TAG_DELTA)? as u64;
            self.delta_frames += 1;
            self.deltas_since_snapshot += 1;
        }
        Ok(())
    }
}

/// Makes everything appended so far durable, then deletes the segments
/// behind the latest snapshot — in that order, so a crash at any point
/// leaves a complete snapshot on disk.
fn sync_and_compact(segments: &mut SegmentedJournal) -> io::Result<()> {
    segments.sync()?;
    segments.compact()?;
    Ok(())
}

/// Walks one journal segment's bytes frame by frame for
/// [`CheckpointJournal::validate_invariants`]: the header must parse and
/// match the journal's wire format, every frame must pass its CRC, and
/// delta payloads must decode with strictly increasing quantum numbers
/// (threaded across segments via `last_quantum`).  Returns the
/// `(snapshot, delta)` frame counts.
fn validate_segment_frames(
    bytes: &[u8],
    format: WireFormat,
    last_quantum: &mut Option<u64>,
    label: &str,
) -> Result<(usize, usize), String> {
    let mut reader =
        wal::JournalReader::new(bytes).map_err(|e| format!("{label}: bad segment header: {e}"))?;
    if reader.format() != format {
        return Err(format!(
            "{label}: segment declares {:?} but the journal writes {:?}",
            reader.format(),
            format
        ));
    }
    let (mut snapshots, mut deltas) = (0usize, 0usize);
    loop {
        match reader.next_frame() {
            wal::JournalFrameEvent::Snapshot(_) => snapshots += 1,
            wal::JournalFrameEvent::Delta(payload) => {
                let record = DeltaRecord::decode(payload, format)
                    .map_err(|e| format!("{label}: undecodable delta frame: {e}"))?;
                if last_quantum.is_some_and(|q| record.quantum() <= q) {
                    return Err(format!(
                        "{label}: delta quantum {} does not advance past {last_quantum:?}",
                        record.quantum()
                    ));
                }
                *last_quantum = Some(record.quantum());
                deltas += 1;
            }
            wal::JournalFrameEvent::End => return Ok((snapshots, deltas)),
            wal::JournalFrameEvent::Torn { offset, reason } => {
                return Err(format!("{label}: torn frame at byte {offset}: {reason}"))
            }
        }
    }
}

/// Restores a detector from a journal byte log: decode the latest
/// snapshot frame, then replay every delta frame after it.  A torn tail
/// recovers to the last durable quantum instead of failing (see
/// [`crate::wal`]).
pub(crate) fn restore_journal_detector(bytes: &[u8]) -> Result<EventDetector, RestoreError> {
    wal::restore_detector_from_bytes(bytes).map(|(detector, _report)| detector)
}
