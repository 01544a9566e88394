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
//! * a [`CheckpointJournal`] is an append-only frame log in the segment
//!   files of [`crate::wal`]: one delta record per quantum, and a full
//!   snapshot as a rebase point every `rebase_every + 1` quanta;
//! * restore finds the latest snapshot and **replays** the deltas of the
//!   quanta after it on top of it.
//!
//! Replay is a pure redo: the window record is pushed as-is, the graph
//! re-applies the logged deltas (no correlation is re-scored; its node
//! set is the keywords' high state), cluster maintenance re-runs the
//! deterministic Section-5 algorithms from the same delta log, in the
//! same order (reproducing cluster ids exactly), and the tracker
//! re-observes the logged events.
//! The result is bit-identical to the uninterrupted run
//! (`tests/checkpoint_resume.rs` gates this across rebase cadences).
//!
//! ## Wire layout
//!
//! Standalone checkpoints come in two wire formats: JSON text (for
//! debugging) and a binary document.  Binary documents and journals both
//! start with a magic the JSON grammar cannot produce (`0xD6`), so
//! [`DetectorSession::restore_bytes`] sniffs the format from the first
//! byte.  A journal is always binary:
//!
//! ```text
//! checkpoint  = D6 'D' 'G' 'C'  version  method  payload
//! method      = 00 raw | 02 block
//! journal     = D6 'D' 'G' 'J'  version  01  frame*
//! frame       = tag(01 snapshot | 02 delta)  len u32-LE  crc32 u32-LE  payload
//! ```
//!
//! A checkpoint's payload is the detector state
//! ([`EventDetector::to_bin`]) stored raw or packed by the block codec
//! of [`dengraph_json::lz`]: method 02, or 00 when packing does not
//! shrink the body.  The state bytes under the wrapping are the same for
//! both.  There is one format epoch: a container of another version, or
//! a JSON document of another `"version"`, is refused.
//!
//! Snapshot payloads are complete binary checkpoint documents; delta
//! payloads are binary [`DeltaRecord`]s.  The journal frame layout is
//! the checksummed fixed-width framing of [`dengraph_json::frame`], and
//! restoring a journal *recovers*:
//! a torn tail (truncated or corrupt final frames, e.g. from a crash
//! mid-append) rolls back to the last fully-durable quantum instead of
//! failing the restore.
//!
//! ## The append path
//!
//! A journaled session pays for its journal inside every quantum's
//! latency, so the journal owns its buffers, encodes each window record
//! once, and spreads a rebase's snapshot over several quanta:
//!
//! * every quantum appends its delta frame: its window record is encoded
//!   into the newest slot of a ring of at most `window_quanta` records
//!   (`RecordRing`; the slot that falls out lends its buffer), and copied
//!   from there behind the frame's nine reserved header bytes, followed
//!   by the rest of the delta record;
//! * a rebase quantum `Q` — the first after `rebase_every` quanta since
//!   the last — appends its own delta frame, so it is durable at once,
//!   and then encodes the state into a reused body buffer, copying every
//!   window record the ring holds instead of encoding it again (records
//!   from before the journal opened are encoded afresh).  The encode is
//!   the only step that reads live state, and the only one `Q` pays for;
//! * the block codec packs the body over the next `spread` quanta
//!   (`rebase_every / 2`, at most 8 and at least 1), one equal byte
//!   slice after each of their delta frames, into a reused snapshot
//!   frame buffer behind the reserved bytes, folding each slice's output
//!   into the frame's checksum; after the last slice the frame is
//!   written behind the delta of `Q + spread`.  A crash before that
//!   leaves the snapshot before it, and every delta since, to restore
//!   from.  [`CheckpointJournal::sync`] finishes a snapshot still being
//!   packed before it syncs;
//! * each frame goes to the segment file as **one** write.
//!
//! The body is a consistent image of the state at `Q`: nothing writes
//! the buffer while it is packed.  The bytes are those of
//! [`EventDetector::to_bin`] and of a fresh delta encoding, and a sliced
//! packing writes what one call would (`tests/checkpoint_resume.rs`
//! compares every snapshot frame with `checkpoint_bytes` taken at its
//! rebase, and reads the frame layout back).  After the first rebase no
//! frame allocates (`tests/allocation_gate_durable.rs`).
//!
//! [`DetectorSession::restore_bytes`]: crate::session::DetectorSession::restore_bytes

use std::cell::Cell;
use std::collections::VecDeque;
use std::io;
use std::path::Path;

use dengraph_json::frame::{begin_frame, finish_frame, seal_frame, Crc32, FRAME_HEADER_LEN};
use dengraph_json::lz::{self, BlockEncoder};
use dengraph_json::{BinReader, BinWriter, Decode, Encode, JsonError, WireFormat};

use crate::akg::{AkgQuantumStats, GraphDelta};
use crate::config::DetectorConfig;
use crate::detector::{EventDetector, QuantumSummary};
use crate::event::DetectedEvent;
use crate::keyword_state::{QuantumRecord, RESERVED_RECORDS};
use crate::session::RestoreError;
use crate::wal::{self, DurableJournalConfig, FsyncPolicy, SegmentedJournal};

/// Magic prefix of a binary checkpoint document.
pub(crate) const CHECKPOINT_MAGIC: [u8; 4] =
    [dengraph_json::codec::BINARY_MAGIC_BYTE, b'D', b'G', b'C'];

/// Version of the binary checkpoint-document container (the journal
/// container is versioned separately — [`crate::wal::JOURNAL_VERSION`]).
/// Version 2 was the format epoch that dropped every retired field;
/// version 3 drops the configuration's exact-correlation byte.  The
/// detector body's JSON twin carries the same number as `"version"`.
pub(crate) const CONTAINER_VERSION: u64 = 3;

pub(crate) const TAG_SNAPSHOT: u8 = 1;
pub(crate) const TAG_DELTA: u8 = 2;

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

    /// Decodes one journal delta-frame payload.  The whole input must
    /// be consumed.
    pub fn decode(bytes: &[u8]) -> dengraph_json::Result<Self> {
        let r = &mut BinReader::new(bytes);
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
        r.expect_end()?;
        Ok(Self {
            record,
            akg_deltas,
            akg_stats,
            events: out,
        })
    }
}

/// Borrowed view of a [`DeltaRecord`] used on the per-quantum append hot
/// path: the one encoder of a delta record, so a journal append never
/// clones the window record, the AKG delta log and the event list out of
/// the detector.  The window record arrives already encoded, from the
/// journal's [`RecordRing`].
pub(crate) struct DeltaRecordView<'a> {
    pub(crate) record: &'a [u8],
    pub(crate) akg_deltas: &'a [GraphDelta],
    pub(crate) akg_stats: AkgQuantumStats,
    pub(crate) events: &'a [DetectedEvent],
}

impl DeltaRecordView<'_> {
    /// Appends the binary encoding [`DeltaRecord::decode`] reads.
    pub(crate) fn to_bin(&self, w: &mut BinWriter) {
        w.raw(self.record);
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

/// The binary encodings of the window records the journal has written,
/// oldest first, keyed by [`QuantumRecord::index`].
///
/// A window record never changes once pushed, and it stays in the window
/// for `window_quanta` quanta.  Its delta frame encodes it once, into
/// this ring; every rebase snapshot taken while it is still in the window
/// copies those bytes instead of encoding it again (module docs, "The
/// append path").  The ring holds at most `capacity` entries; the entry
/// that falls out gives its buffer to the next record, so a warm ring
/// does not allocate.  An empty ring ([`Self::default`]) holds nothing,
/// and every record is encoded afresh.
#[derive(Debug, Default)]
pub(crate) struct RecordRing {
    entries: VecDeque<(u64, BinWriter)>,
    capacity: usize,
}

impl RecordRing {
    fn new(capacity: usize) -> Self {
        Self {
            entries: VecDeque::with_capacity(capacity.min(RESERVED_RECORDS)),
            capacity,
        }
    }

    /// Encodes `record` into the newest slot and returns its bytes.
    pub(crate) fn push(&mut self, record: &QuantumRecord) -> &[u8] {
        let mut slot = if self.entries.len() >= self.capacity {
            self.entries.pop_front().map(|(_, w)| w).unwrap_or_default()
        } else {
            BinWriter::new()
        };
        slot.clear();
        record.to_bin(&mut slot);
        self.entries.push_back((record.index, slot));
        self.entries.back().map_or(&[], |(_, w)| w.as_slice())
    }

    /// The bytes of the record of quantum `index`, if the ring holds it.
    pub(crate) fn get(&self, index: u64) -> Option<&[u8]> {
        self.entries
            .binary_search_by_key(&index, |&(i, _)| i)
            .ok()
            .map(|at| self.entries[at].1.as_slice())
    }
}

// ---------------------------------------------------------------------------
// Checkpoint documents
// ---------------------------------------------------------------------------

/// Payload methods of a binary checkpoint container.  (Method 1 was a
/// codec of an earlier format epoch.)
const METHOD_RAW: u8 = 0;
const METHOD_BLOCK: u8 = 2;

/// Appends a binary checkpoint container's header to `out` and starts
/// packing `body` (a detector's [`EventDetector::to_bin`] bytes) behind
/// it with the block codec; [`pack_checkpoint_container`] goes on from
/// there.  Returns where the payload starts, or `None` when the body is
/// too long for the codec and is stored raw, which completes the
/// container at once.
fn begin_checkpoint_container(
    body: &[u8],
    codec: &mut BlockEncoder,
    out: &mut Vec<u8>,
) -> Option<usize> {
    let mut header = BinWriter::from_vec(std::mem::take(out));
    header.raw(&CHECKPOINT_MAGIC);
    header.u64(CONTAINER_VERSION);
    header.byte(METHOD_BLOCK);
    *out = header.into_bytes();
    let payload_at = out.len();
    if codec.begin(body, out) {
        Some(payload_at)
    } else {
        store_raw(body, payload_at, out);
        None
    }
}

/// Packs the container [`begin_checkpoint_container`] began (payload at
/// `payload_at` of `out`) until the codec's cursor reaches byte `until`
/// of `body`.  Returns `None` while the body is not packed to its end;
/// then `Some(raw)`, where `raw` says the packed stream did not shrink
/// the body (tiny or incompressible states) and was replaced by the body
/// itself under method 00, which rewrites the method byte too.
fn pack_checkpoint_container(
    body: &[u8],
    codec: &mut BlockEncoder,
    out: &mut Vec<u8>,
    payload_at: usize,
    until: usize,
) -> Option<bool> {
    if !codec.pack_until(body, until, out) {
        return None;
    }
    let raw = out.len() - payload_at >= body.len();
    if raw {
        store_raw(body, payload_at, out);
    }
    Some(raw)
}

/// Replaces whatever follows the header in `out` by `body`, stored raw.
fn store_raw(body: &[u8], payload_at: usize, out: &mut Vec<u8>) {
    out.truncate(payload_at);
    out[payload_at - 1] = METHOD_RAW;
    out.extend_from_slice(body);
}

thread_local! {
    /// The block codec of [`encode_checkpoint_document`], one per thread,
    /// kept between calls so a standalone checkpoint allocates no table.
    static CODEC: Cell<BlockEncoder> = const { Cell::new(BlockEncoder::new()) };
}

/// Encodes the complete detector as a standalone checkpoint document in
/// the requested wire format: JSON text, or the headered binary layout
/// whose payload is packed by the block codec (the struct encodings
/// strip JSON's framing; the container compression then folds the
/// remaining redundancy, above all repeated column structure — typically
/// another ~1.5×).
pub(crate) fn encode_checkpoint_document(detector: &EventDetector, format: WireFormat) -> Vec<u8> {
    match format {
        WireFormat::Json => dengraph_json::to_string(&detector.to_json()).into_bytes(),
        WireFormat::Binary => {
            let mut body = BinWriter::new();
            detector.to_bin(&mut body);
            let body = body.as_slice();
            let mut out = Vec::new();
            let mut codec = CODEC.take();
            if let Some(payload_at) = begin_checkpoint_container(body, &mut codec, &mut out) {
                pack_checkpoint_container(body, &mut codec, &mut out, payload_at, body.len());
            }
            CODEC.set(codec);
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
            EventDetector::check_json_header(&value)?;
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

/// An append-only checkpoint journal: snapshot frames as rebase points,
/// [`DeltaRecord`] frames between them.
///
/// Owned by a [`DetectorSession`](crate::session::DetectorSession) once
/// [`enable_durable_journal`](crate::session::DetectorSession::enable_durable_journal)
/// is called; one delta frame is appended per processed quantum, and a
/// rebase's snapshot frame a few quanta after its rebase, to the
/// rotating, compacting segment files of its directory.
///
/// Durable appends can fail.  Because they run inside the infallible
/// per-quantum hot path, the first I/O error is latched
/// ([`Self::io_error`]) and the journal stops appending — the detector
/// keeps running, and the caller checks/clears the condition at its own
/// cadence (e.g. once per quantum batch) via
/// [`DetectorSession::journal_io_error`](crate::session::DetectorSession::journal_io_error).
pub struct CheckpointJournal {
    /// Quanta between consecutive rebases (≥ 1).
    rebase_every: u32,
    /// Quanta a rebase's snapshot is packed over (module docs, "The
    /// append path").
    spread: u32,
    segments: SegmentedJournal,
    /// First append/sync failure, latched; all later appends are skipped.
    io_error: Option<io::Error>,
    /// Quanta since the latest rebase (or the opening snapshot).
    quanta_since_rebase: u32,
    /// The rebase snapshot being packed, if any.
    pending: Option<PendingSnapshot>,
    snapshot_frames: usize,
    delta_frames: usize,
    delta_payload_bytes: u64,
    last_snapshot_bytes: usize,
    /// A snapshot's detector state, before packing.  This and the next
    /// three are scratch reused across frames.
    body: BinWriter,
    /// The delta frame being assembled: reserved header bytes + payload.
    frame: Vec<u8>,
    /// The snapshot frame being assembled, over as many quanta as the
    /// packing takes.
    snapshot: Vec<u8>,
    /// The block codec's table and cursor.
    codec: BlockEncoder,
    /// The window records' encodings, kept from their delta frames for
    /// the next rebase.
    records: RecordRing,
}

/// A rebase snapshot between the quantum that encoded its body and the
/// write of its frame.
#[derive(Debug)]
struct PendingSnapshot {
    /// Slices of the body packed so far.
    slices: u32,
    /// Where the container's payload starts in the snapshot frame;
    /// `None` when the body, too long for the codec, was stored raw at
    /// the begin.
    payload_at: Option<usize>,
    /// Checksum of the frame's tag and of its bytes before `folded`.
    crc: Crc32,
    folded: usize,
    /// The segment holding the delta frame of the quantum after the
    /// snapshot's, once that frame is written: the first segment a
    /// restore from this snapshot reads.
    restore_from: Option<u64>,
}

impl std::fmt::Debug for CheckpointJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointJournal")
            .field("rebase_every", &self.rebase_every)
            .field("dir", &self.segments.dir())
            .field("io_error", &self.io_error)
            .field("snapshot_frames", &self.snapshot_frames)
            .field("delta_frames", &self.delta_frames)
            .field("pending", &self.pending)
            .finish()
    }
}

/// The most quanta a rebase spreads its snapshot's packing over.
const MAX_SPREAD: u32 = 8;

impl CheckpointJournal {
    /// Opens a journal under `dir` and writes (and always fsyncs) the
    /// initial rebase snapshot of `detector`, without which a journal
    /// cannot be restored, then compacts any segments left behind by
    /// previous journal incarnations in the same directory — startup
    /// compaction is safe precisely because the fresh snapshot is already
    /// durable.  `config.rebase_every` is clamped to ≥ 1.
    pub(crate) fn open(
        dir: &Path,
        config: DurableJournalConfig,
        detector: &EventDetector,
    ) -> io::Result<Self> {
        let rebase_every = config.rebase_every.max(1);
        let mut journal = Self {
            rebase_every,
            spread: (rebase_every / 2).clamp(1, MAX_SPREAD),
            segments: SegmentedJournal::create(dir, config.fsync, config.segment_bytes)?,
            io_error: None,
            quanta_since_rebase: 0,
            pending: None,
            snapshot_frames: 0,
            delta_frames: 0,
            delta_payload_bytes: 0,
            last_snapshot_bytes: 0,
            body: BinWriter::new(),
            frame: Vec::new(),
            snapshot: Vec::new(),
            codec: BlockEncoder::new(),
            records: RecordRing::new(detector.config().window_quanta),
        };
        // The sync packs and writes the snapshot before it syncs.
        journal.begin_snapshot(detector);
        journal.sync()?;
        Ok(journal)
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
    /// durable, every segment a restore from it does not read is deleted.
    /// A snapshot still being packed is completed and written first, so
    /// it is the one that becomes durable.  This is the only point at
    /// which a running [`FsyncPolicy::Never`] journal sheds its dead
    /// segments (the policies that sync also compact whenever a rebase
    /// snapshot is written).  Returns the latched error if the journal
    /// already failed.
    pub fn sync(&mut self) -> io::Result<()> {
        if let Some(e) = &self.io_error {
            return Err(io::Error::new(e.kind(), e.to_string()));
        }
        let result = self
            .pack_snapshot(usize::MAX)
            .and_then(|_| sync_and_compact(&mut self.segments));
        if let Err(e) = &result {
            self.io_error = Some(io::Error::new(e.kind(), e.to_string()));
        }
        result
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
    /// segment headers parse, segment
    /// sequence numbers are contiguous up to the live segment, every
    /// frame passes its CRC (no torn writes in a journal that never
    /// crashed), delta payloads decode and carry strictly increasing
    /// quantum numbers, and at least one snapshot rebase point exists so
    /// the journal is restorable.  O(journal size) — a validation aid
    /// that runs only when called (the `invariants` feature checks the
    /// detector after every quantum, never the journal), not a hot-path
    /// check.
    pub fn validate_invariants(&self) -> Result<(), String> {
        if let Some(e) = &self.io_error {
            return Err(format!("journal latched an I/O error: {e}"));
        }
        let segments = &self.segments;
        let listed = wal::list_segments(segments.dir())
            .map_err(|e| format!("cannot list journal segments: {e}"))?;
        if listed.last().map(|&(seq, _)| seq) != Some(segments.current_seq()) {
            return Err(format!(
                "live segment {} is not the newest on disk ({:?})",
                segments.current_seq(),
                listed.last().map(|&(seq, _)| seq)
            ));
        }
        let mut last_quantum: Option<u64> = None;
        let (mut snapshots, mut deltas) = (0usize, 0usize);
        let mut prev_seq: Option<u64> = None;
        for (seq, path) in &listed {
            if prev_seq.is_some_and(|p| *seq != p + 1) {
                return Err(format!("segment sequence gap: {seq} follows {prev_seq:?}"));
            }
            prev_seq = Some(*seq);
            let bytes =
                std::fs::read(path).map_err(|e| format!("cannot read segment {seq}: {e}"))?;
            let label = format!("segment {seq}");
            let counts = validate_segment_frames(&bytes, &mut last_quantum, &label)?;
            snapshots += counts.0;
            deltas += counts.1;
        }
        // Compaction drops whole old segments, so the on-disk counts can
        // only be at or below the lifetime counters.
        if snapshots > self.snapshot_frames || deltas > self.delta_frames {
            return Err(format!(
                "disk holds ({snapshots}, {deltas}) (snapshot, delta) frames but only ({}, {}) were ever written",
                self.snapshot_frames, self.delta_frames
            ));
        }
        if snapshots == 0 {
            return Err(format!(
                "journal holds {deltas} delta frames but no snapshot rebase point"
            ));
        }
        Ok(())
    }

    /// Encodes `detector` into the body buffer and starts its snapshot
    /// frame: container header, codec begun, checksum opened.
    fn begin_snapshot(&mut self, detector: &EventDetector) {
        debug_assert!(self.pending.is_none(), "a rebase began while one packs");
        self.body.clear();
        detector.to_bin_reusing(&mut self.body, &self.records);
        begin_frame(&mut self.snapshot);
        let payload_at =
            begin_checkpoint_container(self.body.as_slice(), &mut self.codec, &mut self.snapshot);
        let mut crc = Crc32::new();
        crc.update(&[TAG_SNAPSHOT]);
        self.pending = Some(PendingSnapshot {
            slices: 0,
            payload_at,
            crc,
            folded: FRAME_HEADER_LEN,
            restore_from: None,
        });
    }

    /// Packs the pending snapshot's body up to byte `until` and folds the
    /// new output into its checksum; once the body is packed to its end,
    /// writes the frame (one write).  Returns whether a frame was written.
    fn pack_snapshot(&mut self, until: usize) -> io::Result<bool> {
        let Some(pending) = &mut self.pending else {
            return Ok(false);
        };
        let packed = match pending.payload_at {
            Some(at) => pack_checkpoint_container(
                self.body.as_slice(),
                &mut self.codec,
                &mut self.snapshot,
                at,
                until,
            ),
            None => Some(false),
        };
        if packed == Some(true) {
            // The raw fallback rewrote the bytes already folded.
            pending.crc = Crc32::new();
            pending.crc.update(&[TAG_SNAPSHOT]);
            pending.folded = FRAME_HEADER_LEN;
        }
        pending.crc.update(&self.snapshot[pending.folded..]);
        pending.folded = self.snapshot.len();
        if packed.is_none() {
            return Ok(false);
        }
        seal_frame(TAG_SNAPSHOT, &pending.crc, &mut self.snapshot);
        let restore_from = pending.restore_from;
        self.pending = None;
        self.segments.append_assembled(&self.snapshot)?;
        self.segments
            .set_restore_from(restore_from.unwrap_or(self.segments.current_seq()));
        self.last_snapshot_bytes = self.snapshot.len() - FRAME_HEADER_LEN;
        self.snapshot_frames += 1;
        Ok(true)
    }

    /// Appends one processed quantum: its delta record, and then the
    /// rebase work this quantum carries — encoding a new snapshot once
    /// `rebase_every` quanta follow the latest rebase, or packing the next
    /// slice of the pending one (module docs, "The append path").
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
        begin_frame(&mut self.frame);
        let mut w = BinWriter::from_vec(std::mem::take(&mut self.frame));
        detector.encode_delta_record(summary, &mut self.records, &mut w);
        self.frame = w.into_bytes();
        finish_frame(TAG_DELTA, &mut self.frame);
        self.segments.append_assembled(&self.frame)?;
        self.delta_payload_bytes += (self.frame.len() - FRAME_HEADER_LEN) as u64;
        self.delta_frames += 1;
        if self.quanta_since_rebase >= self.rebase_every {
            // The delta just written makes this quantum durable; the
            // snapshot is the state after it, read now and packed later.
            self.begin_snapshot(detector);
            self.quanta_since_rebase = 0;
            return Ok(());
        }
        self.quanta_since_rebase += 1;
        let Some(pending) = &mut self.pending else {
            return Ok(());
        };
        pending
            .restore_from
            .get_or_insert(self.segments.current_seq());
        pending.slices += 1;
        // Equal byte slices; the last one reaches the end of the body.
        let until = self.body.as_slice().len() * pending.slices as usize / self.spread as usize;
        // A rebase makes every segment before the one holding the delta
        // after the snapshot's quantum dead weight — but only once the
        // snapshot is durable.  Under `Never` the hot path syncs nothing,
        // so compaction waits for the caller's next explicit
        // [`Self::sync`] (or the next startup).
        if self.pack_snapshot(until)? && self.segments.fsync() != FsyncPolicy::Never {
            sync_and_compact(&mut self.segments)?;
        }
        Ok(())
    }
}

/// Makes everything appended so far durable, then deletes the segments a
/// restore from the latest snapshot does not read — in that order, so a
/// crash at any point leaves a complete snapshot, and every delta after
/// it, on disk.
fn sync_and_compact(segments: &mut SegmentedJournal) -> io::Result<()> {
    segments.sync()?;
    segments.compact()?;
    Ok(())
}

/// Walks one journal segment's bytes frame by frame for
/// [`CheckpointJournal::validate_invariants`]: the header must parse,
/// every frame must pass its CRC, and
/// delta payloads must decode with strictly increasing quantum numbers
/// (threaded across segments via `last_quantum`).  Returns the
/// `(snapshot, delta)` frame counts.
fn validate_segment_frames(
    bytes: &[u8],
    last_quantum: &mut Option<u64>,
    label: &str,
) -> Result<(usize, usize), String> {
    let mut reader =
        wal::JournalReader::new(bytes).map_err(|e| format!("{label}: bad segment header: {e}"))?;
    let (mut snapshots, mut deltas) = (0usize, 0usize);
    loop {
        match reader.next_frame() {
            wal::JournalFrameEvent::Snapshot(_) => snapshots += 1,
            wal::JournalFrameEvent::Delta(payload) => {
                let record = DeltaRecord::decode(payload)
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
