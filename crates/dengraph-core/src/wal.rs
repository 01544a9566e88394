//! The durable write-ahead journal: segmented, checksummed, crash-safe.
//!
//! PR 5's [`CheckpointJournal`](crate::checkpoint::CheckpointJournal)
//! made per-quantum durability *cheap* (O(Δ) delta frames between
//! snapshot rebases) but kept the log in memory — a crash lost every
//! quantum since the last explicit checkpoint.  This module supplies the
//! missing on-disk half:
//!
//! * [`JournalWriter`] streams frames to any [`JournalSink`] (a thin
//!   extension of [`io::Write`] adding the `fsync` operation) with the
//!   CRC-32 length framing of [`dengraph_json::frame`], under a
//!   configurable [`FsyncPolicy`].  A frame reaches the sink as **one**
//!   `write_all` of header + payload — assembled by the caller in its own
//!   buffer (the journal's hot path) or, for [`JournalWriter::append_frame`],
//!   in a buffer the writer reuses — so no frame is ever half-issued
//!   between two calls and a quantum costs one syscall;
//! * `SegmentedJournal` (crate-internal, driven by `CheckpointJournal`)
//!   rotates the log across `seg-NNNNNNNN.dgj` files at a byte
//!   threshold and compacts segments wholly behind the latest durable
//!   snapshot — at every rebase under the policies that sync, and at the
//!   caller's explicit sync under [`FsyncPolicy::Never`], after first
//!   syncing the closed segments that policy's rotations left in the
//!   page cache;
//! * [`JournalReader`] scans one segment's bytes frame by frame, and the
//!   crate-internal recovery routine folds every segment of a journal
//!   directory into the *last fully-durable quantum*: a torn tail (bad
//!   checksum, truncated frame, short length prefix, half-written
//!   segment) stops the scan without failing the restore, and every
//!   frame before the tear is replayed.
//!
//! ## On-disk layout
//!
//! ```text
//! dir/seg-00000001.dgj      dir/seg-00000002.dgj      ...
//! segment = D6 'D' 'G' 'J'  version  format-byte  frame*
//! frame   = tag(1)  payload-len u32-LE(4)  crc32 u32-LE(4)  payload
//! ```
//!
//! Every segment is self-describing (own header); frames carry tag
//! `01` (snapshot: a complete checkpoint document) or `02` (delta: a
//! [`DeltaRecord`]).  Recovery keeps the
//! latest snapshot and the delta frames after it, so compaction — which
//! only ever deletes segments *strictly before* the segment holding the
//! latest durable snapshot — never changes what a restore produces.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use dengraph_json::frame::{begin_frame, finish_frame, FrameEvent, FrameScanner, TornReason};
use dengraph_json::{BinReader, BinWriter, Decode, JsonError, WireFormat};

use crate::checkpoint::{
    decode_checkpoint_document, CheckpointMode, DeltaRecord, TAG_DELTA, TAG_SNAPSHOT,
};
use crate::detector::EventDetector;
use crate::session::RestoreError;

/// Magic prefix of every journal segment (and of the in-memory byte
/// log).  Starts with the binary sniff byte `0xD6`, which no JSON
/// document can begin with.
pub(crate) const JOURNAL_MAGIC: [u8; 4] =
    [dengraph_json::codec::BINARY_MAGIC_BYTE, b'D', b'G', b'J'];

/// Version of the journal container layout.  Version 2 introduced the
/// checksummed fixed-width framing (version 1 was the in-memory-only
/// varint framing of PR 5, which never reached disk and is not read
/// back).
pub(crate) const JOURNAL_VERSION: u64 = 2;

const SEGMENT_PREFIX: &str = "seg-";
const SEGMENT_SUFFIX: &str = ".dgj";

// ---------------------------------------------------------------------------
// Fsync policy
// ---------------------------------------------------------------------------

/// When the journal forces appended frames to stable storage.
///
/// The policy trades the durability window against write latency:
///
/// | policy | lost on power failure | cost |
/// |---|---|---|
/// | [`EveryFrame`](Self::EveryFrame) | nothing (≤ the torn frame) | one fsync per quantum |
/// | [`EveryN`](Self::EveryN) | up to `n` quanta | one fsync per `n` quanta |
/// | [`Never`](Self::Never) | up to the OS write-back window | none (and no compaction until an explicit sync) |
///
/// Under every policy the journal itself stays *consistent*: recovery
/// finds the last frame that fully reached the disk and resumes there.
/// The policy only controls how far behind the stream that frame may be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Never fsync; rely on OS write-back (suitable for benchmarks and
    /// for deployments where the journal is itself replicated).  Dead
    /// segments are deleted only once their successor snapshot is known
    /// durable, so under this policy the journal grows until the caller
    /// syncs explicitly
    /// ([`DetectorSession::sync_journal`](crate::session::DetectorSession::sync_journal)).
    Never,
    /// Fsync after every appended frame — the "lose at most the quantum
    /// in flight" setting, and the default.
    #[default]
    EveryFrame,
    /// Fsync after every `n` appended frames (`n` is clamped to ≥ 1).
    EveryN {
        /// Frames between consecutive fsyncs.
        n: u32,
    },
}

impl FsyncPolicy {
    /// Whether a sync is due after `frames_since_sync` unsynced frames.
    fn due(self, frames_since_sync: u32) -> bool {
        match self {
            FsyncPolicy::Never => false,
            FsyncPolicy::EveryFrame => true,
            FsyncPolicy::EveryN { n } => frames_since_sync >= n.max(1),
        }
    }
}

// ---------------------------------------------------------------------------
// Sinks and the frame writer
// ---------------------------------------------------------------------------

/// A journal destination: [`io::Write`] plus the ability to force
/// buffered bytes to stable storage.
///
/// The default [`Self::sync`] is a no-op, so any `io::Write` becomes a
/// sink with an empty `impl JournalSink for MyWriter {}`; [`File`]
/// overrides it with `sync_data`.
pub trait JournalSink: Write {
    /// Forces previously written bytes to stable storage.
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl JournalSink for Vec<u8> {}

impl JournalSink for File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

/// Encodes the 6-byte segment header: magic, container version, wire
/// format.
fn segment_header(format: WireFormat) -> Vec<u8> {
    let mut w = BinWriter::new();
    w.raw(&JOURNAL_MAGIC);
    w.u64(JOURNAL_VERSION);
    w.byte(match format {
        WireFormat::Json => 0,
        WireFormat::Binary => 1,
    });
    w.into_bytes()
}

/// Parses a segment header, returning the wire format and the header
/// length in bytes.
fn parse_segment_header(bytes: &[u8]) -> Result<(WireFormat, usize), JsonError> {
    let mut r = BinReader::new(bytes);
    let magic = r.take(4)?;
    if magic != JOURNAL_MAGIC {
        return Err(JsonError {
            message: "not a dengraph checkpoint journal (bad magic)".into(),
            offset: 0,
        });
    }
    let version = r.u64()?;
    if version != JOURNAL_VERSION {
        return Err(JsonError {
            message: format!("unsupported journal version {version}"),
            offset: r.pos(),
        });
    }
    let format = match r.byte()? {
        0 => WireFormat::Json,
        1 => WireFormat::Binary,
        other => {
            return Err(JsonError {
                message: format!("unknown journal format byte {other}"),
                offset: r.pos(),
            })
        }
    };
    Ok((format, r.pos()))
}

/// Streams checksummed journal frames to a [`JournalSink`].
///
/// Construction writes the segment header; [`Self::append_frame`] then
/// writes one CRC-32 length-framed frame per call and fsyncs per the
/// configured [`FsyncPolicy`].  This is the write half of one journal
/// segment — [`CheckpointJournal`](crate::checkpoint::CheckpointJournal)
/// drives one `JournalWriter<Vec<u8>>` for the in-memory journal and a
/// rotating sequence of `JournalWriter<File>`s for the durable one.
#[derive(Debug)]
pub struct JournalWriter<S: JournalSink> {
    sink: S,
    fsync: FsyncPolicy,
    bytes_written: u64,
    frames_written: u64,
    frames_since_sync: u32,
    /// Where [`Self::append_frame`] assembles header + payload, reused
    /// across calls (empty for a writer fed assembled frames).
    frame: Vec<u8>,
}

impl<S: JournalSink> JournalWriter<S> {
    /// Wraps `sink`, writing the segment header immediately.
    pub fn new(mut sink: S, format: WireFormat, fsync: FsyncPolicy) -> io::Result<Self> {
        let header = segment_header(format);
        sink.write_all(&header)?;
        Ok(Self {
            sink,
            fsync,
            bytes_written: header.len() as u64,
            frames_written: 0,
            frames_since_sync: 0,
            frame: Vec::new(),
        })
    }

    /// Appends one frame (header + payload) and fsyncs if the policy says
    /// the frame count since the last sync is due.  The frame is
    /// assembled in a buffer the writer keeps and issued as one write.
    pub fn append_frame(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        let mut frame = std::mem::take(&mut self.frame);
        begin_frame(&mut frame);
        frame.extend_from_slice(payload);
        finish_frame(tag, &mut frame);
        let result = self.append_assembled(&frame);
        self.frame = frame;
        result
    }

    /// [`Self::append_frame`] for a frame the caller already assembled
    /// (header and payload contiguous, see
    /// [`dengraph_json::frame::finish_frame`]): **one** `write_all`, so a
    /// frame is never half-issued between two calls into the sink.
    pub(crate) fn append_assembled(&mut self, frame: &[u8]) -> io::Result<()> {
        self.sink.write_all(frame)?;
        self.bytes_written += frame.len() as u64;
        self.frames_written += 1;
        self.frames_since_sync += 1;
        if self.fsync.due(self.frames_since_sync) {
            self.sync()?;
        }
        Ok(())
    }

    /// Flushes and forces written frames to stable storage, regardless of
    /// policy.
    pub fn sync(&mut self) -> io::Result<()> {
        self.sink.flush()?;
        self.sink.sync()?;
        self.frames_since_sync = 0;
        Ok(())
    }

    /// Bytes written so far, segment header included.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Frames appended so far.
    pub fn frames_written(&self) -> u64 {
        self.frames_written
    }

    /// Read access to the underlying sink (e.g. the `Vec<u8>` byte log).
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Flushes and returns the underlying sink.
    pub fn into_sink(mut self) -> io::Result<S> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

// ---------------------------------------------------------------------------
// Durable configuration
// ---------------------------------------------------------------------------

/// Configuration of a durable (file-backed) journal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurableJournalConfig {
    /// Snapshot/delta cadence (see [`CheckpointMode`]).
    pub mode: CheckpointMode,
    /// Wire format of snapshot and delta payloads.
    pub format: WireFormat,
    /// When appended frames are forced to stable storage.
    pub fsync: FsyncPolicy,
    /// Byte threshold at which the journal rotates to a fresh segment
    /// file.  A segment always holds at least one frame, so a threshold
    /// smaller than a frame degenerates to one frame per segment.
    pub segment_bytes: u64,
}

impl Default for DurableJournalConfig {
    /// Delta mode with a 64-quantum rebase cadence, binary payloads,
    /// fsync on every frame, 8 MiB segments.
    fn default() -> Self {
        Self {
            mode: CheckpointMode::Delta { every: 64 },
            format: WireFormat::Binary,
            fsync: FsyncPolicy::default(),
            segment_bytes: 8 << 20,
        }
    }
}

// ---------------------------------------------------------------------------
// Segment files
// ---------------------------------------------------------------------------

/// Path of segment `seq` under `dir`.
fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{seq:08}{SEGMENT_SUFFIX}"))
}

/// Parses a segment sequence number out of a file name.
fn segment_seq(name: &str) -> Option<u64> {
    name.strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?
        .parse()
        .ok()
}

/// Lists `dir`'s journal segments sorted by sequence number.  Files not
/// matching the `seg-NNNNNNNN.dgj` pattern are ignored.
pub(crate) fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(seq) = name.to_str().and_then(segment_seq) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(out)
}

/// The file-backed, rotating, compacting journal backend.
///
/// Owned by a durable
/// [`CheckpointJournal`](crate::checkpoint::CheckpointJournal), which
/// decides *what* to append and *when* to compact; this type owns the
/// *where*: the current segment writer, rotation at the byte threshold,
/// and deletion of segments behind the latest snapshot.
#[derive(Debug)]
pub(crate) struct SegmentedJournal {
    dir: PathBuf,
    format: WireFormat,
    fsync: FsyncPolicy,
    segment_bytes: u64,
    writer: JournalWriter<File>,
    current_seq: u64,
    frames_in_segment: u64,
    /// Segment holding the most recently appended snapshot frame.
    last_snapshot_seq: u64,
    /// Every closed segment numbered below this is on stable storage.
    /// [`Self::rotate`] skips the old segment's fsync under
    /// [`FsyncPolicy::Never`], so closed segments from here up to the
    /// live one may still sit in the page cache.
    synced_before: u64,
}

impl SegmentedJournal {
    /// Creates the journal directory (if needed) and opens a fresh
    /// segment numbered after any segments already present — existing
    /// segments are never appended to or truncated.
    pub(crate) fn create(
        dir: &Path,
        format: WireFormat,
        fsync: FsyncPolicy,
        segment_bytes: u64,
    ) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let next_seq = list_segments(dir)?.last().map_or(1, |(seq, _)| seq + 1);
        let writer = Self::open_segment(dir, next_seq, format, fsync)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            format,
            fsync,
            segment_bytes: segment_bytes.max(1),
            writer,
            current_seq: next_seq,
            frames_in_segment: 0,
            last_snapshot_seq: next_seq,
            synced_before: next_seq,
        })
    }

    fn open_segment(
        dir: &Path,
        seq: u64,
        format: WireFormat,
        fsync: FsyncPolicy,
    ) -> io::Result<JournalWriter<File>> {
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(segment_path(dir, seq))?;
        JournalWriter::new(file, format, fsync)
    }

    /// Appends one assembled frame (see
    /// [`JournalWriter::append_assembled`]), rotating to a fresh segment
    /// first when the current one has reached the byte threshold (a
    /// segment always receives at least one frame, so rotation lands
    /// exactly on frame boundaries).
    pub(crate) fn append_assembled(&mut self, frame: &[u8]) -> io::Result<()> {
        if self.writer.bytes_written() >= self.segment_bytes && self.frames_in_segment > 0 {
            self.rotate()?;
        }
        self.writer.append_assembled(frame)?;
        self.frames_in_segment += 1;
        if frame.first() == Some(&TAG_SNAPSHOT) {
            self.last_snapshot_seq = self.current_seq;
        }
        Ok(())
    }

    /// Closes the current segment (syncing it unless the policy is
    /// [`FsyncPolicy::Never`]) and opens the next one.
    fn rotate(&mut self) -> io::Result<()> {
        let next = self.current_seq + 1;
        if self.fsync != FsyncPolicy::Never {
            self.writer.sync()?;
            self.synced_before = next;
        }
        self.writer = Self::open_segment(&self.dir, next, self.format, self.fsync)?;
        self.current_seq = next;
        self.frames_in_segment = 0;
        Ok(())
    }

    /// Forces everything appended so far to stable storage: the closed
    /// segments a [`FsyncPolicy::Never`] rotation left un-synced — those
    /// from the latest snapshot's on; anything older is dead weight a
    /// restore never reads — and then the live one.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        for seq in self.synced_before.max(self.last_snapshot_seq)..self.current_seq {
            OpenOptions::new()
                .write(true)
                .open(segment_path(&self.dir, seq))?
                .sync_data()?;
        }
        self.writer.sync()?;
        self.synced_before = self.current_seq;
        Ok(())
    }

    /// Deletes every segment strictly before the one holding the latest
    /// snapshot.  The caller must have made that snapshot durable first
    /// with [`Self::sync`] (compaction after an unsynced snapshot could
    /// leave the journal with no complete snapshot on disk after a
    /// crash).  Returns the number of segments removed.
    pub(crate) fn compact(&mut self) -> io::Result<usize> {
        let mut removed = 0;
        for (seq, path) in list_segments(&self.dir)? {
            if seq < self.last_snapshot_seq {
                fs::remove_file(&path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// The journal directory.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number of the segment currently being written.
    pub(crate) fn current_seq(&self) -> u64 {
        self.current_seq
    }

    /// The configured fsync policy.
    pub(crate) fn fsync(&self) -> FsyncPolicy {
        self.fsync
    }

    /// Total on-disk journal size: the live writer's byte count plus the
    /// sizes of all closed segments (best-effort; unreadable directory
    /// entries count as 0).
    pub(crate) fn total_bytes(&self) -> u64 {
        let mut sum = self.writer.bytes_written();
        if let Ok(segments) = list_segments(&self.dir) {
            for (seq, path) in segments {
                if seq != self.current_seq {
                    sum += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                }
            }
        }
        sum
    }
}

// ---------------------------------------------------------------------------
// Reading and recovery
// ---------------------------------------------------------------------------

/// Why a journal scan stopped before the end of the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TornWriteReason {
    /// A frame failed to validate (truncated header or payload, checksum
    /// mismatch).
    Frame(TornReason),
    /// A checksum-valid frame carries a tag this version does not know —
    /// bytes from a newer writer; everything before it is still good.
    UnknownTag(u8),
    /// A non-first segment's own header is missing or malformed (e.g. a
    /// crash between creating the file and writing its header).
    BadSegmentHeader,
    /// A non-first segment declares a different wire format than the
    /// journal started with.
    FormatMismatch,
    /// A gap in the segment sequence numbers — a segment between
    /// snapshots was deleted out from under the journal, so later deltas
    /// cannot be replayed safely.
    SegmentGap {
        /// The sequence number recovery expected next.
        expected: u64,
        /// The sequence number actually found.
        found: u64,
    },
}

impl std::fmt::Display for TornWriteReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TornWriteReason::Frame(reason) => write!(f, "{reason}"),
            TornWriteReason::UnknownTag(tag) => write!(f, "unknown journal frame tag {tag}"),
            TornWriteReason::BadSegmentHeader => write!(f, "malformed segment header"),
            TornWriteReason::FormatMismatch => {
                write!(f, "segment wire format differs from the journal's")
            }
            TornWriteReason::SegmentGap { expected, found } => {
                write!(
                    f,
                    "segment sequence gap (expected {expected}, found {found})"
                )
            }
        }
    }
}

/// Where and why recovery stopped replaying a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornWrite {
    /// The segment file containing the tear (`None` for an in-memory
    /// byte log).
    pub segment: Option<PathBuf>,
    /// Byte offset of the tear within that segment.
    pub offset: usize,
    /// What failed to validate.
    pub reason: TornWriteReason,
}

impl std::fmt::Display for TornWrite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.segment {
            Some(path) => write!(f, "{} at {}+{}", self.reason, path.display(), self.offset),
            None => write!(f, "{} at offset {}", self.reason, self.offset),
        }
    }
}

/// What a journal recovery did: how much it scanned, how much it
/// replayed, and whether it stopped at a torn write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segments whose frames were scanned.
    pub segments_scanned: usize,
    /// Valid frames found (snapshots and deltas, including frames made
    /// obsolete by a later snapshot).
    pub frames_recovered: usize,
    /// Delta frames replayed on top of the restored snapshot.
    pub deltas_replayed: usize,
    /// `quanta_processed()` of the recovered detector — the last fully
    /// durable quantum.
    pub recovered_quantum: u64,
    /// The torn tail recovery stopped at, if any (`None` means the
    /// journal was clean to the end).
    pub torn: Option<TornWrite>,
}

/// One step of a [`JournalReader`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalFrameEvent<'a> {
    /// A full-snapshot rebase frame: a complete checkpoint document.
    Snapshot(&'a [u8]),
    /// A delta frame: one encoded
    /// [`DeltaRecord`].
    Delta(&'a [u8]),
    /// The segment ended cleanly on a frame boundary.
    End,
    /// The remaining bytes are not a valid frame; `offset` is the byte
    /// position of the tear within the segment (header included).
    Torn {
        /// Byte offset of the torn frame's first byte.
        offset: usize,
        /// What failed to validate.
        reason: TornWriteReason,
    },
}

/// Scans one journal segment's bytes frame by frame.
///
/// [`Self::new`] validates the segment header; [`Self::next_frame`] then
/// yields typed frames until [`JournalFrameEvent::End`] or the first
/// [`JournalFrameEvent::Torn`], never failing on a damaged tail.  The
/// crate's recovery routine and the crash-matrix test suite both walk
/// journals through this type.
#[derive(Debug)]
pub struct JournalReader<'a> {
    format: WireFormat,
    header_len: usize,
    scanner: FrameScanner<'a>,
}

impl<'a> JournalReader<'a> {
    /// Parses the segment header of `segment` and positions the reader at
    /// its first frame.  A missing or malformed header is a hard error —
    /// such bytes are not a journal segment at all.
    pub fn new(segment: &'a [u8]) -> Result<Self, JsonError> {
        let (format, header_len) = parse_segment_header(segment)?;
        Ok(Self {
            format,
            header_len,
            scanner: FrameScanner::new(&segment[header_len..]),
        })
    }

    /// The segment's wire format (from its header).
    pub fn format(&self) -> WireFormat {
        self.format
    }

    /// Current byte offset into the segment (header included); after a
    /// [`JournalFrameEvent::Snapshot`]/[`JournalFrameEvent::Delta`] this
    /// is the next frame's start — i.e. successive values enumerate the
    /// segment's frame boundaries.
    pub fn pos(&self) -> usize {
        self.header_len + self.scanner.pos()
    }

    /// Validates and returns the next frame.
    pub fn next_frame(&mut self) -> JournalFrameEvent<'a> {
        let start = self.pos();
        match self.scanner.next_frame() {
            FrameEvent::Frame {
                tag: TAG_SNAPSHOT,
                payload,
            } => JournalFrameEvent::Snapshot(payload),
            FrameEvent::Frame {
                tag: TAG_DELTA,
                payload,
            } => JournalFrameEvent::Delta(payload),
            FrameEvent::Frame { tag, .. } => JournalFrameEvent::Torn {
                offset: start,
                reason: TornWriteReason::UnknownTag(tag),
            },
            FrameEvent::End => JournalFrameEvent::End,
            FrameEvent::Torn { offset, reason } => JournalFrameEvent::Torn {
                offset: self.header_len + offset,
                reason: TornWriteReason::Frame(reason),
            },
        }
    }
}

/// One segment handed to the recovery scan.
struct SegmentRef<'a> {
    path: Option<&'a Path>,
    seq: Option<u64>,
    bytes: &'a [u8],
}

/// The surviving frames of a scanned journal: the latest snapshot, the
/// delta tail after it, and where (if anywhere) the scan tore off.
struct ScannedJournal<'a> {
    format: WireFormat,
    snapshot: Option<&'a [u8]>,
    tail: Vec<&'a [u8]>,
    segments_scanned: usize,
    frames_recovered: usize,
    torn: Option<TornWrite>,
}

/// Scans `segments` (in sequence order) up to the first torn write.
/// Only the *first* segment's header is load-bearing — if it is
/// malformed the bytes are not a journal and the scan fails hard; any
/// later segment that fails to validate (bad header, format mismatch,
/// sequence gap) is treated as the torn tail instead.
fn scan_segments<'a>(segments: &[SegmentRef<'a>]) -> Result<ScannedJournal<'a>, RestoreError> {
    if segments.is_empty() {
        return Err(RestoreError::Io(
            "journal directory contains no segment files".to_string(),
        ));
    }
    let mut scan = ScannedJournal {
        format: WireFormat::Binary,
        snapshot: None,
        tail: Vec::new(),
        segments_scanned: 0,
        frames_recovered: 0,
        torn: None,
    };
    let mut prev_seq: Option<u64> = None;
    for (index, segment) in segments.iter().enumerate() {
        let torn_here = |reason: TornWriteReason, offset: usize| TornWrite {
            segment: segment.path.map(Path::to_path_buf),
            offset,
            reason,
        };
        if let (Some(prev), Some(seq)) = (prev_seq, segment.seq) {
            if seq != prev + 1 {
                scan.torn = Some(torn_here(
                    TornWriteReason::SegmentGap {
                        expected: prev + 1,
                        found: seq,
                    },
                    0,
                ));
                break;
            }
        }
        prev_seq = segment.seq;
        let mut reader = match JournalReader::new(segment.bytes) {
            Ok(reader) => reader,
            Err(e) if index == 0 => return Err(e.into()),
            Err(_) => {
                scan.torn = Some(torn_here(TornWriteReason::BadSegmentHeader, 0));
                break;
            }
        };
        if index == 0 {
            scan.format = reader.format();
        } else if reader.format() != scan.format {
            scan.torn = Some(torn_here(TornWriteReason::FormatMismatch, 0));
            break;
        }
        scan.segments_scanned += 1;
        let segment_torn = loop {
            match reader.next_frame() {
                JournalFrameEvent::Snapshot(payload) => {
                    scan.snapshot = Some(payload);
                    scan.tail.clear();
                    scan.frames_recovered += 1;
                }
                JournalFrameEvent::Delta(payload) => {
                    scan.tail.push(payload);
                    scan.frames_recovered += 1;
                }
                JournalFrameEvent::End => break None,
                JournalFrameEvent::Torn { offset, reason } => {
                    break Some(torn_here(reason, offset))
                }
            }
        };
        if let Some(torn) = segment_torn {
            scan.torn = Some(torn);
            break;
        }
    }
    Ok(scan)
}

/// Decodes the scanned snapshot and replays the delta tail.
fn replay(scan: &ScannedJournal<'_>) -> Result<(EventDetector, RecoveryReport), RestoreError> {
    let snapshot = scan.snapshot.ok_or_else(|| JsonError {
        message: "journal contains no snapshot frame to restore from".into(),
        offset: 0,
    })?;
    let mut detector = decode_checkpoint_document(snapshot)?;
    for payload in &scan.tail {
        let record = DeltaRecord::decode(payload, scan.format)?;
        detector.apply_delta_record(&record)?;
    }
    let report = RecoveryReport {
        segments_scanned: scan.segments_scanned,
        frames_recovered: scan.frames_recovered,
        deltas_replayed: scan.tail.len(),
        recovered_quantum: detector.quanta_processed(),
        torn: scan.torn.clone(),
    };
    Ok((detector, report))
}

/// Recovers a detector from a single journal byte log (the in-memory
/// journal form, or one segment's bytes).
pub(crate) fn restore_detector_from_bytes(
    bytes: &[u8],
) -> Result<(EventDetector, RecoveryReport), RestoreError> {
    let segments = [SegmentRef {
        path: None,
        seq: None,
        bytes,
    }];
    replay(&scan_segments(&segments)?)
}

/// Recovers a detector from a journal directory: reads every segment in
/// sequence order, scans to the last durable frame, restores the latest
/// snapshot and replays the delta tail.  A torn tail is reported in the
/// [`RecoveryReport`], not an error; a journal with no complete durable
/// snapshot is.
pub(crate) fn restore_detector_from_dir(
    dir: &Path,
) -> Result<(EventDetector, RecoveryReport), RestoreError> {
    let io_err = |e: io::Error| RestoreError::Io(format!("{}: {e}", dir.display()));
    let listed = list_segments(dir).map_err(io_err)?;
    let mut contents = Vec::with_capacity(listed.len());
    for (seq, path) in &listed {
        contents.push((*seq, path.clone(), fs::read(path).map_err(io_err)?));
    }
    let segments: Vec<SegmentRef<'_>> = contents
        .iter()
        .map(|(seq, path, bytes)| SegmentRef {
            path: Some(path),
            seq: Some(*seq),
            bytes,
        })
        .collect();
    replay(&scan_segments(&segments)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_cadence() {
        assert!(!FsyncPolicy::Never.due(1_000));
        assert!(FsyncPolicy::EveryFrame.due(1));
        assert!(!FsyncPolicy::EveryN { n: 3 }.due(2));
        assert!(FsyncPolicy::EveryN { n: 3 }.due(3));
        assert!(FsyncPolicy::EveryN { n: 0 }.due(1), "n clamps to 1");
        assert_eq!(FsyncPolicy::default(), FsyncPolicy::EveryFrame);
    }

    #[test]
    fn journal_writer_round_trips_through_journal_reader() {
        let mut writer =
            JournalWriter::new(Vec::new(), WireFormat::Binary, FsyncPolicy::Never).unwrap();
        writer
            .append_frame(TAG_SNAPSHOT, b"snapshot bytes")
            .unwrap();
        writer.append_frame(TAG_DELTA, b"delta 0").unwrap();
        writer.append_frame(TAG_DELTA, b"").unwrap();
        assert_eq!(writer.frames_written(), 3);
        let bytes = writer.into_sink().unwrap();

        let mut reader = JournalReader::new(&bytes).unwrap();
        assert_eq!(reader.format(), WireFormat::Binary);
        assert_eq!(
            reader.next_frame(),
            JournalFrameEvent::Snapshot(b"snapshot bytes")
        );
        assert_eq!(reader.next_frame(), JournalFrameEvent::Delta(b"delta 0"));
        assert_eq!(reader.next_frame(), JournalFrameEvent::Delta(b""));
        assert_eq!(reader.next_frame(), JournalFrameEvent::End);
        assert_eq!(reader.pos(), bytes.len());
    }

    #[test]
    fn reader_reports_unknown_tags_as_torn_not_panic() {
        let mut writer =
            JournalWriter::new(Vec::new(), WireFormat::Binary, FsyncPolicy::Never).unwrap();
        writer.append_frame(TAG_DELTA, b"ok").unwrap();
        let boundary = writer.bytes_written() as usize;
        writer.append_frame(99, b"from the future").unwrap();
        let bytes = writer.into_sink().unwrap();
        let mut reader = JournalReader::new(&bytes).unwrap();
        assert_eq!(reader.next_frame(), JournalFrameEvent::Delta(b"ok"));
        assert_eq!(
            reader.next_frame(),
            JournalFrameEvent::Torn {
                offset: boundary,
                reason: TornWriteReason::UnknownTag(99),
            }
        );
    }

    #[test]
    fn segment_names_round_trip_and_sort() {
        assert_eq!(segment_seq("seg-00000042.dgj"), Some(42));
        assert_eq!(
            segment_path(Path::new("/tmp/j"), 42),
            PathBuf::from("/tmp/j/seg-00000042.dgj")
        );
        assert_eq!(segment_seq("seg-abc.dgj"), None);
        assert_eq!(segment_seq("checkpoint.bin"), None);
    }

    #[test]
    fn first_segment_header_errors_are_hard_later_ones_are_torn() {
        // A valid single-frame segment, then garbage as a second segment.
        let mut writer =
            JournalWriter::new(Vec::new(), WireFormat::Binary, FsyncPolicy::Never).unwrap();
        writer.append_frame(TAG_DELTA, b"d").unwrap();
        let good = writer.into_sink().unwrap();

        let garbage = b"not a journal".to_vec();
        assert!(matches!(
            scan_segments(&[SegmentRef {
                path: None,
                seq: Some(1),
                bytes: &garbage
            }]),
            Err(RestoreError::Json(_))
        ));

        let segments = [
            SegmentRef {
                path: None,
                seq: Some(1),
                bytes: &good,
            },
            SegmentRef {
                path: None,
                seq: Some(2),
                bytes: &garbage,
            },
        ];
        let scan = scan_segments(&segments).unwrap();
        assert_eq!(scan.frames_recovered, 1);
        assert_eq!(
            scan.torn.as_ref().map(|t| &t.reason),
            Some(&TornWriteReason::BadSegmentHeader)
        );
    }

    #[test]
    fn segment_sequence_gaps_stop_the_scan() {
        let mut writer =
            JournalWriter::new(Vec::new(), WireFormat::Binary, FsyncPolicy::Never).unwrap();
        writer.append_frame(TAG_DELTA, b"d").unwrap();
        let seg = writer.into_sink().unwrap();
        let segments = [
            SegmentRef {
                path: None,
                seq: Some(3),
                bytes: &seg,
            },
            SegmentRef {
                path: None,
                seq: Some(5),
                bytes: &seg,
            },
        ];
        let scan = scan_segments(&segments).unwrap();
        assert_eq!(scan.frames_recovered, 1, "frames before the gap survive");
        assert_eq!(
            scan.torn.as_ref().map(|t| &t.reason),
            Some(&TornWriteReason::SegmentGap {
                expected: 4,
                found: 5
            })
        );
    }
}
