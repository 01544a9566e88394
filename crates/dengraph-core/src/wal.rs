//! The durable write-ahead journal: segmented, checksummed, crash-safe.
//!
//! [`CheckpointJournal`](crate::checkpoint::CheckpointJournal) makes
//! per-quantum durability *cheap* (O(Δ) delta frames between snapshot
//! rebases) and decides what to append; this module is where the frames
//! live — one sequential, append-only log on disk, so a crash loses at
//! most the quanta the [`FsyncPolicy`] leaves unsynced:
//!
//! * `SegmentedJournal` (crate-internal, driven by `CheckpointJournal`)
//!   writes frames with the CRC-32 length framing of
//!   [`dengraph_json::frame`], under a configurable [`FsyncPolicy`].  A
//!   frame reaches the file as **one** `write_all` of header + payload,
//!   assembled by the journal in its own buffer, so no frame is ever
//!   half-issued between two calls and a quantum costs one syscall.  It
//!   rotates the log across `seg-NNNNNNNN.dgj` files at a byte
//!   threshold and compacts the segments a restore from the latest
//!   durable snapshot does not read — whenever a rebase writes its
//!   snapshot under the policies that sync, and at the caller's explicit
//!   sync under [`FsyncPolicy::Never`], after first syncing the closed
//!   segments that policy's rotations left in the page cache.  A segment
//!   file's creation and a compaction's unlinks are made durable by
//!   syncing the directory itself (see `SegmentedJournal`);
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
//! segment = D6 'D' 'G' 'J'  version  01  frame*
//! frame   = tag(1)  payload-len u32-LE(4)  crc32 u32-LE(4)  payload
//! ```
//!
//! Every segment is self-describing (own header).  The header's last
//! byte, `01`, says the payloads are binary; it is the only value written
//! or read (`00` marked the retired JSON journals).  Frames carry tag
//! `01` (snapshot: a complete binary checkpoint document) or `02` (delta:
//! a [`DeltaRecord`]).  Every quantum writes one delta frame; a rebase's
//! snapshot of quantum `Q` is written a few quanta later, behind the
//! deltas of the quanta its packing spanned, and before the frame of the
//! next rebase (see [`crate::checkpoint`], "The append path"):
//!
//! ```text
//! … [delta Q] [delta Q+1] … [delta Q+spread] [snapshot of Q] [delta Q+spread+1] …
//! ```
//!
//! Recovery restores the latest complete snapshot and replays the delta
//! frames of the quanta after it, wherever they sit in the log: it keeps
//! the deltas from the frame of the snapshot before it on, and skips
//! those of earlier quanta on their record index, the payload's first
//! varint.  A journal's opening snapshot is the first frame of the
//! segment the journal opens, and no other snapshot frame ever opens a
//! segment (only a delta frame rotates), so a snapshot at a segment's
//! start adopts no earlier delta: a directory that still holds another
//! history's segments when a journal opens there (a crash before the
//! opening compaction) never has those deltas replayed onto the new
//! state.  Compaction deletes only segments *strictly before* the one
//! holding the delta of the quantum after the latest durable snapshot's,
//! so it never changes what a restore produces.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use dengraph_json::frame::{FrameEvent, FrameScanner, TornReason};
use dengraph_json::{BinReader, BinWriter, JsonError};

use crate::checkpoint::{decode_checkpoint_document, DeltaRecord, TAG_DELTA, TAG_SNAPSHOT};
use crate::detector::EventDetector;
use crate::session::RestoreError;

/// Magic prefix of every journal segment.  Starts with the binary sniff
/// byte `0xD6`, which no JSON document can begin with.
pub(crate) const JOURNAL_MAGIC: [u8; 4] =
    [dengraph_json::codec::BINARY_MAGIC_BYTE, b'D', b'G', b'J'];

/// Version of the journal container layout.  Version 2 introduced the
/// checksummed fixed-width framing (version 1, a varint framing, never
/// reached disk and is not read back).
pub(crate) const JOURNAL_VERSION: u64 = 2;

/// The segment header's last byte: binary snapshot and delta payloads.
const BINARY_PAYLOADS: u8 = 1;

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
// Segment header
// ---------------------------------------------------------------------------

/// Encodes the 6-byte segment header: magic, container version, `01`.
/// Every segment file starts with it.
pub(crate) fn segment_header() -> Vec<u8> {
    let mut w = BinWriter::new();
    w.raw(&JOURNAL_MAGIC);
    w.u64(JOURNAL_VERSION);
    w.byte(BINARY_PAYLOADS);
    w.into_bytes()
}

/// Parses a segment header, returning its length in bytes.
fn parse_segment_header(bytes: &[u8]) -> Result<usize, JsonError> {
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
    let format = r.byte()?;
    if format != BINARY_PAYLOADS {
        return Err(JsonError {
            message: format!(
                "unsupported journal format byte {format:02x} (only 01, binary payloads, is read)"
            ),
            offset: r.pos() - 1,
        });
    }
    Ok(r.pos())
}

// ---------------------------------------------------------------------------
// Durable configuration
// ---------------------------------------------------------------------------

/// Configuration of a durable (file-backed) journal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurableJournalConfig {
    /// Quanta between consecutive rebases: the quantum after this many
    /// encodes a snapshot, packed over the next `spread` quanta
    /// (`rebase_every / 2`, at most 8 and at least 1) and written behind
    /// the last of their delta frames.  The journal grows by one snapshot
    /// per `rebase_every + 1` quanta, and a restore replays at most
    /// `rebase_every + spread + 1` deltas (a crash before a snapshot's
    /// frame is written replays from the one before).  Clamped to at
    /// least 1.
    pub rebase_every: u32,
    /// When appended frames are forced to stable storage.
    pub fsync: FsyncPolicy,
    /// Byte threshold at which the journal rotates to a fresh segment
    /// file, before the next delta frame: a rebase's snapshot frame stays
    /// in the segment of the delta before it.  A segment always holds at
    /// least one frame, so a threshold smaller than a frame degenerates
    /// to one delta frame per segment.
    pub segment_bytes: u64,
}

impl Default for DurableJournalConfig {
    /// A rebase after every 64 quanta, fsync on every frame, 8 MiB segments.
    fn default() -> Self {
        Self {
            rebase_every: 64,
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

/// Makes `dir`'s entries durable: POSIX persists a file's creation or
/// unlink only once the directory itself is fsynced.  A no-op where a
/// directory cannot be opened for syncing.
fn sync_dir(dir: &Path) -> io::Result<()> {
    if cfg!(unix) {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// The file-backed, rotating, compacting journal backend.
///
/// Owned by a durable
/// [`CheckpointJournal`](crate::checkpoint::CheckpointJournal), which
/// decides *what* to append and *when* to compact; this type owns the
/// *where*: the current segment writer, rotation at the byte threshold,
/// and deletion of segments behind the latest snapshot.
///
/// A new segment's directory entry is synced wherever its data is: at
/// [`Self::create`], at a rotation under a policy that syncs, and
/// otherwise at the next [`Self::sync`].  [`Self::compact`] syncs the
/// directory after its unlinks.
#[derive(Debug)]
pub(crate) struct SegmentedJournal {
    dir: PathBuf,
    fsync: FsyncPolicy,
    segment_bytes: u64,
    /// The live segment.
    file: File,
    /// Bytes written to the live segment, its header included.
    bytes_in_segment: u64,
    current_seq: u64,
    frames_in_segment: u64,
    /// Frames appended since the live segment was last synced.
    frames_since_sync: u32,
    /// The first segment a restore from the most recently appended
    /// snapshot reads: the one holding the delta frame of the quantum
    /// after the snapshot's, or the snapshot's own when no such delta
    /// precedes it.  Compaction keeps every segment from here on.
    restore_from_seq: u64,
    /// Every closed segment numbered below this is on stable storage.
    /// [`Self::rotate`] skips the old segment's fsync under
    /// [`FsyncPolicy::Never`], so closed segments from here up to the
    /// live one may still sit in the page cache.
    synced_before: u64,
    /// Every segment created so far has a durable directory entry
    /// (false after a [`FsyncPolicy::Never`] rotation until [`Self::sync`]).
    dir_synced: bool,
}

impl SegmentedJournal {
    /// Creates the journal directory (if needed) and opens a fresh
    /// segment numbered after any segments already present — existing
    /// segments are never appended to or truncated.
    pub(crate) fn create(dir: &Path, fsync: FsyncPolicy, segment_bytes: u64) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let next_seq = list_segments(dir)?.last().map_or(1, |(seq, _)| seq + 1);
        let (file, bytes_in_segment) = Self::open_segment(dir, next_seq)?;
        sync_dir(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            fsync,
            segment_bytes: segment_bytes.max(1),
            file,
            bytes_in_segment,
            current_seq: next_seq,
            frames_in_segment: 0,
            frames_since_sync: 0,
            restore_from_seq: next_seq,
            synced_before: next_seq,
            dir_synced: true,
        })
    }

    /// Creates segment `seq` and writes its header; returns the file and
    /// its length so far.
    fn open_segment(dir: &Path, seq: u64) -> io::Result<(File, u64)> {
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(segment_path(dir, seq))?;
        let header = segment_header();
        file.write_all(&header)?;
        Ok((file, header.len() as u64))
    }

    /// Appends one frame the caller assembled (header and payload
    /// contiguous, see [`dengraph_json::frame::finish_frame`]) as **one**
    /// `write_all`, so a frame is never half-issued between two calls
    /// into the file, and fsyncs if the policy says the frame count since
    /// the last sync is due.  Rotates to a fresh segment first when the
    /// current one has reached the byte threshold and `frame` is a delta
    /// (a segment always receives at least one frame, so rotation lands
    /// exactly on frame boundaries).  A snapshot frame goes to the
    /// segment of the frame before it, so only a journal's opening
    /// snapshot, written to the segment [`Self::create`] opens, is a
    /// segment's first frame: recovery tells it from a rebase's by that.
    pub(crate) fn append_assembled(&mut self, frame: &[u8]) -> io::Result<()> {
        if self.bytes_in_segment >= self.segment_bytes
            && self.frames_in_segment > 0
            && frame.first() == Some(&TAG_DELTA)
        {
            self.rotate()?;
        }
        self.file.write_all(frame)?;
        self.bytes_in_segment += frame.len() as u64;
        self.frames_since_sync += 1;
        if self.fsync.due(self.frames_since_sync) {
            self.sync_file()?;
        }
        self.frames_in_segment += 1;
        Ok(())
    }

    /// Records, after a snapshot frame's append, the first segment a
    /// restore from that snapshot reads (see `restore_from_seq`).
    pub(crate) fn set_restore_from(&mut self, seq: u64) {
        self.restore_from_seq = seq;
    }

    /// Forces the live segment's frames to stable storage.
    fn sync_file(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.frames_since_sync = 0;
        Ok(())
    }

    /// Closes the current segment and opens the next one.  Unless the
    /// policy is [`FsyncPolicy::Never`], the closed segment and the new
    /// directory entry are synced first.
    fn rotate(&mut self) -> io::Result<()> {
        let next = self.current_seq + 1;
        let syncing = self.fsync != FsyncPolicy::Never;
        if syncing {
            self.sync_file()?;
            self.synced_before = next;
        }
        (self.file, self.bytes_in_segment) = Self::open_segment(&self.dir, next)?;
        self.current_seq = next;
        self.frames_in_segment = 0;
        self.frames_since_sync = 0;
        self.dir_synced = false;
        if syncing {
            self.sync_dir()?;
        }
        Ok(())
    }

    fn sync_dir(&mut self) -> io::Result<()> {
        sync_dir(&self.dir)?;
        self.dir_synced = true;
        Ok(())
    }

    /// Forces everything appended so far to stable storage: the closed
    /// segments a [`FsyncPolicy::Never`] rotation left un-synced — those
    /// a restore from the latest snapshot reads; anything older is dead
    /// weight — then the live one, then the directory if a segment was
    /// created since it was last synced.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        for seq in self.synced_before.max(self.restore_from_seq)..self.current_seq {
            OpenOptions::new()
                .write(true)
                .open(segment_path(&self.dir, seq))?
                .sync_data()?;
        }
        self.sync_file()?;
        self.synced_before = self.current_seq;
        if !self.dir_synced {
            self.sync_dir()?;
        }
        Ok(())
    }

    /// Deletes every segment strictly before the first one a restore from
    /// the latest snapshot reads (see `restore_from_seq`): the one holding
    /// the delta after the snapshot's quantum, which may precede the
    /// snapshot's own.  The caller must have made that snapshot durable
    /// first with [`Self::sync`] (compaction after an unsynced snapshot could
    /// leave the journal with no complete snapshot on disk after a
    /// crash).  The directory is synced after any unlink.  Returns the
    /// number of segments removed.
    pub(crate) fn compact(&mut self) -> io::Result<usize> {
        let mut removed = 0;
        for (seq, path) in list_segments(&self.dir)? {
            if seq < self.restore_from_seq {
                fs::remove_file(&path)?;
                removed += 1;
            }
        }
        if removed > 0 {
            self.sync_dir()?;
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
    /// A non-first segment's own header is missing, malformed or of an
    /// unsupported format (e.g. a crash between creating the file and
    /// writing its header).
    BadSegmentHeader,
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
    /// The segment file containing the tear (`None` when one segment's
    /// bytes were restored without a path).
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
    header_len: usize,
    scanner: FrameScanner<'a>,
}

impl<'a> JournalReader<'a> {
    /// Parses the segment header of `segment` and positions the reader at
    /// its first frame.  A missing or malformed header, or a format byte
    /// other than `01`, is a hard error — such bytes are not a journal
    /// segment this version reads.
    pub fn new(segment: &'a [u8]) -> Result<Self, JsonError> {
        let header_len = parse_segment_header(segment)?;
        Ok(Self {
            header_len,
            scanner: FrameScanner::new(&segment[header_len..]),
        })
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
/// delta frames a restore from it may need, and where (if anywhere) the
/// scan tore off.
struct ScannedJournal<'a> {
    snapshot: Option<&'a [u8]>,
    /// Every delta payload from the frame of the snapshot before
    /// `snapshot` on (from the scan's start if there is none): a rebase
    /// writes its snapshot frame behind the deltas of the quanta its
    /// packing spans, so the deltas that continue a snapshot may precede
    /// its frame, but never the frame of the snapshot before it.  Only
    /// those after `snapshot` when its frame opens a segment (a
    /// journal's opening snapshot, module docs).
    deltas: Vec<&'a [u8]>,
    /// How many of `deltas` precede the `snapshot` frame.
    before_snapshot: usize,
    segments_scanned: usize,
    frames_recovered: usize,
    torn: Option<TornWrite>,
}

/// Scans `segments` (in sequence order) up to the first torn write.
/// Only the *first* segment's header is load-bearing — if it is
/// malformed the bytes are not a journal and the scan fails hard; any
/// later segment that fails to validate (bad header, sequence gap) is
/// treated as the torn tail instead.
fn scan_segments<'a>(segments: &[SegmentRef<'a>]) -> Result<ScannedJournal<'a>, RestoreError> {
    if segments.is_empty() {
        return Err(RestoreError::Io(
            "journal directory contains no segment files".to_string(),
        ));
    }
    let mut scan = ScannedJournal {
        snapshot: None,
        deltas: Vec::new(),
        before_snapshot: 0,
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
        scan.segments_scanned += 1;
        let mut opens_segment = true;
        let segment_torn = loop {
            let frame = reader.next_frame();
            let first = std::mem::replace(&mut opens_segment, false);
            match frame {
                JournalFrameEvent::Snapshot(payload) => {
                    scan.snapshot = Some(payload);
                    let stale = if first {
                        scan.deltas.len()
                    } else {
                        scan.before_snapshot
                    };
                    scan.deltas.drain(..stale);
                    scan.before_snapshot = scan.deltas.len();
                    scan.frames_recovered += 1;
                }
                JournalFrameEvent::Delta(payload) => {
                    scan.deltas.push(payload);
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

/// Decodes the scanned snapshot and replays, in log order, the delta
/// frames of the quanta after it; a delta of an earlier quantum is
/// skipped on its record index, the payload's first varint, without
/// being decoded.
fn replay(scan: &ScannedJournal<'_>) -> Result<(EventDetector, RecoveryReport), RestoreError> {
    let snapshot = scan.snapshot.ok_or_else(|| {
        RestoreError::Io("journal contains no snapshot frame to restore from".to_string())
    })?;
    let mut detector = decode_checkpoint_document(snapshot)?;
    let mut replayed = 0;
    for payload in &scan.deltas {
        if BinReader::new(payload).u64()? < detector.quanta_processed() {
            continue;
        }
        let record = DeltaRecord::decode(payload)?;
        detector.apply_delta_record(&record)?;
        replayed += 1;
    }
    let detector = detector.with_checked_outcomes(0)?;
    let report = RecoveryReport {
        segments_scanned: scan.segments_scanned,
        frames_recovered: scan.frames_recovered,
        deltas_replayed: replayed,
        recovered_quantum: detector.quanta_processed(),
        torn: scan.torn.clone(),
    };
    Ok((detector, report))
}

/// Recovers a detector from one segment file's bytes: the scan and
/// replay of [`restore_detector_from_dir`] without the file I/O.
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
    use dengraph_json::frame::encode_frame;

    /// A segment holding `frames`, laid out as the journal writes them.
    fn segment(frames: &[(u8, &[u8])]) -> Vec<u8> {
        let mut bytes = segment_header();
        for &(tag, payload) in frames {
            bytes.extend_from_slice(&encode_frame(tag, payload));
        }
        bytes
    }

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
        let bytes = segment(&[
            (TAG_SNAPSHOT, b"snapshot bytes"),
            (TAG_DELTA, b"delta 0"),
            (TAG_DELTA, b""),
        ]);
        let mut reader = JournalReader::new(&bytes).unwrap();
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
        let boundary = segment(&[(TAG_DELTA, b"ok")]).len();
        let bytes = segment(&[(TAG_DELTA, b"ok"), (99, b"from the future")]);
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
        // A valid single-frame segment; garbage and a segment in the
        // retired JSON format (header byte 00) as the others.
        let good = segment(&[(TAG_DELTA, b"d")]);
        let garbage = b"not a journal".to_vec();
        let mut json_format = good.clone();
        let format_at = segment_header().len() - 1;
        assert_eq!(json_format[format_at], BINARY_PAYLOADS);
        json_format[format_at] = 0;

        let err = JournalReader::new(&json_format).unwrap_err();
        assert!(err.message.contains("format byte 00"), "{}", err.message);
        for first in [&garbage, &json_format] {
            let only = [SegmentRef {
                path: None,
                seq: Some(1),
                bytes: first,
            }];
            assert!(matches!(scan_segments(&only), Err(RestoreError::Json(_))));
        }
        assert!(matches!(
            restore_detector_from_bytes(&json_format),
            Err(RestoreError::Json(e)) if e.message.contains("format byte 00")
        ));

        for later in [&garbage, &json_format] {
            let segments = [
                SegmentRef {
                    path: None,
                    seq: Some(1),
                    bytes: &good,
                },
                SegmentRef {
                    path: None,
                    seq: Some(2),
                    bytes: later,
                },
            ];
            let scan = scan_segments(&segments).unwrap();
            assert_eq!(scan.frames_recovered, 1);
            assert_eq!(
                scan.torn.as_ref().map(|t| &t.reason),
                Some(&TornWriteReason::BadSegmentHeader)
            );
        }
    }

    /// A snapshot frame adopts the deltas since the snapshot frame before
    /// it (a rebase's, packed over the quanta those deltas log) — unless
    /// it opens its segment, as only a journal's opening snapshot does:
    /// then the deltas before it are another history's, and none is kept.
    #[test]
    fn only_a_snapshot_inside_a_segment_adopts_the_deltas_before_it() {
        let old = segment(&[
            (TAG_SNAPSHOT, b"s1"),
            (TAG_DELTA, b"d1"),
            (TAG_DELTA, b"d2"),
        ]);
        let rebase = segment(&[
            (TAG_DELTA, b"d3"),
            (TAG_SNAPSHOT, b"s2"),
            (TAG_DELTA, b"d4"),
        ]);
        let opening = segment(&[(TAG_SNAPSHOT, b"s3"), (TAG_DELTA, b"d5")]);
        fn scan_of<'a>(parts: &[&'a [u8]]) -> (Option<&'a [u8]>, Vec<&'a [u8]>, usize) {
            let segments: Vec<SegmentRef<'a>> = parts
                .iter()
                .enumerate()
                .map(|(i, bytes)| SegmentRef {
                    path: None,
                    seq: Some(i as u64 + 1),
                    bytes,
                })
                .collect();
            let scan = scan_segments(&segments).unwrap();
            (scan.snapshot, scan.deltas, scan.before_snapshot)
        }
        let (snapshot, deltas, before) = scan_of(&[&old, &rebase]);
        assert_eq!(snapshot, Some(&b"s2"[..]));
        assert_eq!(deltas, [&b"d1"[..], b"d2", b"d3", b"d4"]);
        assert_eq!(before, 3);
        let (snapshot, deltas, before) = scan_of(&[&old, &opening]);
        assert_eq!(snapshot, Some(&b"s3"[..]));
        assert_eq!(deltas, [&b"d5"[..]]);
        assert_eq!(before, 0);
    }

    #[test]
    fn segment_sequence_gaps_stop_the_scan() {
        let seg = segment(&[(TAG_DELTA, b"d")]);
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

    /// When a new segment's directory entry counts as durable: at
    /// `create`, at a rotation under a policy that syncs, and under
    /// `Never` only from the next `sync`; `compact` syncs after unlinking.
    #[test]
    fn the_directory_is_synced_wherever_segment_data_is() {
        let dir =
            std::env::temp_dir().join(format!("dengraph-wal-dir-sync-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let snapshot = encode_frame(TAG_SNAPSHOT, &[7; 32]);
        let delta = encode_frame(TAG_DELTA, &[7; 32]);
        // A one-byte threshold rotates before every delta frame but a
        // segment's first.
        let mut every = SegmentedJournal::create(&dir, FsyncPolicy::EveryFrame, 1).unwrap();
        assert!(every.dir_synced, "create syncs the directory");
        every.append_assembled(&snapshot).unwrap();
        every.append_assembled(&delta).unwrap();
        assert_eq!(every.current_seq, 2);
        assert!(every.dir_synced, "an EveryFrame rotation syncs it");
        drop(every);
        fs::remove_dir_all(&dir).unwrap();

        let mut never = SegmentedJournal::create(&dir, FsyncPolicy::Never, 1).unwrap();
        assert!(
            never.dir_synced,
            "create syncs the directory under Never too"
        );
        never.append_assembled(&snapshot).unwrap();
        never.append_assembled(&delta).unwrap();
        assert_eq!(never.current_seq, 2);
        assert!(!never.dir_synced, "a Never rotation leaves it for sync()");
        never.sync().unwrap();
        assert!(never.dir_synced, "sync() catches up");

        never.append_assembled(&delta).unwrap();
        never.append_assembled(&snapshot).unwrap();
        assert_eq!(never.current_seq, 3, "a snapshot frame never rotates");
        never.set_restore_from(never.current_seq);
        assert!(!never.dir_synced);
        assert_eq!(
            never.compact().unwrap(),
            2,
            "segments 1 and 2 are behind the snapshot"
        );
        assert!(never.dir_synced, "compact() syncs after unlinking");
        drop(never);
        fs::remove_dir_all(&dir).unwrap();
    }
}
