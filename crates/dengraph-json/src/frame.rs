//! Checksummed length-prefixed frames: the unit of torn-write detection.
//!
//! A write-ahead journal is only as durable as its ability to tell a
//! *complete* frame from the debris of a crash mid-`write`: a frame whose
//! length prefix never finished, a payload cut short by a power failure,
//! or sectors persisted out of order so the tail bytes are garbage while
//! the length claims otherwise.  This module frames arbitrary payloads so
//! every one of those states is detectable:
//!
//! ```text
//! frame = tag(1) | payload_len u32-LE(4) | crc32 u32-LE(4) | payload
//! ```
//!
//! The CRC-32 (IEEE polynomial, the zlib/Ethernet one) covers the tag
//! byte and the payload, so a bit flip anywhere except the length prefix
//! is caught by the checksum and a corrupted length prefix is caught by
//! either the payload-length bound or the checksum of the mis-sliced
//! payload.  The length is fixed-width — unlike a varint, a partially
//! written prefix is detected structurally (fewer than
//! [`FRAME_HEADER_LEN`] bytes remain) instead of being misparsed.
//!
//! The checksum is computed by slicing-by-8 (eight 256-entry tables built
//! at compile time, eight input bytes per step): recovery checksums every
//! byte of a journal and a snapshot frame checksums a whole checkpoint
//! inside one quantum's latency, so the bytewise loop's eight dependent
//! lookups per eight bytes were a measurable share of both.
//!
//! A writer either frames a finished payload ([`frame_header`],
//! [`encode_frame`]) or assembles the frame in place — [`begin_frame`]
//! reserves the header in a reused buffer, the payload is encoded
//! straight behind it, [`finish_frame`] patches the header — and issues
//! the whole frame as one `write`.
//!
//! [`FrameScanner`] walks a byte region frame by frame and never fails
//! hard: a damaged or incomplete frame comes back as
//! [`FrameEvent::Torn`], leaving every frame before it intact — exactly
//! the contract crash recovery needs ("replay the durable prefix, drop
//! the torn tail").

/// Bytes of a frame header: tag (1) + length (4) + CRC-32 (4).
pub const FRAME_HEADER_LEN: usize = 9;

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

/// The reflected IEEE CRC-32 polynomial (zlib, PNG, Ethernet).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// The slicing-by-8 tables: `[0]` is the classic bytewise table, and
/// `[k][b]` is the CRC of byte `b` followed by `k` zero bytes — so eight
/// input bytes fold in one step of eight independent lookups instead of
/// eight dependent ones.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                CRC32_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// One bytewise CRC step.
fn crc32_step(c: u32, b: u8) -> u32 {
    CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
}

/// Incremental CRC-32 (IEEE) state, for checksums over discontiguous
/// inputs (a frame's tag byte followed by its payload slice).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the checksum: eight bytes per step (slicing by
    /// 8), the tail bytewise.  The value is independent of how the input
    /// is split across calls.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let mut c = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            c = crc32_step(c, b);
        }
        self.state = c;
    }

    /// Finishes the checksum, returning the CRC-32 value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// CRC-32 (IEEE) of a contiguous byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

// ---------------------------------------------------------------------------
// Frame encoding
// ---------------------------------------------------------------------------

/// Builds the 9-byte header framing `payload` under `tag`.  The caller
/// writes the header then the payload; together they form one frame.
///
/// # Panics
///
/// If the payload exceeds `u32::MAX` bytes (a frame that large could
/// never be validated in one read and has no legitimate producer here).
pub fn frame_header(tag: u8, payload: &[u8]) -> [u8; FRAME_HEADER_LEN] {
    let len = u32::try_from(payload.len()).expect("frame payload exceeds u32::MAX bytes");
    let mut crc = Crc32::new();
    crc.update(&[tag]);
    crc.update(payload);
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0] = tag;
    header[1..5].copy_from_slice(&len.to_le_bytes());
    header[5..9].copy_from_slice(&crc.finish().to_le_bytes());
    header
}

/// Starts assembling a frame in place: empties `buf` and reserves the
/// header's [`FRAME_HEADER_LEN`] bytes.  The caller appends the payload
/// and calls [`finish_frame`]; a reused `buf` keeps its capacity, so a
/// writer that owns one allocates nothing per frame once warm.
pub fn begin_frame(buf: &mut Vec<u8>) {
    buf.clear();
    buf.resize(FRAME_HEADER_LEN, 0);
}

/// Completes a frame started by [`begin_frame`]: checksums `tag` and the
/// payload behind the reserved bytes and patches the header in, leaving
/// `frame` as the exact bytes to hand to one `write`.
///
/// # Panics
///
/// If `frame` is shorter than a header (it did not come from
/// [`begin_frame`]), or the payload exceeds `u32::MAX` bytes.
pub fn finish_frame(tag: u8, frame: &mut [u8]) {
    let (header, payload) = frame.split_at_mut(FRAME_HEADER_LEN);
    header.copy_from_slice(&frame_header(tag, payload));
}

/// Encodes one complete frame (header + payload) as a fresh buffer.
pub fn encode_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    begin_frame(&mut out);
    out.extend_from_slice(payload);
    finish_frame(tag, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Frame scanning
// ---------------------------------------------------------------------------

/// Why a frame failed to validate during a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornReason {
    /// Fewer than [`FRAME_HEADER_LEN`] bytes remain: the header itself
    /// never finished writing.
    ShortHeader,
    /// The header's length prefix claims more payload bytes than remain:
    /// the payload write was cut off (or the prefix is corrupt).
    ShortPayload,
    /// Header and payload are present but the CRC-32 does not match:
    /// bytes were corrupted, or persisted out of order by the crash.
    BadChecksum,
}

impl std::fmt::Display for TornReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TornReason::ShortHeader => write!(f, "truncated frame header"),
            TornReason::ShortPayload => write!(f, "truncated frame payload"),
            TornReason::BadChecksum => write!(f, "frame checksum mismatch"),
        }
    }
}

/// One step of a [`FrameScanner`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameEvent<'a> {
    /// A complete, checksum-valid frame.
    Frame {
        /// The frame's tag byte.
        tag: u8,
        /// The frame's payload.
        payload: &'a [u8],
    },
    /// The region ended exactly on a frame boundary.
    End,
    /// The remaining bytes are not a valid frame.  `offset` is the
    /// region-relative position of the torn frame's first byte; every
    /// frame returned before this event is intact.
    Torn {
        /// Byte offset (into the scanned region) where the torn frame
        /// starts.
        offset: usize,
        /// What failed to validate.
        reason: TornReason,
    },
}

/// Walks a byte region frame by frame, stopping (without failing) at the
/// first torn frame.  See the module docs for the framing layout.
#[derive(Debug)]
pub struct FrameScanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> FrameScanner<'a> {
    /// Scans `bytes` from the start.  Callers scanning a container strip
    /// any container header first; the scanner sees only frames.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Current offset into the scanned region (the start of the next
    /// frame after a successful [`FrameEvent::Frame`]).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Validates and returns the next frame.  After [`FrameEvent::Torn`]
    /// the scanner does not advance: repeated calls return the same
    /// event.
    pub fn next_frame(&mut self) -> FrameEvent<'a> {
        let remaining = &self.bytes[self.pos..];
        if remaining.is_empty() {
            return FrameEvent::End;
        }
        if remaining.len() < FRAME_HEADER_LEN {
            return FrameEvent::Torn {
                offset: self.pos,
                reason: TornReason::ShortHeader,
            };
        }
        let tag = remaining[0];
        let len = u32::from_le_bytes(
            remaining[1..5]
                .try_into()
                .expect("header length checked against FRAME_HEADER_LEN above"),
        ) as usize;
        let want = u32::from_le_bytes(
            remaining[5..9]
                .try_into()
                .expect("header length checked against FRAME_HEADER_LEN above"),
        );
        if remaining.len() - FRAME_HEADER_LEN < len {
            return FrameEvent::Torn {
                offset: self.pos,
                reason: TornReason::ShortPayload,
            };
        }
        let payload = &remaining[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
        let mut crc = Crc32::new();
        crc.update(&[tag]);
        crc.update(payload);
        if crc.finish() != want {
            return FrameEvent::Torn {
                offset: self.pos,
                reason: TornReason::BadChecksum,
            };
        }
        self.pos += FRAME_HEADER_LEN + len;
        FrameEvent::Frame { tag, payload }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise loop slicing-by-8 replaced, kept as its reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(0xFFFF_FFFF, |c, &b| crc32_step(c, b))
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// A fixed xorshift byte stream.
    fn seeded_bytes(n: usize) -> Vec<u8> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_reference_on_a_megabyte() {
        let data = seeded_bytes(1 << 20);
        let want = crc32_bytewise(&data);
        assert_eq!(crc32(&data), want);
        // Fed in uneven pieces, so the 8-byte steps start at every
        // alignment.
        let mut crc = Crc32::new();
        let mut rest = &data[..];
        let mut piece = 1;
        while !rest.is_empty() {
            let (head, tail) = rest.split_at(piece.min(rest.len()));
            crc.update(head);
            rest = tail;
            piece = piece * 3 % 4099 + 1;
        }
        assert_eq!(crc.finish(), want);
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_reference_at_every_split() {
        // Every length 0..=64, every split point.
        let data = seeded_bytes(64);
        for len in 0..=data.len() {
            let want = crc32_bytewise(&data[..len]);
            for split in 0..=len {
                let mut crc = Crc32::new();
                crc.update(&data[..split]);
                crc.update(&data[split..len]);
                assert_eq!(crc.finish(), want, "length {len}, split at {split}");
            }
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut region = Vec::new();
        region.extend_from_slice(&encode_frame(1, b"alpha"));
        region.extend_from_slice(&encode_frame(2, b""));
        region.extend_from_slice(&encode_frame(7, &[0xD6; 300]));
        let mut scanner = FrameScanner::new(&region);
        assert_eq!(
            scanner.next_frame(),
            FrameEvent::Frame {
                tag: 1,
                payload: b"alpha"
            }
        );
        assert_eq!(
            scanner.next_frame(),
            FrameEvent::Frame {
                tag: 2,
                payload: b""
            }
        );
        assert!(matches!(
            scanner.next_frame(),
            FrameEvent::Frame { tag: 7, payload } if payload.len() == 300
        ));
        assert_eq!(scanner.next_frame(), FrameEvent::End);
        assert_eq!(scanner.pos(), region.len());
    }

    #[test]
    fn every_truncation_point_is_detected_and_keeps_the_prefix() {
        let frames: [(u8, &[u8]); 3] = [(1, b"first"), (2, b"second frame"), (1, b"x")];
        let mut region = Vec::new();
        let mut boundaries = vec![0usize];
        for (tag, payload) in frames {
            region.extend_from_slice(&encode_frame(tag, payload));
            boundaries.push(region.len());
        }
        for cut in 0..=region.len() {
            let mut scanner = FrameScanner::new(&region[..cut]);
            let mut complete = 0;
            let torn = loop {
                match scanner.next_frame() {
                    FrameEvent::Frame { .. } => complete += 1,
                    FrameEvent::End => break false,
                    FrameEvent::Torn { offset, .. } => {
                        // The torn frame starts at the last intact boundary.
                        assert_eq!(offset, boundaries[complete]);
                        break true;
                    }
                }
            };
            let expected = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(complete, expected, "cut at {cut}");
            assert_eq!(torn, !boundaries.contains(&cut), "cut at {cut}");
        }
    }

    #[test]
    fn corruption_anywhere_in_a_frame_is_detected() {
        let region = encode_frame(3, b"payload under test");
        for i in 0..region.len() {
            let mut bad = region.clone();
            bad[i] ^= 0x40;
            let mut scanner = FrameScanner::new(&bad);
            match scanner.next_frame() {
                FrameEvent::Torn { offset: 0, .. } => {}
                FrameEvent::Frame { .. } if i == 0 => {
                    panic!("tag flip accepted (crc must cover the tag)")
                }
                other => panic!("flip at {i} produced {other:?}"),
            }
        }
    }

    #[test]
    fn length_prefix_corruption_cannot_smuggle_a_frame() {
        // Grow the claimed length: either runs past the end (ShortPayload)
        // or mis-slices into the next frame's bytes (BadChecksum).
        let mut region = encode_frame(1, b"aaaa");
        region.extend_from_slice(&encode_frame(2, b"bbbb"));
        for claimed in 0..64u32 {
            let mut bad = region.clone();
            bad[1..5].copy_from_slice(&claimed.to_le_bytes());
            let mut scanner = FrameScanner::new(&bad);
            match scanner.next_frame() {
                FrameEvent::Frame { tag: 1, payload } => {
                    assert_eq!(payload, b"aaaa", "only the true length may validate");
                    assert_eq!(claimed, 4);
                }
                FrameEvent::Torn { .. } => assert_ne!(claimed, 4),
                other => panic!("claimed len {claimed} produced {other:?}"),
            }
        }
    }
}
