//! The dependency-free LZ4-class block codec for document payloads.
//!
//! The binary struct encodings (see [`crate::binary`]) remove JSON's
//! framing overhead, but whole-checkpoint documents still carry large
//! repetitive sections — above all the recurring structure of
//! per-keyword columns.  Checkpoint *containers* run their payload
//! through this codec (struct-level encodings stay raw: compression is a
//! property of the durable document, not of the codec abstraction).
//! There is one format, written and read:
//!
//! [`BlockEncoder`] / [`decompress_block_into`].  An
//! LZ4-class format sized for a snapshot that sits in the per-quantum
//! latency path — encoding costs about what copying the bytes costs:
//!
//! * a varint with the uncompressed length, then *sequences*;
//! * a sequence is a token byte (high nibble: literal count, low nibble:
//!   match length − 4; a nibble of 15 is extended by following bytes,
//!   each adding 0–255, the run ending at the first byte below 255), the
//!   literals, a 2-byte little-endian match distance in `1..=65 535`, and
//!   the match-length extension bytes;
//! * the last sequence is literals only (its low nibble is 0) and ends
//!   exactly where the output reaches the declared length — the input
//!   must be exhausted there too.
//!
//! After the varint the stream is a standard LZ4 block.  The encoder is
//! greedy over one single-probe hash table of 6-byte prefixes and
//! lengthens its stride while it finds nothing, so incompressible runs
//! (min-hash sketches) cost a couple of nanoseconds per byte instead of
//! a probe per byte.  Its table is caller-owned scratch, reset at the
//! start of every stream, and a stream may be packed in slices over
//! several calls: **the output depends only on the input**, however it
//! is sliced, which the bit-identical checkpoint suites rely on.
//!
//! The decoder validates every token against the declared output
//! length, never indexes past either buffer, and bounds what a hostile
//! length prefix can make it allocate: truncated or corrupted streams
//! fail with a [`JsonError`], never a panic.

use crate::binary::{BinReader, BinWriter};
use crate::{JsonError, Result};

fn fail(message: &str, offset: usize) -> JsonError {
    JsonError {
        message: message.into(),
        offset,
    }
}

// ---------------------------------------------------------------------------
// Block format
// ---------------------------------------------------------------------------

/// Shortest match the block format can express.
const MIN_MATCH: usize = 4;
/// Largest match distance (a 2-byte field; 0 is invalid).
const MAX_DISTANCE: usize = 65_535;
/// LZ4's end-of-block rules, kept so the stream stays a standard block:
/// the last `LAST_LITERALS` bytes are always literals and no match
/// starts within the last `MATCH_START_MARGIN` bytes.
const LAST_LITERALS: usize = 5;
const MATCH_START_MARGIN: usize = 12;
/// Entries of the encoder's hash table (2^13 `u32` positions = 32 KB,
/// which stays in L1) and bytes of input that select an entry.  Both
/// picked by measurement on a 508 KB checkpoint body — time relative to
/// the first row, ≈ 1.0 ms there; the LZSS container this replaces
/// weighed 323 891 bytes.  That body still carried the stream's
/// vocabulary as a word list, whose short repeated fragments make many
/// short sequences; bodies no longer do, and the table was not
/// re-measured on one without it:
///
/// | table | hashed bytes | time | packed bytes | sequences |
/// |---|---|---|---|---|
/// | 2^13 | 4 | 1.00 | 322 236 | 39 678 |
/// | 2^14 | 4 | 1.15 | 319 470 | |
/// | 2^15 | 4 | 1.45 | 318 192 | |
/// | 2^13 | 5 | 0.95 | 322 687 | 26 860 |
/// | **2^13** | **6** | **0.82** | **333 309** | **18 913** |
/// | 2^14 | 6 | 1.09 | 326 691 | |
/// | 2^13 | 7 | 0.66 | 354 519 | 12 107 |
///
/// The body is mostly sorted varint columns, where a 4- or 5-byte match
/// is a coincidence that saves a byte or two and costs a whole sequence
/// (40 000 of them at a mean match of 7.8 bytes); selecting entries by 6
/// bytes finds the matches that pay and halves the sequence count.  A
/// snapshot sits in a quantum's latency, its bytes only in the page
/// cache, so this takes the fastest row whose output stays within 1.05×
/// of what the container used to weigh.  (The format's shortest match is
/// still 4: a candidate is verified on 4 bytes and extended from there.)
const HASH_BITS: u32 = 13;
const HASH_BYTES: u32 = 6;
/// Every `1 << SKIP_TRIGGER` consecutive misses lengthen the encoder's
/// stride by one byte.
const SKIP_TRIGGER: u32 = 6;

#[expect(clippy::expect_used, reason = "a four-byte slice converts to [u8; 4]")]
fn read_u32(input: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(
        input[at..at + 4]
            .try_into()
            .expect("a four-byte slice converts to [u8; 4]"),
    )
}

#[expect(
    clippy::expect_used,
    reason = "an eight-byte slice converts to [u8; 8]"
)]
fn read_u64(input: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(
        input[at..at + 8]
            .try_into()
            .expect("an eight-byte slice converts to [u8; 8]"),
    )
}

/// Hashes the low [`HASH_BYTES`] bytes of `sequence` (eight input bytes,
/// little-endian) to a table index.
fn hash(sequence: u64) -> usize {
    ((sequence << (64 - 8 * HASH_BYTES)).wrapping_mul(889_523_592_379) >> (64 - HASH_BITS)) as usize
}

/// Length of the common prefix of `input[a..]` and `input[b..limit]`
/// (`a < b`), compared eight bytes at a time.
fn common_prefix(input: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let mut n = 0;
    while b + n + 8 <= limit {
        let diff = read_u64(input, a + n) ^ read_u64(input, b + n);
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    while b + n < limit && input[a + n] == input[b + n] {
        n += 1;
    }
    n
}

/// Appends the extension bytes of a length field whose nibble was 15.
fn push_length_extension(out: &mut Vec<u8>, mut rest: usize) {
    while rest >= 255 {
        out.push(255);
        rest -= 255;
    }
    out.push(rest as u8);
}

/// Appends one sequence: `literals`, then (if `matched` is given) a
/// match of `(distance, length)`.
fn push_sequence(out: &mut Vec<u8>, literals: &[u8], matched: Option<(usize, usize)>) {
    let literal_nibble = literals.len().min(15);
    let match_code = matched.map_or(0, |(_, length)| length - MIN_MATCH);
    out.push(((literal_nibble as u8) << 4) | match_code.min(15) as u8);
    if literal_nibble == 15 {
        push_length_extension(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if let Some((distance, _)) = matched {
        out.extend_from_slice(&(distance as u16).to_le_bytes());
        if match_code >= 15 {
            push_length_extension(out, match_code - 15);
        }
    }
}

/// Entries of the encoder's hash table.
const TABLE_LEN: usize = 1 << HASH_BITS;
/// The encoder's table at the start of a stream, copied over it as one
/// block (in an unoptimised build, `fill` or `resize` is an element
/// loop: the test suites pack tens of thousands of tiny checkpoints).
static EMPTY_TABLE: [u32; TABLE_LEN] = [0; TABLE_LEN];

/// The block-format encoder: the hash table it searches with, kept
/// between streams so a journal's periodic snapshots, and a thread's
/// standalone checkpoints, do not allocate it again, plus the cursor of
/// the stream it is packing.
///
/// A stream is packed by [`Self::begin`], which zeroes the table, and
/// then [`Self::pack_until`] calls that each stop at the first sequence
/// boundary at or past a given input offset, so one stream can be packed
/// in slices spread over several calls, or in one call to its end.
/// However the stream is sliced, the output is the same bytes, and they
/// depend only on the input.
#[derive(Debug, Default)]
pub struct BlockEncoder {
    /// Most recent position of each hashed prefix.
    table: Vec<u32>,
    /// Everything before `anchor` has been emitted; the next sequence's
    /// match search starts at `pos`.  `None` once the stream is complete.
    cursor: Option<(usize, usize)>,
}

impl BlockEncoder {
    /// Creates an encoder; the table is allocated on first use.
    pub const fn new() -> Self {
        Self {
            table: Vec::new(),
            cursor: None,
        }
    }

    /// Starts packing `input`: appends the stream's length prefix to
    /// `out` and resets the table.  Returns `false`, appending nothing,
    /// when `input` is longer than `u32::MAX` bytes (the table holds
    /// 32-bit positions; the caller stores such a body raw).  Every later
    /// [`Self::pack_until`] of this stream must be given the same `input`
    /// and the same `out`, unchanged in between.
    pub fn begin(&mut self, input: &[u8], out: &mut Vec<u8>) -> bool {
        if u32::try_from(input.len()).is_err() {
            return false;
        }
        let mut header = BinWriter::from_vec(std::mem::take(out));
        header.usize(input.len());
        *out = header.into_bytes();
        self.table.clear();
        self.table.extend_from_slice(&EMPTY_TABLE);
        self.cursor = Some((0, 1));
        if input.len() > MATCH_START_MARGIN {
            // Position 0 can only ever be a candidate; the scan starts at
            // 1, so a candidate always lies strictly before the cursor
            // (an empty slot reads as position 0 and is verified like any
            // other candidate).
            self.table[hash(read_u64(input, 0))] = 0;
        }
        true
    }

    /// Emits sequences of the stream [`Self::begin`] started until the
    /// cursor reaches input offset `until` — the last sequence may run
    /// past it — or the input is exhausted, in which case the closing
    /// literals are emitted too.  Returns `true` once the stream is
    /// complete; an `until` of `input.len()` always completes it.
    #[expect(
        clippy::expect_used,
        reason = "`begin` sizes the table before a cursor exists"
    )]
    pub fn pack_until(&mut self, input: &[u8], until: usize, out: &mut Vec<u8>) -> bool {
        let Some((mut anchor, mut pos)) = self.cursor else {
            return true;
        };
        // A fixed-size view: the hashed indices need no bounds checks.
        let table: &mut [u32; TABLE_LEN] = self
            .table
            .as_mut_slice()
            .try_into()
            .expect("`begin` sizes the table before a cursor exists");
        if input.len() > MATCH_START_MARGIN {
            let last_start = input.len() - MATCH_START_MARGIN;
            let match_limit = input.len() - LAST_LITERALS;
            'sequences: loop {
                if pos >= until {
                    self.cursor = Some((anchor, pos));
                    return false;
                }
                let mut misses = 1usize << SKIP_TRIGGER;
                let mut candidate;
                loop {
                    if pos > last_start {
                        break 'sequences;
                    }
                    let sequence = read_u64(input, pos);
                    let slot = &mut table[hash(sequence)];
                    candidate = *slot as usize;
                    *slot = pos as u32;
                    if pos - candidate <= MAX_DISTANCE
                        && read_u32(input, candidate) == sequence as u32
                    {
                        break;
                    }
                    pos += misses >> SKIP_TRIGGER;
                    misses += 1;
                }
                while pos > anchor && candidate > 0 && input[pos - 1] == input[candidate - 1] {
                    pos -= 1;
                    candidate -= 1;
                }
                let length = MIN_MATCH
                    + common_prefix(input, candidate + MIN_MATCH, pos + MIN_MATCH, match_limit);
                push_sequence(out, &input[anchor..pos], Some((pos - candidate, length)));
                pos += length;
                anchor = pos;
                if pos > last_start {
                    break;
                }
                // Index a position inside the match so the next search
                // can refer back into it.
                table[hash(read_u64(input, pos - 2))] = (pos - 2) as u32;
            }
        }
        push_sequence(out, &input[anchor..], None);
        self.cursor = None;
        true
    }
}

/// Reads a length field: the token's `nibble`, extended by a run of
/// bytes when it is 15.  `limit` is the most the field may legitimately
/// say (the output bytes still missing); anything larger is an error,
/// raised as soon as the running sum passes it, so a long run of 255s
/// cannot overflow.
fn read_length(input: &[u8], pos: &mut usize, nibble: u8, limit: usize) -> Result<usize> {
    let mut length = nibble as usize;
    if nibble == 15 {
        while length <= limit {
            let &byte = input
                .get(*pos)
                .ok_or_else(|| fail("truncated block length extension", *pos))?;
            *pos += 1;
            length += byte as usize;
            if byte != 255 {
                break;
            }
        }
    }
    if length > limit {
        return Err(fail("block sequence overruns declared length", *pos));
    }
    Ok(length)
}

/// Decompresses a block-format stream (see the module docs) into `out`,
/// which is cleared first.  On error `out` holds whatever prefix was
/// decoded.
///
/// `out`'s capacity starts at `min(declared length, 8 × input.len())`
/// and grows only as decoded tokens pay for it — the format's legitimate
/// ratio reaches 255:1, so the declared length alone is never trusted
/// with an allocation.
pub fn decompress_block_into(input: &[u8], out: &mut Vec<u8>) -> Result<()> {
    out.clear();
    let mut header = BinReader::new(input);
    let expected = header.usize()?;
    let mut pos = header.pos();
    if expected > input.len().saturating_mul(8) {
        out.reserve(input.len().saturating_mul(8));
    } else {
        out.reserve(expected);
    }
    loop {
        let &token = input
            .get(pos)
            .ok_or_else(|| fail("truncated block stream", pos))?;
        pos += 1;
        let literals = read_length(input, &mut pos, token >> 4, expected - out.len())?;
        let run = input
            .get(pos..)
            .and_then(|rest| rest.get(..literals))
            .ok_or_else(|| fail("truncated block literals", pos))?;
        out.extend_from_slice(run);
        pos += literals;
        if out.len() == expected {
            if token & 0x0F != 0 {
                return Err(fail("block stream ends in a match token", pos));
            }
            break;
        }
        let distance = match input.get(pos..).and_then(|rest| rest.get(..2)) {
            Some(&[low, high]) => usize::from(u16::from_le_bytes([low, high])),
            _ => return Err(fail("truncated block match distance", pos)),
        };
        pos += 2;
        if distance == 0 || distance > out.len() {
            return Err(fail("block match before start of output", pos));
        }
        let limit = (expected - out.len())
            .checked_sub(MIN_MATCH)
            .ok_or_else(|| fail("block sequence overruns declared length", pos))?;
        let length = read_length(input, &mut pos, token & 0x0F, limit)? + MIN_MATCH;
        // Overlapping matches copy forward: each pass copies what is
        // already there, doubling the available run.
        let start = out.len() - distance;
        out.reserve(length);
        let mut remaining = length;
        while remaining > 0 {
            let chunk = remaining.min(out.len() - start);
            out.extend_from_within(start..start + chunk);
            remaining -= chunk;
        }
    }
    if pos != input.len() {
        return Err(fail("trailing bytes after block stream", pos));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Packs `input` to its end in one call.
    fn pack(encoder: &mut BlockEncoder, input: &[u8], out: &mut Vec<u8>) {
        assert!(encoder.begin(input, out) && encoder.pack_until(input, input.len(), out));
    }

    fn compress_block(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        pack(&mut BlockEncoder::new(), input, &mut out);
        out
    }

    fn decompress_block(input: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        decompress_block_into(input, &mut out).map(|()| out)
    }

    /// Round-trips `input` through the block format.
    fn round_trip(input: &[u8]) {
        let packed = compress_block(input);
        assert_eq!(decompress_block(&packed).expect("block decodes"), input);
    }

    fn xorshift_bytes(n: usize) -> Vec<u8> {
        let mut x = 0x9E3779B97F4A7C15u64;
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
    fn round_trips_edge_cases() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"abc");
        round_trip(&[0u8; 1000]);
        round_trip(b"abcabcabcabcabcabc");
        for n in 0..40 {
            round_trip(&b"abcdabcdabcdabcdabcdabcdabcdabcdabcdabcd"[..n]);
        }
    }

    #[test]
    fn round_trips_text_and_shrinks_it() {
        let text = "the quick brown fox jumps over the lazy dog ".repeat(100);
        let packed = compress_block(text.as_bytes());
        assert!(packed.len() < text.len() / 20, "got {}", packed.len());
        round_trip(text.as_bytes());
    }

    #[test]
    fn round_trips_incompressible_data_with_bounded_overhead() {
        // A xorshift stream: no repeats to speak of.
        let data = xorshift_bytes(10_000);
        // One extension byte per 255 literals, plus token and length.
        assert!(compress_block(&data).len() <= data.len() + data.len() / 255 + 16);
        round_trip(&data);
    }

    #[test]
    fn round_trips_long_runs_and_overlapping_matches() {
        let mut data = Vec::new();
        for i in 0..50u8 {
            data.extend(std::iter::repeat_n(i, 100));
        }
        round_trip(&data);
        // Distances larger than the window force literals; still
        // correct.
        let mut far = vec![7u8; 10];
        far.extend(xorshift_bytes(MAX_DISTANCE + 100));
        far.extend(vec![7u8; 10]);
        round_trip(&far);
    }

    #[test]
    fn the_encoder_is_a_pure_function_of_its_input() {
        let text = "snapshot after snapshot after snapshot ".repeat(40);
        let fresh = compress_block(text.as_bytes());
        let mut encoder = BlockEncoder::new();
        let mut out = Vec::new();
        pack(&mut encoder, &xorshift_bytes(5_000), &mut out);
        out.clear();
        pack(&mut encoder, text.as_bytes(), &mut out);
        assert_eq!(out, fresh, "a used table must not change the output");
        // Appends after whatever the caller already wrote.
        let mut out = b"prefix".to_vec();
        pack(&mut encoder, text.as_bytes(), &mut out);
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(&out[6..], fresh);
    }

    #[test]
    fn block_rejects_corrupted_streams() {
        let packed = compress_block(b"hello hello hello hello hello hello");
        assert!(packed.len() < 35, "the fixture must contain a match");
        for cut in 0..packed.len() {
            assert!(
                decompress_block(&packed[..cut]).is_err(),
                "cut {cut} accepted"
            );
        }
        let mut bad = packed.clone();
        bad.push(0);
        assert!(decompress_block(&bad).is_err());
        // Distance 0, and a distance beyond the output so far.
        assert!(decompress_block(&[8, 0x10, b'a', 0, 0, 0x00]).is_err());
        assert!(decompress_block(&[8, 0x10, b'a', 2, 0, 0x00]).is_err());
        // The same shape with distance 1 is a run of eight 'a's … which
        // still needs its closing literals-only sequence.
        assert!(decompress_block(&[8, 0x13, b'a', 1, 0]).is_err());
        assert_eq!(
            decompress_block(&[8, 0x13, b'a', 1, 0, 0x00]).expect("valid stream"),
            b"aaaaaaaa"
        );
        // A closing sequence must not carry a match length.
        assert!(decompress_block(&[1, 0x11, b'a']).is_err());
    }

    #[test]
    fn block_length_prefix_cannot_buy_an_allocation() {
        for declared in [u64::MAX, 1 << 40] {
            let mut w = BinWriter::new();
            w.u64(declared);
            let prefix = w.into_bytes();
            // Sixteen literals and a 529-byte run of them, then nothing;
            // and the same with the run's length cut off mid-extension.
            for tail in [&[1u8, 0, 255, 255, 0][..], &[1, 0, 255, 255, 255]] {
                let mut bad = prefix.clone();
                bad.extend_from_slice(&[0xFF, 1]);
                bad.extend_from_slice(&[b'x'; 16]);
                bad.extend_from_slice(tail);
                let mut out = Vec::new();
                assert!(decompress_block_into(&bad, &mut out).is_err());
                assert!(
                    out.capacity() <= 255 * bad.len(),
                    "declared {declared}: capacity {} for {} input bytes",
                    out.capacity(),
                    bad.len()
                );
            }
            // The bare length prefix (ten bytes for `u64::MAX`).
            let mut out = Vec::new();
            assert!(decompress_block_into(&prefix, &mut out).is_err());
            assert!(out.capacity() <= 8 * prefix.len());
        }
    }
}
