//! The compact binary wire format: primitive writers and readers.
//!
//! Checkpoints used to be JSON only; the binary format exists because the
//! dominant checkpoint payloads are *sorted dense integer columns* (the
//! flat user columns of quantum records, min-hash minima, keyword id
//! lists), which decimal text encodes at 2–10× the size of a
//! delta-then-varint encoding.  The format is deliberately primitive:
//!
//! * unsigned integers are LEB128 varints ([`BinWriter::u64`]);
//! * `f64` is its 8 raw little-endian IEEE bytes ([`BinWriter::f64`]) —
//!   bit-exact round trips, NaN payloads included;
//! * strings are length-prefixed UTF-8 ([`BinWriter::str`]);
//! * sorted integer columns are length-prefixed delta sequences
//!   ([`BinWriter::delta_u64s`]) — ascending runs of user ids or hash
//!   minima become runs of tiny varints.
//!
//! There is no per-field tagging and no self-description: the struct
//! codecs in each crate (see [`crate::codec`]) define the field order, and
//! a single format/version header at the checkpoint level versions the
//! whole document.  Decoders never trust a length prefix further than the
//! bytes actually remaining, so a truncated or corrupted document fails
//! with a [`JsonError`] instead of an abort or an absurd allocation.

use crate::{JsonError, Result};

/// Appends binary-format primitives to a growing byte buffer.
#[derive(Debug, Default)]
pub struct BinWriter {
    buf: Vec<u8>,
}

impl BinWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a caller's buffer: writes append after whatever it already
    /// holds, and [`Self::into_bytes`] hands it back — so a reused buffer
    /// keeps its capacity across documents.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Self { buf }
    }

    /// Empties the writer, keeping its capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The encoded bytes so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one raw byte.
    pub fn byte(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Writes raw bytes verbatim (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes an unsigned integer as a LEB128 varint (1 byte for values
    /// below 128, 10 bytes worst case).
    pub fn u64(&mut self, mut v: u64) {
        loop {
            let low = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(low);
                return;
            }
            self.buf.push(low | 0x80);
        }
    }

    /// Writes a `u32` as a varint.
    pub fn u32(&mut self, v: u32) {
        self.u64(v as u64);
    }

    /// Writes a `usize` as a varint.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a boolean as one byte (0 or 1).
    pub fn bool(&mut self, b: bool) {
        self.buf.push(b as u8);
    }

    /// Writes an `f64` as its 8 raw little-endian IEEE-754 bytes.  The
    /// round trip is bit-exact — unlike JSON, which cannot represent NaN
    /// or infinities at all.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed byte blob.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a sorted (non-decreasing) `u64` column as a length prefix,
    /// the first value, then successive differences — the encoding that
    /// turns sorted id columns and hash minima into runs of 1–2-byte
    /// varints.
    ///
    /// Debug builds assert monotonicity; the decoder
    /// ([`BinReader::delta_u64s`]) reconstructs with checked addition, so
    /// a corrupted stream errors instead of wrapping.
    pub fn delta_u64s(&mut self, values: &[u64]) {
        self.usize(values.len());
        let mut prev = 0u64;
        for (i, &v) in values.iter().enumerate() {
            debug_assert!(i == 0 || v >= prev, "delta column must be sorted");
            self.u64(if i == 0 { v } else { v - prev });
            prev = v;
        }
    }

    /// [`Self::delta_u64s`] over a `u32` column.
    pub fn delta_u32s(&mut self, values: impl ExactSizeIterator<Item = u32> + Clone) {
        self.usize(values.len());
        let mut prev = 0u32;
        for (i, v) in values.enumerate() {
            debug_assert!(i == 0 || v >= prev, "delta column must be sorted");
            self.u32(if i == 0 { v } else { v - prev });
            prev = v;
        }
    }
}

/// Reads binary-format primitives from a byte slice.
///
/// Every accessor returns a [`JsonError`] (offset = byte position) instead
/// of panicking when the input is truncated or malformed, and every
/// length prefix is validated against the bytes actually remaining before
/// any allocation happens.
#[derive(Debug)]
pub struct BinReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    /// Wraps a byte slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Returns `true` when every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn fail<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(JsonError {
            message: message.into(),
            offset: self.pos,
        })
    }

    /// Reads one raw byte.
    pub fn byte(&mut self) -> Result<u8> {
        match self.bytes.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => self.fail("unexpected end of binary input"),
        }
    }

    /// Reads `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return self.fail(format!("{n} bytes requested, {} remain", self.remaining()));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a LEB128 varint.
    pub fn u64(&mut self) -> Result<u64> {
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            let low = (b & 0x7F) as u64;
            if shift >= 64 || (shift == 63 && low > 1) {
                return self.fail("varint overflows u64");
            }
            out |= low << shift;
            if b & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    /// Reads a varint that must fit a `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let v = self.u64()?;
        u32::try_from(v).or_else(|_| self.fail(format!("varint {v} out of u32 range")))
    }

    /// Reads a varint that must fit a `usize`.
    pub fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).or_else(|_| self.fail(format!("varint {v} out of usize range")))
    }

    /// Reads a length prefix for a sequence whose elements occupy at least
    /// `min_bytes_per_element` encoded bytes each, rejecting any length
    /// the remaining input cannot possibly hold.  This is what keeps a
    /// corrupted prefix from triggering a multi-gigabyte allocation.
    pub fn seq_len(&mut self, min_bytes_per_element: usize) -> Result<usize> {
        let len = self.usize()?;
        let need = len.saturating_mul(min_bytes_per_element.max(1));
        if need > self.remaining() {
            return self.fail(format!(
                "sequence of {len} elements cannot fit in {} remaining bytes",
                self.remaining()
            ));
        }
        Ok(len)
    }

    /// Reads a boolean byte, rejecting anything but 0 and 1.
    pub fn bool(&mut self) -> Result<bool> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            other => self.fail(format!("invalid boolean byte {other}")),
        }
    }

    /// Reads an `f64` from its 8 raw little-endian bytes.
    #[expect(clippy::expect_used, reason = "`take(8)` returns exactly 8 bytes")]
    pub fn f64(&mut self) -> Result<f64> {
        let bytes = self.take(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(
            bytes.try_into().expect("take(8) returned 8 bytes"),
        )))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let len = self.seq_len(1)?;
        let bytes = self.take(len)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => self.fail("string is not valid utf-8"),
        }
    }

    /// Reads a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.seq_len(1)?;
        self.take(len)
    }

    /// Reads a delta-encoded sorted `u64` column written by
    /// [`BinWriter::delta_u64s`].  The reconstruction uses checked
    /// addition, so corrupted deltas error instead of wrapping.
    pub fn delta_u64s(&mut self) -> Result<Vec<u64>> {
        let len = self.seq_len(1)?;
        let mut out = Vec::with_capacity(len);
        let mut prev = 0u64;
        for i in 0..len {
            let d = self.u64()?;
            let v = if i == 0 {
                d
            } else {
                match prev.checked_add(d) {
                    Some(v) => v,
                    None => return self.fail("delta column overflows u64"),
                }
            };
            out.push(v);
            prev = v;
        }
        Ok(out)
    }

    /// Reads a delta-encoded sorted `u32` column written by
    /// [`BinWriter::delta_u32s`].
    pub fn delta_u32s(&mut self) -> Result<Vec<u32>> {
        let len = self.seq_len(1)?;
        let mut out = Vec::with_capacity(len);
        let mut prev = 0u32;
        for i in 0..len {
            let d = self.u32()?;
            let v = if i == 0 {
                d
            } else {
                match prev.checked_add(d) {
                    Some(v) => v,
                    None => return self.fail("delta column overflows u32"),
                }
            };
            out.push(v);
            prev = v;
        }
        Ok(out)
    }

    /// Errors unless every byte has been consumed — the top-level decoder
    /// calls this so trailing garbage is rejected like JSON's
    /// "trailing characters" check.
    pub fn expect_end(&self) -> Result<()> {
        if self.is_at_end() {
            Ok(())
        } else {
            self.fail(format!(
                "{} trailing bytes after document",
                self.remaining()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_boundary_values() {
        let values = [0, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let mut w = BinWriter::new();
        for &v in &values {
            w.u64(v);
        }
        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.u64().unwrap(), v);
        }
        r.expect_end().unwrap();
    }

    #[test]
    fn small_values_take_one_byte() {
        let mut w = BinWriter::new();
        w.u64(7);
        assert_eq!(w.len(), 1);
        w.u64(127);
        assert_eq!(w.len(), 2);
        w.u64(128);
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for v in [
            0.0,
            -0.0,
            1.5,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            1.0 / 3.0,
        ] {
            let mut w = BinWriter::new();
            w.f64(v);
            let bytes = w.into_bytes();
            let back = BinReader::new(&bytes).f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn strings_and_bools_round_trip() {
        let mut w = BinWriter::new();
        w.str("héllo 日本 🦀");
        w.bool(true);
        w.bool(false);
        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes);
        assert_eq!(r.str().unwrap(), "héllo 日本 🦀");
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
    }

    #[test]
    fn delta_columns_round_trip_and_compress() {
        let column: Vec<u64> = (0..100).map(|i| 1_000_000 + i * 3).collect();
        let mut w = BinWriter::new();
        w.delta_u64s(&column);
        let bytes = w.into_bytes();
        // 1 len byte + 3 bytes for the base + 1 byte per small diff.
        assert!(bytes.len() < 110, "delta encoding blew up: {}", bytes.len());
        assert_eq!(BinReader::new(&bytes).delta_u64s().unwrap(), column);

        let ids: Vec<u32> = vec![3, 3, 7, 900, 901];
        let mut w = BinWriter::new();
        w.delta_u32s(ids.iter().copied());
        let bytes = w.into_bytes();
        assert_eq!(BinReader::new(&bytes).delta_u32s().unwrap(), ids);
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut w = BinWriter::new();
        w.str("hello world");
        w.u64(1 << 40);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = BinReader::new(&bytes[..cut]);
            // Either the string or the varint must fail cleanly.
            let result = r.str().and_then(|_| r.u64());
            assert!(result.is_err(), "truncation at {cut} was accepted");
        }
    }

    #[test]
    fn absurd_length_prefixes_are_rejected_before_allocating() {
        // A varint claiming a 2^60-element sequence followed by nothing.
        let mut w = BinWriter::new();
        w.u64(1 << 60);
        let bytes = w.into_bytes();
        assert!(BinReader::new(&bytes).delta_u64s().is_err());
        assert!(BinReader::new(&bytes).str().is_err());
        assert!(BinReader::new(&bytes).bytes().is_err());
    }

    #[test]
    fn invalid_primitives_are_rejected() {
        // Overlong varint (11 continuation bytes).
        let overlong = [0xFFu8; 11];
        assert!(BinReader::new(&overlong).u64().is_err());
        // Boolean byte out of range.
        assert!(BinReader::new(&[7]).bool().is_err());
        // u32 overflow.
        let mut w = BinWriter::new();
        w.u64(u64::MAX);
        assert!(BinReader::new(w.as_slice()).u32().is_err());
        // Non-UTF-8 string.
        let mut w = BinWriter::new();
        w.usize(2);
        w.raw(&[0xFF, 0xFE]);
        assert!(BinReader::new(w.as_slice()).str().is_err());
        // Trailing garbage.
        let r = BinReader::new(&[0, 1]);
        assert!(r.expect_end().is_err());
    }

    #[test]
    fn wrapping_delta_columns_are_rejected() {
        let mut w = BinWriter::new();
        w.usize(2);
        w.u64(u64::MAX);
        w.u64(2); // would wrap past u64::MAX
        assert!(BinReader::new(w.as_slice()).delta_u64s().is_err());
    }
}
