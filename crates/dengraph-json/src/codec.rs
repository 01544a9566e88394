//! The codec abstraction: one vocabulary, two wire formats.
//!
//! Every serialisable state struct in the workspace implements
//! [`Encode`] / [`Decode`], which expose the same state under two wire
//! formats:
//!
//! * **JSON** ([`crate::Value`]) — human-readable, kept for debugging and
//!   as the cross-version fallback format;
//! * **binary** ([`crate::binary`]) — varint integers and delta-encoded
//!   dense columns matching the in-memory flat layouts, typically 4–8×
//!   smaller than the JSON text.
//!
//! Both encodings of a struct decode to the same value
//! (`from_bin(to_bin(x)) == from_json(to_json(x)) == x`), a property
//! gated per struct by seeded loops in `tests/codec_equivalence.rs`.
//!
//! The struct-level encodings are headerless; the *document*-level
//! containers (detector checkpoints, checkpoint journals) carry a magic +
//! version header and are sniffable — JSON text can never start with the
//! binary magic byte, so [`WireFormat::sniff`] distinguishes the formats
//! without external metadata.

use crate::binary::{BinReader, BinWriter};
use crate::{JsonError, Result, Value};

/// Which wire format a document is (or should be) encoded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// Human-readable JSON text — the debugging and cross-version
    /// fallback format.
    Json,
    /// The compact binary format of [`crate::binary`] (the default for
    /// durable checkpoints).
    #[default]
    Binary,
}

/// First byte of every binary-format document header.  `0xD6` is not a
/// valid first byte of any JSON document (JSON starts with whitespace,
/// `{`, `[`, `"`, a digit, `-`, `t`, `f` or `n`), which makes format
/// sniffing unambiguous.
pub const BINARY_MAGIC_BYTE: u8 = 0xD6;

impl WireFormat {
    /// Infers the wire format of an encoded document from its first byte.
    pub fn sniff(bytes: &[u8]) -> WireFormat {
        match bytes.first() {
            Some(&BINARY_MAGIC_BYTE) => WireFormat::Binary,
            _ => WireFormat::Json,
        }
    }
}

impl std::fmt::Display for WireFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireFormat::Json => write!(f, "json"),
            WireFormat::Binary => write!(f, "binary"),
        }
    }
}

/// Serialises a state struct into either wire format.
pub trait Encode {
    /// Encodes to the JSON value model (the debugging / fallback format).
    fn to_json(&self) -> Value;

    /// Appends the compact binary encoding to `w`.
    fn to_bin(&self, w: &mut BinWriter);

    /// Appends the standalone document in the requested format to `w`
    /// (JSON becomes its UTF-8 text) — [`Self::encode`] into a buffer
    /// the caller keeps, e.g. behind a reserved frame header.
    fn encode_into(&self, format: WireFormat, w: &mut BinWriter) {
        match format {
            WireFormat::Json => w.raw(crate::to_string(&self.to_json()).as_bytes()),
            WireFormat::Binary => self.to_bin(w),
        }
    }

    /// Encodes to standalone bytes in the requested format.
    fn encode(&self, format: WireFormat) -> Vec<u8> {
        let mut w = BinWriter::new();
        self.encode_into(format, &mut w);
        w.into_bytes()
    }
}

/// Deserialises a state struct from either wire format.
pub trait Decode: Sized {
    /// Decodes from the JSON value model.
    fn from_json(value: &Value) -> Result<Self>;

    /// Decodes from the binary reader, consuming exactly the bytes
    /// [`Encode::to_bin`] wrote.
    fn from_bin(r: &mut BinReader<'_>) -> Result<Self>;

    /// Decodes standalone bytes written by [`Encode::encode`] with the
    /// same format.  The whole input must be consumed.
    fn decode(bytes: &[u8], format: WireFormat) -> Result<Self> {
        match format {
            WireFormat::Json => {
                let text = std::str::from_utf8(bytes).map_err(|_| JsonError {
                    message: "json document is not valid utf-8".into(),
                    offset: 0,
                })?;
                Self::from_json(&crate::parse(text)?)
            }
            WireFormat::Binary => {
                let mut r = BinReader::new(bytes);
                let out = Self::from_bin(&mut r)?;
                r.expect_end()?;
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy struct exercising the provided trait methods end to end.
    #[derive(Debug, PartialEq)]
    struct Point {
        x: u64,
        y: f64,
    }

    impl Encode for Point {
        fn to_json(&self) -> Value {
            Value::obj([("x", Value::from(self.x)), ("y", Value::from(self.y))])
        }
        fn to_bin(&self, w: &mut BinWriter) {
            w.u64(self.x);
            w.f64(self.y);
        }
    }

    impl Decode for Point {
        fn from_json(value: &Value) -> Result<Self> {
            Ok(Self {
                x: value.get("x")?.as_u64()?,
                y: value.get("y")?.as_f64()?,
            })
        }
        fn from_bin(r: &mut BinReader<'_>) -> Result<Self> {
            Ok(Self {
                x: r.u64()?,
                y: r.f64()?,
            })
        }
    }

    #[test]
    fn both_formats_round_trip_and_agree() {
        let p = Point { x: 1 << 40, y: 2.5 };
        for format in [WireFormat::Json, WireFormat::Binary] {
            let bytes = p.encode(format);
            assert_eq!(Point::decode(&bytes, format).unwrap(), p, "{format}");
        }
        assert!(p.encode(WireFormat::Binary).len() < p.encode(WireFormat::Json).len());
    }

    #[test]
    fn binary_decode_rejects_trailing_bytes() {
        let mut bytes = Point { x: 1, y: 0.0 }.encode(WireFormat::Binary);
        bytes.push(0);
        assert!(Point::decode(&bytes, WireFormat::Binary).is_err());
    }

    #[test]
    fn sniffing_distinguishes_the_formats() {
        assert_eq!(WireFormat::sniff(b"{\"x\":1}"), WireFormat::Json);
        assert_eq!(WireFormat::sniff(b"  [1,2]"), WireFormat::Json);
        assert_eq!(
            WireFormat::sniff(&[BINARY_MAGIC_BYTE, 1]),
            WireFormat::Binary
        );
        assert_eq!(WireFormat::sniff(b""), WireFormat::Json);
    }
}
