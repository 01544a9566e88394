//! The dengraph codec layer: a JSON value model plus a compact binary
//! wire format behind one [`Encode`]/[`Decode`] abstraction.
//!
//! The build environment has no crates.io access, so trace serialisation
//! and benchmark artefacts use this hand-written value model instead of
//! `serde_json`.  It supports the full JSON grammar with one deliberate
//! simplification: numbers are held as `f64` when fractional and as
//! `i128` otherwise, which losslessly covers every integer the workspace
//! serialises (`u64` user ids included).
//!
//! Since PR 5 the crate also hosts the workspace's serialisation
//! *abstraction*: the [`codec`] module defines the [`Encode`]/[`Decode`]
//! trait pair and [`WireFormat`] (JSON for debugging, binary for durable
//! checkpoints), and the [`binary`] module
//! provides the varint/delta-column primitives the binary format is built
//! from.  [`JsonError`] doubles as the error type of both formats — for a
//! binary document the `offset` is the byte position in the binary
//! stream.

// Module docs live as `//!` inner docs in each module's own file;
// adding outer `///` docs here would merge with them and re-scope
// their intra-doc links into this file, breaking `cargo doc`.
pub mod binary;
pub mod codec;
pub mod frame;
pub mod lz;

pub use binary::{BinReader, BinWriter};
pub use codec::{Decode, Encode, WireFormat};
pub use frame::{FrameEvent, FrameScanner, TornReason, FRAME_HEADER_LEN};

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integral number (covers u64 and i64 exactly).
    Int(i128),
    /// A fractional number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; key order is normalised (sorted) for stable output.
    Obj(BTreeMap<String, Value>),
}

/// Error raised by [`parse`] or the typed accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input where the error was noticed (0 for
    /// accessor errors).
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Result alias for JSON operations.
pub type Result<T> = std::result::Result<T, JsonError>;

fn err<T>(message: impl Into<String>, offset: usize) -> Result<T> {
    Err(JsonError {
        message: message.into(),
        offset,
    })
}

// ---------------------------------------------------------------------------
// Construction helpers
// ---------------------------------------------------------------------------

impl Value {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Value)>>(pairs: I) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn arr<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::Arr(items.into_iter().collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Int(n as i128)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Int(n as i128)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Int(n as i128)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Int(n as i128)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Float(n)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

// ---------------------------------------------------------------------------
// Typed accessors (used by the hand-written decoders)
// ---------------------------------------------------------------------------

impl Value {
    /// The value of object key `key`.
    pub fn get(&self, key: &str) -> Result<&Value> {
        match self {
            Value::Obj(map) => match map.get(key) {
                Some(v) => Ok(v),
                None => err(format!("missing key '{key}'"), 0),
            },
            _ => err(format!("expected object while reading key '{key}'"), 0),
        }
    }

    /// The value of object key `key`, or `None` when the key is absent or
    /// holds `null`.  Errors only when `self` is not an object — the
    /// accessor optional fields (e.g. checkpoint extensions) decode with.
    pub fn get_opt(&self, key: &str) -> Result<Option<&Value>> {
        match self {
            Value::Obj(map) => Ok(map.get(key).filter(|v| !matches!(v, Value::Null))),
            _ => err(format!("expected object while reading key '{key}'"), 0),
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Result<&[Value]> {
        match self {
            Value::Arr(items) => Ok(items),
            _ => err("expected array", 0),
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            _ => err("expected string", 0),
        }
    }

    /// This value as a `u64`.
    pub fn as_u64(&self) -> Result<u64> {
        match self {
            Value::Int(n) => u64::try_from(*n).map_err(|_| JsonError {
                message: format!("integer {n} out of u64 range"),
                offset: 0,
            }),
            _ => err("expected unsigned integer", 0),
        }
    }

    /// This value as a `u32`.
    pub fn as_u32(&self) -> Result<u32> {
        match self {
            Value::Int(n) => u32::try_from(*n).map_err(|_| JsonError {
                message: format!("integer {n} out of u32 range"),
                offset: 0,
            }),
            _ => err("expected unsigned integer", 0),
        }
    }

    /// This value as a `usize`.
    pub fn as_usize(&self) -> Result<usize> {
        self.as_u64().map(|n| n as usize)
    }

    /// This value as an `f64` (integers convert losslessly when small).
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(n) => Ok(*n as f64),
            _ => err("expected number", 0),
        }
    }

    /// This value as a `bool`.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => err("expected boolean", 0),
        }
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// How many container levels a debug build checks key order on.
#[cfg(debug_assertions)]
const KEY_ORDER_DEPTH: usize = 8;

/// A push-style JSON emitter appending to a caller-owned buffer.
///
/// The one emitter of the workspace: [`to_string`] walks a [`Value`] tree
/// through it, and hot paths (the JSON-lines sink) call it directly to
/// stream a struct's fields into a reused buffer with no tree and no
/// allocation.  The caller supplies well-formed structure (`key` before
/// each value inside an object, balanced `begin_*`/`end_*`); separators,
/// escaping and the number formats are the writer's.
///
/// Keys must be written in ascending order within an object — that is
/// what keeps a streamed object byte-identical to the same fields
/// collected into a [`Value::Obj`] (a sorted map).  Debug builds assert
/// it.
#[derive(Debug)]
pub struct JsonWriter<'a> {
    out: &'a mut String,
    /// The enclosing container already holds an element, so the next key
    /// or value is preceded by a comma.
    comma: bool,
    #[cfg(debug_assertions)]
    depth: usize,
    /// The last key written at each open level (`None` for a fresh object
    /// or an array).
    #[cfg(debug_assertions)]
    last_keys: [Option<&'a str>; KEY_ORDER_DEPTH],
}

impl<'a> JsonWriter<'a> {
    /// Starts a document at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        Self {
            out,
            comma: false,
            #[cfg(debug_assertions)]
            depth: 0,
            #[cfg(debug_assertions)]
            last_keys: [None; KEY_ORDER_DEPTH],
        }
    }

    /// Separator before a key or a value; leaves `comma` set for the
    /// sibling that follows.
    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    fn open(&mut self, bracket: char) {
        self.sep();
        self.out.push(bracket);
        self.comma = false;
        #[cfg(debug_assertions)]
        {
            if let Some(slot) = self.last_keys.get_mut(self.depth) {
                *slot = None;
            }
            self.depth += 1;
        }
    }

    fn close(&mut self, bracket: char) {
        self.out.push(bracket);
        self.comma = true;
        #[cfg(debug_assertions)]
        {
            self.depth = self.depth.saturating_sub(1);
        }
    }

    /// Opens an object.
    pub fn begin_obj(&mut self) {
        self.open('{');
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) {
        self.close('}');
    }

    /// Opens an array.
    pub fn begin_arr(&mut self) {
        self.open('[');
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) {
        self.close(']');
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, key: &'a str) {
        #[cfg(debug_assertions)]
        if let Some(last) = self
            .depth
            .checked_sub(1)
            .and_then(|level| self.last_keys.get_mut(level))
        {
            debug_assert!(
                last.is_none_or(|last| last < key),
                "object keys must ascend: {last:?} then {key:?}"
            );
            *last = Some(key);
        }
        self.str(key);
        self.out.push(':');
        self.comma = false;
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.sep();
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.sep();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, n: u64) {
        self.sep();
        let _ = write!(self.out, "{n}");
    }

    /// Writes a float in Rust's shortest round-trippable form, with a
    /// forced fractional marker so it re-parses as [`Value::Float`];
    /// NaN and the infinities, which JSON cannot spell, become `null`.
    pub fn f64(&mut self, f: f64) {
        if !f.is_finite() {
            return self.null();
        }
        self.sep();
        let from = self.out.len();
        let _ = write!(self.out, "{f}");
        if !self.out[from..].contains(['.', 'e', 'E']) {
            self.out.push_str(".0");
        }
    }

    /// Writes a string, escaping quotes, backslashes and control
    /// characters; everything between two escapes is copied as one run.
    pub fn str(&mut self, s: &str) {
        self.sep();
        self.out.push('"');
        let mut clean = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            // `i` and `clean` sit next to ASCII bytes: char boundaries.
            self.out.push_str(&s[clean..i]);
            clean = i + 1;
            match b {
                b'"' => self.out.push_str("\\\""),
                b'\\' => self.out.push_str("\\\\"),
                b'\n' => self.out.push_str("\\n"),
                b'\r' => self.out.push_str("\\r"),
                b'\t' => self.out.push_str("\\t"),
                _ => {
                    let _ = write!(self.out, "\\u{b:04x}");
                }
            }
        }
        self.out.push_str(&s[clean..]);
        self.out.push('"');
    }

    /// Writes a whole value tree.
    pub fn value(&mut self, value: &'a Value) {
        match value {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::Int(n) => match u64::try_from(*n) {
                Ok(n) => self.u64(n),
                Err(_) => {
                    self.sep();
                    let _ = write!(self.out, "{n}");
                }
            },
            Value::Float(f) => self.f64(*f),
            Value::Str(s) => self.str(s),
            Value::Arr(items) => {
                self.begin_arr();
                for item in items {
                    self.value(item);
                }
                self.end_arr();
            }
            Value::Obj(map) => {
                self.begin_obj();
                for (k, v) in map {
                    self.key(k);
                    self.value(v);
                }
                self.end_obj();
            }
        }
    }
}

/// Serialises a value to compact JSON.
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    JsonWriter::new(&mut out).value(value);
    out
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest `[`/`{` nesting [`parse`] accepts.  The parser recurses per
/// level, so input depth must be bounded or a hostile line overflows the
/// stack; every document the workspace writes nests far shallower.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Containers currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected '{}'", b as char), self.pos)
        }
    }

    fn expect_literal(&mut self, lit: &str, value: Value) -> Result<Value> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            err(format!("expected '{lit}'"), self.pos)
        }
    }

    /// Advances to the next `"` or `\` and returns the run skipped over.
    /// Both delimiters are ASCII, so the run is whole UTF-8 scalars.
    fn clean_run(&mut self) -> Result<&'a str> {
        let tail = &self.src.as_bytes()[self.pos..];
        let Some(len) = tail.iter().position(|&b| b == b'"' || b == b'\\') else {
            return err("unterminated string", self.src.len());
        };
        let run = &self.src[self.pos..self.pos + len];
        self.pos += len;
        Ok(run)
    }

    /// The four hex digits of a `\uXXXX` escape, as a code unit.
    fn hex4(&mut self) -> Result<u32> {
        let hex = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()));
        match hex.and_then(|hex| u32::from_str_radix(hex, 16).ok()) {
            Some(unit) => {
                self.pos += 4;
                Ok(unit)
            }
            None => err("bad \\u escape", self.pos),
        }
    }

    /// A `\uXXXX` escape, `\u` already consumed.  A high surrogate must be
    /// followed by an escaped low one (how JSON spells anything outside
    /// the BMP); a surrogate in any other position is an error.
    fn unicode_escape(&mut self) -> Result<char> {
        let unit = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&unit)
            && self.src.as_bytes()[self.pos..].starts_with(b"\\u")
        {
            self.pos += 2;
            match self.hex4()? {
                low @ 0xDC00..=0xDFFF => 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00),
                _ => return err("unpaired surrogate escape", self.pos),
            }
        } else {
            unit
        };
        match char::from_u32(code) {
            Some(c) => Ok(c),
            None => err("unpaired surrogate escape", self.pos),
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        // The common string has no escape: one exact-size copy.
        let mut out = self.clean_run()?.to_owned();
        while self.peek() == Some(b'\\') {
            self.pos += 1;
            let esc = self.peek().ok_or(JsonError {
                message: "unterminated escape".into(),
                offset: self.pos,
            })?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => self.unicode_escape()?,
                other => return err(format!("unknown escape '\\{}'", other as char), self.pos),
            });
            out.push_str(self.clean_run()?);
        }
        self.pos += 1; // the closing quote `clean_run` stopped at
        Ok(out)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Short digit runs — every id and timestamp — accumulate here;
        // anything longer or fractional goes through `str::parse`.
        let digits_from = self.pos;
        let mut magnitude: u64 = 0;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            magnitude = magnitude.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
            self.pos += 1;
        }
        let digits = self.pos - digits_from;
        let mut fractional = false;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            fractional = true;
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        let parsed = if text.starts_with('+') {
            None // `str::parse` would take it; JSON does not
        } else if fractional {
            text.parse().ok().map(Value::Float)
        } else if (1..=18).contains(&digits) {
            let magnitude = i128::from(magnitude);
            Some(Value::Int(if negative { -magnitude } else { magnitude }))
        } else {
            text.parse().ok().map(Value::Int)
        };
        match parsed {
            Some(value) => Ok(value),
            None => err(format!("bad number '{text}'"), start),
        }
    }

    /// Enters a container: consumes its bracket and counts the level.
    fn descend(&mut self) -> Result<()> {
        if self.depth == MAX_DEPTH {
            return err(format!("nesting deeper than {MAX_DEPTH} levels"), self.pos);
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        Ok(())
    }

    /// Leaves a container: consumes its closing bracket.
    fn ascend(&mut self) {
        self.depth -= 1;
        self.pos += 1;
    }

    /// After a container element: `false` past a `,`, `true` past `close`.
    fn element_end(&mut self, close: u8) -> Result<bool> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(false)
            }
            Some(b) if b == close => {
                self.ascend();
                Ok(true)
            }
            _ => err(format!("expected ',' or '{}'", close as char), self.pos),
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            None => err("unexpected end of input", self.pos),
            Some(b'n') => self.expect_literal("null", Value::Null),
            Some(b't') => self.expect_literal("true", Value::Bool(true)),
            Some(b'f') => self.expect_literal("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.descend()?;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.ascend();
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    if self.element_end(b']')? {
                        return Ok(Value::Arr(items));
                    }
                }
            }
            Some(b'{') => {
                self.descend()?;
                let mut map = BTreeMap::new();
                if self.peek() == Some(b'}') {
                    self.ascend();
                    return Ok(Value::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_value()?;
                    map.insert(key, value);
                    if self.element_end(b'}')? {
                        return Ok(Value::Obj(map));
                    }
                }
            }
            Some(_) => self.parse_number(),
        }
    }
}

/// Parses a JSON document.  Never panics and never recurses deeper than
/// [`MAX_DEPTH`] containers, whatever the input.
pub fn parse(input: &str) -> Result<Value> {
    let mut parser = Parser {
        src: input,
        pos: 0,
        depth: 0,
    };
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != input.len() {
        return err("trailing characters after document", parser.pos);
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for (text, value) in [
            ("null", Value::Null),
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("42", Value::Int(42)),
            ("-7", Value::Int(-7)),
            ("1.5", Value::Float(1.5)),
            ("\"hi\"", Value::Str("hi".into())),
        ] {
            assert_eq!(parse(text).unwrap(), value);
            assert_eq!(parse(&to_string(&value)).unwrap(), value);
        }
    }

    #[test]
    fn round_trips_u64_exactly() {
        let v = Value::from(u64::MAX);
        assert_eq!(parse(&to_string(&v)).unwrap().as_u64().unwrap(), u64::MAX);
    }

    #[test]
    fn round_trips_f64_shortest_form() {
        for f in [0.1, 1.0 / 3.0, 1e300, -2.5e-10, 160.0] {
            let v = Value::Float(f);
            assert_eq!(parse(&to_string(&v)).unwrap().as_f64().unwrap(), f);
        }
    }

    #[test]
    fn round_trips_nested_structures() {
        let v = Value::obj([
            ("name", Value::str("trace")),
            ("count", Value::from(3u32)),
            (
                "items",
                Value::arr([
                    Value::from(1u32),
                    Value::Null,
                    Value::obj([("k", Value::Bool(true))]),
                ]),
            ),
        ]);
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
    }

    #[test]
    fn escapes_strings() {
        let v = Value::str("a\"b\\c\nd\te\u{1}f");
        let text = to_string(&v);
        assert_eq!(parse(&text).unwrap(), v);
        assert!(text.contains("\\\""));
        assert!(text.contains("\\u0001"));
    }

    #[test]
    fn parses_whitespace_and_unicode() {
        let v = parse(" { \"k\" : [ 1 , \"héllo\" ] } ").unwrap();
        assert_eq!(
            v.get("k").unwrap().as_arr().unwrap()[1].as_str().unwrap(),
            "héllo"
        );
        assert_eq!(parse("\"\\u00e9\"").unwrap(), Value::str("é"));
    }

    #[test]
    fn parses_multibyte_scalars_anywhere_in_strings() {
        for text in [
            "é",
            "héllo wörld",
            "日本語テキスト",
            "mixed 中 ascii",
            "🦀🦀",
        ] {
            let v = Value::str(text);
            assert_eq!(parse(&to_string(&v)).unwrap(), v, "round trip of {text:?}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,", "\"open", "tru", "1.2.3", "{}extra", "{\"a\"}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn typed_accessors_check_types() {
        let v = parse("{\"n\": 3, \"s\": \"x\"}").unwrap();
        assert_eq!(v.get("n").unwrap().as_u32().unwrap(), 3);
        assert!(v.get("n").unwrap().as_str().is_err());
        assert!(v.get("missing").is_err());
        assert!(v.get("s").unwrap().as_u64().is_err());
    }

    /// Byte-for-byte goldens of the emitter: the float rule, integers past
    /// `i64`, escapes and multi-byte text.
    #[test]
    fn to_string_goldens() {
        let huge = format!("1{}.0", "0".repeat(300));
        for (value, golden) in [
            (Value::Float(0.1), "0.1"),
            (Value::Float(1.0 / 3.0), "0.3333333333333333"),
            (Value::Float(1e300), huge.as_str()),
            (Value::Float(-2.5e-10), "-0.00000000025"),
            (Value::Float(160.0), "160.0"),
            (Value::Float(1e21), "1000000000000000000000.0"),
            (Value::Float(-0.0), "-0.0"),
            (Value::Float(f64::NAN), "null"),
            (Value::Float(f64::NEG_INFINITY), "null"),
            (Value::from(u64::MAX), "18446744073709551615"),
            (
                Value::Int(-(1i128 << 100)),
                "-1267650600228229401496703205376",
            ),
            (Value::Int(-7), "-7"),
            (
                Value::str("a\"b\\c\nd\re\tf\u{0}\u{1f}\u{7f}"),
                "\"a\\\"b\\\\c\\nd\\re\\tf\\u0000\\u001f\u{7f}\"",
            ),
            (Value::str("héllo 日本語 🦀"), "\"héllo 日本語 🦀\""),
            (Value::str(""), "\"\""),
            (
                Value::obj([
                    (
                        "b",
                        Value::arr([Value::Null, Value::Bool(true), Value::arr([])]),
                    ),
                    ("a\n", Value::obj::<&str, _>([])),
                    ("c", Value::Float(2.0)),
                ]),
                r#"{"a\n":{},"b":[null,true,[]],"c":2.0}"#,
            ),
        ] {
            assert_eq!(to_string(&value), golden, "{value:?}");
        }
    }

    /// Streaming calls emit exactly what the same fields collected into a
    /// tree do, and append to whatever the buffer already holds.
    #[test]
    fn writer_streams_what_the_tree_serialises() {
        let tree = Value::obj([
            ("id", Value::from(7u64)),
            (
                "keywords",
                Value::arr([Value::from(1u32), Value::from(2u32)]),
            ),
            ("name", Value::str("q\"uake")),
            (
                "nested",
                Value::obj([("rank", Value::Float(3.0)), ("why", Value::Null)]),
            ),
            ("ok", Value::Bool(false)),
        ]);
        let mut out = String::from("prefix ");
        let mut w = JsonWriter::new(&mut out);
        w.begin_obj();
        w.key("id");
        w.u64(7);
        w.key("keywords");
        w.begin_arr();
        w.u64(1);
        w.u64(2);
        w.end_arr();
        w.key("name");
        w.str("q\"uake");
        w.key("nested");
        w.begin_obj();
        w.key("rank");
        w.f64(3.0);
        w.key("why");
        w.null();
        w.end_obj();
        w.key("ok");
        w.bool(false);
        w.end_obj();
        assert_eq!(out, format!("prefix {}", to_string(&tree)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "object keys must ascend")]
    fn writer_asserts_ascending_keys_in_debug_builds() {
        let mut out = String::new();
        let mut w = JsonWriter::new(&mut out);
        w.begin_obj();
        w.key("type");
        w.null();
        w.key("quantum");
    }

    #[test]
    fn parses_escaped_surrogate_pairs() {
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Value::str("😀"));
        assert_eq!(
            parse(r#""a\ud83d\ude00b\uD834\uDD1E\u00e9""#).unwrap(),
            Value::str("a😀b𝄞é")
        );
        for bad in [
            r#""\ud83d""#,         // lone high
            r#""\ud83dx""#,        // high, then text
            r#""\ude00""#,         // lone low
            r#""\ude00\ud83d""#,   // mis-ordered
            r#""\ud83d\n\ude00""#, // pair split by another escape
            r#""\ud83dA""#,        // high, then a non-surrogate
            r#""\ud83d\ud83d""#,   // high, high
            r#""\ud83d\ude0""#,    // truncated low
            r#""\u+041""#,
            r#""\u00é""#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn caps_nesting_depth_instead_of_overflowing_the_stack() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nested("{\"k\":", "}", MAX_DEPTH).replace(":}", ":0}")).is_ok());
        for hostile in [
            nested("[", "]", MAX_DEPTH + 1),
            "[".repeat(200_000),
            "{\"k\":".repeat(200_000),
            "[{\"k\":".repeat(100_000),
        ] {
            let e = parse(&hostile).expect_err("too deep");
            assert!(e.message.contains("128"), "{e}");
        }
        // Depth is nesting, not container count.
        let wide = format!("[{}[]]", "[],".repeat(10_000));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn numbers_take_the_same_values_on_both_paths() {
        for (text, value) in [
            ("0", Value::Int(0)),
            ("-0", Value::Int(0)),
            ("007", Value::Int(7)),
            ("999999999999999999", Value::Int(999_999_999_999_999_999)),
            ("-999999999999999999", Value::Int(-999_999_999_999_999_999)),
            ("1000000000000000000", Value::Int(1_000_000_000_000_000_000)),
            ("18446744073709551615", Value::Int(u64::MAX as i128)),
            (
                "-170141183460469231731687303715884105728",
                Value::Int(i128::MIN),
            ),
            ("1e3", Value::Float(1000.0)),
            ("-2.5E-1", Value::Float(-0.25)),
            ("1.", Value::Float(1.0)),
        ] {
            assert_eq!(parse(text).unwrap(), value, "{text}");
        }
        for bad in [
            "+1",
            "+1.5",
            "-",
            "--1",
            "1-2",
            "1e",
            ".",
            "-+1",
            "170141183460469231731687303715884105728",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
