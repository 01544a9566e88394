//! Hand-written codecs for [`Message`], the one stream type that crosses a
//! process boundary: a detector checkpoint carries its partial-quantum
//! buffer of messages.
//!
//! The build environment has no crates.io access, so instead of serde a
//! message converts to and from the [`dengraph_json`] value model (and its
//! binary writer) explicitly.

use dengraph_json::{Result, Value};
use dengraph_text::KeywordId;

use crate::message::{Message, UserId};

fn keywords_to_value(keywords: &[KeywordId]) -> Value {
    Value::arr(keywords.iter().map(|k| Value::from(k.0)))
}

fn keywords_from_value(value: &Value) -> Result<Vec<KeywordId>> {
    value
        .as_arr()?
        .iter()
        .map(|v| v.as_u32().map(KeywordId))
        .collect()
}

/// Encodes one message.
pub fn message_to_value(message: &Message) -> Value {
    Value::obj([
        ("user", Value::from(message.user.0)),
        ("time", Value::from(message.time)),
        ("keywords", keywords_to_value(&message.keywords)),
    ])
}

/// Decodes one message.
pub fn message_from_value(value: &Value) -> Result<Message> {
    Ok(Message {
        user: UserId(value.get("user")?.as_u64()?),
        time: value.get("time")?.as_u64()?,
        keywords: keywords_from_value(value.get("keywords")?)?,
    })
}

/// Appends the compact binary encoding of one message.  Keywords are
/// written in occurrence order (not delta-encoded) — the order is part of
/// the message and must round-trip exactly.
pub fn message_to_bin(message: &Message, w: &mut dengraph_json::BinWriter) {
    w.u64(message.user.0);
    w.u64(message.time);
    w.usize(message.keywords.len());
    for k in &message.keywords {
        w.u32(k.0);
    }
}

/// Decodes one message encoded by [`message_to_bin`].
pub fn message_from_bin(r: &mut dengraph_json::BinReader<'_>) -> Result<Message> {
    let user = UserId(r.u64()?);
    let time = r.u64()?;
    let count = r.seq_len(1)?;
    let mut keywords = Vec::with_capacity(count);
    for _ in 0..count {
        keywords.push(KeywordId(r.u32()?));
    }
    Ok(Message {
        user,
        time,
        keywords,
    })
}
