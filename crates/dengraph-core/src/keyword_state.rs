//! Sliding-window keyword state: the two-state automaton and per-keyword
//! user-id bookkeeping of Section 3.1 / 3.2.
//!
//! For every keyword the detector needs to know, over the current window of
//! `w` quanta:
//!
//! * how many distinct users mentioned it in the **current** quantum (the
//!   burstiness test against the high-state threshold σ),
//! * the min-hash sketch of the users who mentioned it anywhere in the
//!   window (for edge-correlation estimation),
//! * how many distinct users mentioned it anywhere in the window (cluster
//!   support in the ranking function) — and, for the exact-EC ablation
//!   only, that exact user-id set — and
//! * the most recent quantum in which it occurred (for stale removal).
//!
//! Each quantum contributes one immutable [`QuantumRecord`]; sliding the
//! window simply drops the oldest record.  How the per-keyword aggregates
//! are produced from those records is governed by [`WindowIndexMode`]:
//!
//! * [`WindowIndexMode::Rebuild`] — every read walks all `w` records (the
//!   naive cache-build cost the paper's incremental AKG design avoids;
//!   kept as the ablation baseline),
//! * [`WindowIndexMode::Incremental`] — a `WindowIndex` keeps, per
//!   keyword, what the detector reads — the `p` smallest user hashes of
//!   the window (the sketch), the exact distinct-user count and a recency
//!   mark — updated in O(Δ) as the window slides, so those reads are O(1).
//!   Exact user *sets* (the exact-EC ablation) are not indexed: they walk
//!   the records in either mode.
//!
//! Both modes are **bit-identical**: same sketches, same counts, same
//! user sets (`tests/window_index_equivalence.rs` gates this).
//!
//! ## Order only what the sketch reads
//!
//! Section 3.2.2's sketch of a keyword is the `p` smallest hash values of
//! the users who mentioned it in the window — a `LIMIT p` over the user
//! set — and ranking needs the set's size.  Nothing reads the rest of the
//! set in order, so the index orders only its low end.  Per keyword:
//!
//! * a **head**: the keyword's smallest live hashes, strictly ascending,
//!   at most `4p` rows, each with a *stamp* — the last window push that
//!   saw that user ([`UserHasher::hash`] is a bijection on `u64`, so a
//!   hash stands for its user and distinct users never tie);
//! * a count `over` of the rows above the head, which live in one
//!   open-addressed **overflow table** `(keyword, hash) → stamp` shared by
//!   all keywords.
//!
//! One invariant carries everything: *a live hash ≤ the head's last row is
//! in the head, anything larger is in the table.*  So membership, insert
//! and expiry of a `(keyword, user)` row are one binary search over ≤ `4p`
//! hashes **or** one table probe — never a move of a window-long column;
//! the sketch is by construction the first `min(p, len)` head rows; the
//! user count is `len + over`; and a keyword with at most `4p` window
//! users never touches the table.
//!
//! * **Stamps, not counts.**  A row dies exactly when the push it is
//!   stamped with is evicted: a re-mention restamps, an eviction removes
//!   the rows still carrying the evicted push's stamp.  Stamps come from
//!   the index's own wrapping push counter, not from
//!   [`QuantumRecord::index`], which callers may set to anything.
//! * **Spill.**  An insert below the last row of a full head pushes that
//!   last row into the table (`over += 1`).
//! * **Refill.**  When evictions shrink a spilled head below `p`, the
//!   `4p − len` smallest rows above it are moved back from the table.  The
//!   table cannot be read in order, so the candidates come from a walk
//!   over the window's records — rare (about one keyword every other
//!   quantum on the benchmark's streams) because a head has `3p` rows of
//!   slack to lose first.
//!
//! Heads, table and stamps are a function of the window's records, so a
//! snapshot carries none of them: it carries the list of live keyword ids
//! — which is history the records cannot tell — and a restore replays the
//! records into the listed entries.
//!
//! The table's slot hash mixes `UserHasher::hash(user)` — an unkeyed
//! bijection — with the keyword id: the trust model of the `FxHash*` maps
//! the engine already keys by user id.  User ids chosen to collide cost
//! probes, never answers.
//!
//! ## Dense-id layout
//!
//! Keywords are interner-dense `u32` ids (see `dengraph_text`), so the hot
//! structures here avoid hashing keywords entirely:
//!
//! * a [`QuantumRecord`] is two flat arrays — a sorted user column plus one
//!   `(keyword, start, end)` span per keyword — built from a single sorted
//!   `(keyword, user)` pair list, and its backing storage is recycled from
//!   the record that slid out of the window;
//! * the incremental `WindowIndex` is a `Vec` indexed directly by keyword
//!   id (a lookup is one bounds check), each entry two short parallel
//!   columns (`hashes`, `stamps`), with emptied entries pooled and reused
//!   and the overflow table grown during warm-up only, so steady-state
//!   sliding performs no allocation;
//! * [`KeywordStateMachine`] is a bitset over keyword ids.

use std::collections::{BTreeMap, VecDeque};

use dengraph_graph::fxhash::FxHashSet;
use dengraph_json::{Decode, Encode};
use dengraph_minhash::sketch::MAX_DECODED_SKETCH_SIZE;
use dengraph_minhash::{kernel, MinHashSketch, SketchLanes, UserHasher};
use dengraph_parallel::{par_chunks, par_map, Parallelism};
use dengraph_stream::{Message, UserId};
use dengraph_text::KeywordId;

/// One per-keyword user span of a [`QuantumRecord`]: the keyword plus the
/// `[start, end)` range of its users in the record's flat user column.
pub(crate) type KeywordSpan = (KeywordId, u32, u32);

/// Recyclable backing storage of a [`QuantumRecord`] (the flat user column
/// and the keyword span table).
pub(crate) type RecordStorage = (Vec<UserId>, Vec<KeywordSpan>);

/// Upper bound on keyword ids accepted by the checkpoint *decoders* of
/// the id-indexed structures (window index slots, state-machine bits).
/// Both allocate proportionally to the largest id, so a corrupted id near
/// `u32::MAX` would otherwise force a multi-gigabyte resize before any
/// other validation could reject the document.  The bound caps the
/// decode-time allocation at roughly half a gigabyte of index slots —
/// the same order the *live* dense-id layout would occupy for such a
/// vocabulary, so no state a deployment can actually run is rejected.
/// Raise this constant together with the deployment's memory envelope if
/// interned vocabularies ever approach four million keywords.
const MAX_DECODED_KEYWORD_INDEX: usize = 1 << 22;

fn check_keyword_index(idx: usize, offset: usize) -> dengraph_json::Result<()> {
    if idx > MAX_DECODED_KEYWORD_INDEX {
        return Err(dengraph_json::JsonError {
            message: format!(
                "keyword id {idx} exceeds the decoder bound {MAX_DECODED_KEYWORD_INDEX}"
            ),
            offset,
        });
    }
    Ok(())
}

/// Per-quantum aggregation of the stream.
///
/// Stored as two flat arrays instead of a map-of-sets: `users` holds the
/// distinct `(keyword, user)` pairs of the quantum sorted by `(keyword,
/// user)`, and `spans` holds one `(keyword, start, end)` entry per distinct
/// keyword (sorted by keyword).  Lookups are binary searches over the span
/// table; iteration is cache-linear and canonically ordered.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantumRecord {
    /// Quantum index.
    pub index: u64,
    /// Number of messages aggregated into this record.
    pub message_count: usize,
    /// Flat user column: for span `(k, s, e)`, `users[s..e]` are the sorted
    /// distinct users that mentioned `k` this quantum.
    users: Vec<UserId>,
    /// One span per keyword, sorted by keyword id.
    spans: Vec<KeywordSpan>,
}

impl QuantumRecord {
    /// Builds a record from the messages of one quantum.
    pub fn from_messages(index: u64, messages: &[Message]) -> Self {
        Self::from_messages_with(index, messages, Parallelism::Serial)
    }

    /// Builds a record, fanning the pair collection out over contiguous
    /// message chunks per `parallelism`.  The result is **identical** to
    /// the serial path's: the pair list is sorted and de-duplicated into a
    /// canonical form regardless of chunking.
    pub fn from_messages_with(index: u64, messages: &[Message], parallelism: Parallelism) -> Self {
        let mut pairs = Vec::new();
        Self::from_messages_into(
            index,
            messages,
            parallelism,
            &mut pairs,
            &mut PairSortScratch::default(),
            (Vec::new(), Vec::new()),
        )
    }

    /// Scratch-reusing builder: `pairs` is a staging buffer (cleared before
    /// use) and `storage` is recycled backing storage, typically taken from
    /// the record that just slid out of the window — steady-state quanta
    /// then build their record without allocating.
    pub(crate) fn from_messages_into(
        index: u64,
        messages: &[Message],
        parallelism: Parallelism,
        pairs: &mut Vec<(KeywordId, UserId)>,
        sort: &mut PairSortScratch,
        storage: RecordStorage,
    ) -> Self {
        pairs.clear();
        if parallelism.is_parallel() {
            // One pair list per chunk (par_chunks falls back to a single
            // serial chunk for small quanta), concatenated in chunk order;
            // the sort below canonicalises away the chunk structure.
            let chunks = par_chunks(parallelism, messages, 16, |msgs| {
                let mut chunk_pairs: Vec<(KeywordId, UserId)> = Vec::with_capacity(msgs.len() * 2);
                for m in msgs {
                    for &k in &m.keywords {
                        chunk_pairs.push((k, m.user));
                    }
                }
                chunk_pairs
            });
            for chunk in chunks {
                pairs.extend(chunk);
            }
        } else {
            for m in messages {
                for &k in &m.keywords {
                    pairs.push((k, m.user));
                }
            }
        }
        sort_dedup_pairs(pairs, sort);
        let (users, spans) = fold_pairs(pairs, storage);
        Self {
            index,
            message_count: messages.len(),
            users,
            spans,
        }
    }

    /// Consumes the record, returning its backing storage for reuse.
    pub(crate) fn into_storage(self) -> RecordStorage {
        (self.users, self.spans)
    }

    /// The distinct users that mentioned `keyword` in this quantum, sorted
    /// ascending (empty when the keyword did not occur).
    pub fn users_of(&self, keyword: KeywordId) -> &[UserId] {
        match self.spans.binary_search_by_key(&keyword, |&(k, _, _)| k) {
            Ok(i) => {
                let (_, s, e) = self.spans[i];
                &self.users[s as usize..e as usize]
            }
            Err(_) => &[],
        }
    }

    /// Distinct users that mentioned `keyword` in this quantum.
    pub fn user_count(&self, keyword: KeywordId) -> usize {
        self.users_of(keyword).len()
    }

    /// Keywords occurring in this quantum, ascending by id.
    pub fn keywords(&self) -> impl Iterator<Item = KeywordId> + '_ {
        self.spans.iter().map(|&(k, _, _)| k)
    }

    /// Number of distinct keywords in this quantum.
    pub fn keyword_count(&self) -> usize {
        self.spans.len()
    }

    /// Iterates `(keyword, sorted users)` pairs, ascending by keyword.
    pub fn iter(&self) -> impl Iterator<Item = (KeywordId, &[UserId])> + '_ {
        self.spans
            .iter()
            .map(move |&(k, s, e)| (k, &self.users[s as usize..e as usize]))
    }
}

impl Encode for QuantumRecord {
    /// Serialises the record to a [`dengraph_json::Value`]: the quantum
    /// index, message count, and one `[keyword, [users…]]` pair per keyword
    /// (keywords and users sorted, so the encoding is canonical).
    fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        Value::obj([
            ("index", Value::from(self.index)),
            ("message_count", Value::from(self.message_count)),
            (
                "keywords",
                Value::arr(self.iter().map(|(k, users)| {
                    Value::arr([
                        Value::from(k.0),
                        Value::arr(users.iter().map(|u| Value::from(u.0))),
                    ])
                })),
            ),
        ])
    }

    /// Appends the compact binary encoding — the record's flat layout
    /// written almost verbatim: the delta-encoded keyword column of the
    /// span table, then each span's sorted user run as a delta column.
    fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        w.u64(self.index);
        w.usize(self.message_count);
        w.delta_u32s(self.spans.iter().map(|&(k, _, _)| k.0));
        for &(_, s, e) in &self.spans {
            // UserId is a transparent u64 wrapper; encode the raw column.
            w.usize((e - s) as usize);
            let mut prev = 0u64;
            for (i, u) in self.users[s as usize..e as usize].iter().enumerate() {
                w.u64(if i == 0 { u.0 } else { u.0 - prev });
                prev = u.0;
            }
        }
    }
}

impl Decode for QuantumRecord {
    /// Reconstructs a record serialised by [`Self::to_json`].  The input
    /// need not be canonically ordered; the decoder re-sorts.
    fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        let mut pairs: Vec<(KeywordId, UserId)> = Vec::new();
        for pair in value.get("keywords")?.as_arr()? {
            let parts = pair.as_arr()?;
            if parts.len() != 2 {
                return Err(dengraph_json::JsonError {
                    message: format!("keyword pair has {} elements", parts.len()),
                    offset: 0,
                });
            }
            let keyword = KeywordId(parts[0].as_u32()?);
            for u in parts[1].as_arr()? {
                pairs.push((keyword, UserId(u.as_u64()?)));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let (users, spans) = fold_pairs(&pairs, (Vec::new(), Vec::new()));
        Ok(Self {
            index: value.get("index")?.as_u64()?,
            message_count: value.get("message_count")?.as_usize()?,
            users,
            spans,
        })
    }

    /// Reconstructs a record encoded by [`Self::to_bin`].  Unlike the JSON
    /// decoder, the binary decoder accepts only the canonical form —
    /// strictly ascending keywords and strictly ascending users per span —
    /// and rejects anything else as corrupt.
    fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        let corrupt = |r: &dengraph_json::BinReader<'_>, message: &str| dengraph_json::JsonError {
            message: message.into(),
            offset: r.pos(),
        };
        let index = r.u64()?;
        let message_count = r.usize()?;
        let keywords = r.delta_u32s()?;
        if keywords.windows(2).any(|p| p[0] >= p[1]) {
            return Err(corrupt(r, "record keywords must be strictly ascending"));
        }
        let mut users: Vec<UserId> = Vec::new();
        let mut spans: Vec<KeywordSpan> = Vec::with_capacity(keywords.len());
        for k in keywords {
            let run = r.seq_len(1)?;
            if run == 0 {
                return Err(corrupt(r, "record span has no users"));
            }
            let start = users.len() as u32;
            let mut prev = 0u64;
            for i in 0..run {
                let d = r.u64()?;
                let u = if i == 0 {
                    d
                } else {
                    match (d, prev.checked_add(d)) {
                        (1.., Some(u)) => u,
                        _ => return Err(corrupt(r, "span users must be strictly ascending")),
                    }
                };
                prev = u;
                users.push(UserId(u));
            }
            spans.push((KeywordId(k), start, start + run as u32));
        }
        Ok(Self {
            index,
            message_count,
            users,
            spans,
        })
    }
}

/// Reusable scratch for [`sort_dedup_pairs`]: the packed `u64` key column
/// and the radix sort's ping-pong buffer.  Lives in the detector's
/// [`crate::scratch::ScratchArena`] so steady-state quanta sort without
/// allocating.
#[derive(Debug, Default)]
pub(crate) struct PairSortScratch {
    keys: Vec<u64>,
    tmp: Vec<u64>,
}

/// Canonicalises a staged pair list: ascending `(keyword, user)` order with
/// duplicates removed.
///
/// Keyword ids are `u32` and interned user ids are dense, so in the steady
/// state every pair packs losslessly into one `u64`
/// (`keyword << 32 | user`) whose natural order equals the tuple order; the
/// packed column goes through the LSD radix sort, which beats the
/// comparison sort on the large duplicate-heavy pair lists the window stage
/// produces.  Any user id with high bits set (possible for synthetic raw
/// ids) falls back to the comparison sort — both paths produce the same
/// canonical list.
fn sort_dedup_pairs(pairs: &mut Vec<(KeywordId, UserId)>, scratch: &mut PairSortScratch) {
    let mut user_bits = 0u64;
    for &(_, u) in pairs.iter() {
        user_bits |= u.0;
    }
    if user_bits >> 32 != 0 {
        pairs.sort_unstable();
        pairs.dedup();
        return;
    }
    scratch.keys.clear();
    scratch
        .keys
        .extend(pairs.iter().map(|&(k, u)| (u64::from(k.0) << 32) | u.0));
    kernel::radix_sort_u64(&mut scratch.keys, &mut scratch.tmp);
    scratch.keys.dedup();
    pairs.clear();
    pairs.extend(
        scratch
            .keys
            .iter()
            .map(|&key| (KeywordId((key >> 32) as u32), UserId(key & 0xFFFF_FFFF))),
    );
}

/// Folds a sorted, de-duplicated `(keyword, user)` pair list into the
/// record's flat layout — the single owner of the span-construction
/// invariant (contiguous `[start, end)` ranges in pair order) for both the
/// message builder and the JSON decoder.
fn fold_pairs(pairs: &[(KeywordId, UserId)], storage: RecordStorage) -> RecordStorage {
    let (mut users, mut spans) = storage;
    users.clear();
    spans.clear();
    for &(k, u) in pairs {
        match spans.last_mut() {
            Some((last, _, end)) if *last == k => *end += 1,
            _ => {
                let start = users.len() as u32;
                spans.push((k, start, start + 1));
            }
        }
        users.push(u);
    }
    (users, spans)
}

/// How the sliding window serves per-keyword aggregate reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowIndexMode {
    /// Rebuild every aggregate from scratch by walking all `w` quanta per
    /// read (the ablation baseline).
    Rebuild,
    /// Maintain a per-keyword incremental index updated in O(Δ) per slide
    /// (per keyword a short hash-ordered head whose first `p` rows are the
    /// window sketch, plus a count of the rows above it).
    #[default]
    Incremental,
}

/// Head rows kept per sketch row: a head holds at most `4p` hashes.  The
/// sketch reads the first `p`; the other `3p` are slack, so that evictions
/// have to take `3p + 1` head rows — with no smaller hash arriving in
/// between — before the head must be refilled from the records.  Measured
/// on the benchmark's streams (README "The window layer"): `2p` refills
/// too often, `8p` moves more rows per insert, `4p` is the flat bottom.
const HEAD_ROWS_PER_SKETCH_ROW: usize = 4;

/// One row of the [`OverflowTable`]: a window user of `keyword`, by hash,
/// with the last window push that saw it.
#[derive(Debug, Clone, Copy)]
struct OverflowSlot {
    hash: u64,
    /// [`VACANT`] marks a free slot.
    keyword: u32,
    stamp: u32,
}

/// The keyword id no live entry can have (checked where entries
/// materialize), so it can mark a free [`OverflowSlot`].
const VACANT: u32 = u32::MAX;

/// The window rows *above* their keyword's head, for all keywords at once:
/// an open-addressed `(keyword, hash) → stamp` table with linear probing,
/// 16-byte slots, load at most ½ and backward-shift deletion (no
/// tombstones: a slide deletes as many rows as it inserts, forever).
///
/// Nothing reads these rows in order — they are counted (`over`), probed
/// by key on insert and expiry, and drawn back into a head only by
/// [`KeywordWindowEntry::refill`], which finds them through the records.
///
/// The slot of a row mixes the user's hash with the keyword id (see the
/// module docs for the trust model); a probe compares the whole
/// `(keyword, hash)` key, so colliding rows cost probes, never answers.
#[derive(Debug, Default)]
struct OverflowTable {
    /// Empty, or a power of two long.
    slots: Vec<OverflowSlot>,
    /// Occupied slots.
    len: usize,
}

impl OverflowTable {
    /// Slots of the first allocation (1 KB).
    const MIN_SLOTS: usize = 64;

    /// Where the probe run of `(keyword, hash)` starts.  Only called on a
    /// non-empty slot array.
    #[inline]
    fn home(&self, keyword: u32, hash: u64) -> usize {
        let mixed = (hash ^ u64::from(keyword).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_mul(0xD6E8_FEB8_6659_FD93);
        // The top log2(slots) bits: the best-mixed ones of a multiply.
        (mixed >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The slot holding `(keyword, hash)`, or the vacant slot that ends its
    /// probe run.  Only called on a non-empty slot array (which, at load
    /// ≤ ½, always has a vacant slot to stop at).
    #[inline]
    fn probe(&self, keyword: u32, hash: u64) -> (usize, bool) {
        let mask = self.slots.len() - 1;
        let mut at = self.home(keyword, hash);
        loop {
            let slot = &self.slots[at];
            if slot.keyword == VACANT {
                return (at, false);
            }
            if slot.hash == hash && slot.keyword == keyword {
                return (at, true);
            }
            at = (at + 1) & mask;
        }
    }

    /// Stamps the row `(keyword, hash)`, inserting it if absent; returns
    /// whether it was absent.
    #[inline]
    fn touch(&mut self, keyword: u32, hash: u64, stamp: u32) -> bool {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let (at, found) = self.probe(keyword, hash);
        self.slots[at] = OverflowSlot {
            hash,
            keyword,
            stamp,
        };
        self.len += usize::from(!found);
        !found
    }

    /// Removes the row `(keyword, hash)` if it is there and — when `stamp`
    /// is given — carries exactly that stamp; returns the stamp it carried.
    #[inline]
    fn take(&mut self, keyword: u32, hash: u64, stamp: Option<u32>) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let (at, found) = self.probe(keyword, hash);
        let carried = self.slots[at].stamp;
        if !found || stamp.is_some_and(|s| s != carried) {
            return None;
        }
        self.remove_at(at);
        Some(carried)
    }

    /// Frees slot `hole` and closes the probe runs that passed over it:
    /// every following row up to the next vacant slot moves back into the
    /// hole if its own run starts at or before it.
    fn remove_at(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut next = (hole + 1) & mask;
        loop {
            let slot = self.slots[next];
            if slot.keyword == VACANT {
                break;
            }
            let home = self.home(slot.keyword, slot.hash);
            // Distances along the probe direction, modulo the table.
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(hole) & mask) {
                self.slots[hole] = slot;
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.slots[hole].keyword = VACANT;
        self.len -= 1;
    }

    /// Doubles the slot array (never shrinks: a steady-state window keeps
    /// the size its warm-up reached) and re-seats every row.
    fn grow(&mut self) {
        let vacant = OverflowSlot {
            hash: 0,
            keyword: VACANT,
            stamp: 0,
        };
        let doubled = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![vacant; doubled]);
        for slot in old.into_iter().filter(|s| s.keyword != VACANT) {
            let (at, _) = self.probe(slot.keyword, slot.hash);
            self.slots[at] = slot;
        }
    }

    /// The occupied slots, in table order.
    fn rows(&self) -> impl Iterator<Item = &OverflowSlot> {
        self.slots.iter().filter(|s| s.keyword != VACANT)
    }
}

/// Per-keyword incremental state over the current window: the **head** of
/// the keyword's window users in hash order, a count of the rest, and the
/// sketch.
///
/// One invariant carries everything: *a live hash ≤ the head's last row is
/// in the head; anything larger is in the [`OverflowTable`]* (and while
/// `over == 0` there is nothing larger, so the head is the whole set).
/// [`UserHasher::hash`] is a bijection, so distinct users never tie and
/// "the `len` smallest" is well defined.  Hence
///
/// * membership, insert and expiry of a row are one binary search over at
///   most `4p` hashes **or** one table probe, never a column move;
/// * the window sketch — the `p` smallest hashes of the window's users —
///   is the first `min(p, len)` rows of `hashes`;
/// * the window user count is `hashes.len() + over`.
///
/// A row carries a *stamp*, the last window push that saw its user, in
/// place of a count of the quanta it occurs in: the row dies exactly when
/// the push it is stamped with is evicted.
#[derive(Debug)]
struct KeywordWindowEntry {
    /// The keyword's smallest live hashes, strictly ascending; at most
    /// `4p`, and at least `min(p, window users)` at rest.
    hashes: Vec<u64>,
    /// `stamps[i]` — the newest in-window push (the index's wrapping push
    /// counter) that saw the user `hashes[i]` stands for.
    stamps: Vec<u32>,
    /// Rows of this keyword in the overflow table.
    over: u32,
    /// The head of `hashes` as the sketch [`WindowState::window_sketch_ref`]
    /// hands out; re-copied only when a row below `p` came or went.
    sketch: MinHashSketch,
    /// Most recent quantum index in which the keyword occurred.
    last_seen: u64,
}

impl KeywordWindowEntry {
    fn new(sketch_size: usize) -> Self {
        let sketch = MinHashSketch::new(sketch_size);
        // Entries are pooled, and a pooled entry serves whichever keyword
        // materializes next: starting both columns at a few quanta's worth
        // of rows keeps a recycled entry from growing step by step under
        // each new owner.
        let rows = 32.min(HEAD_ROWS_PER_SKETCH_ROW * sketch.capacity());
        Self {
            hashes: Vec::with_capacity(rows),
            stamps: Vec::with_capacity(rows),
            over: 0,
            sketch,
            last_seen: 0,
        }
    }

    /// Window users of the keyword.
    fn user_count(&self) -> usize {
        self.hashes.len() + self.over as usize
    }

    fn refresh_sketch(&mut self) {
        let head = self.hashes.len().min(self.sketch.capacity());
        self.sketch.assign_sorted(&self.hashes[..head]);
    }

    /// Routes `hash` by the entry's one invariant: within the head's range
    /// — found at `Ok(row)`, or absent and belonging at `Err(row)` — or,
    /// `None`, above the head's last row.
    #[inline]
    fn head_row(&self, hash: u64) -> Option<Result<usize, usize>> {
        match self.hashes.last() {
            Some(&last) if hash <= last => Some(self.hashes.binary_search(&hash)),
            _ => None,
        }
    }

    /// Records that push `stamp` saw the user hashing to `hash`.  Returns
    /// whether a row below `p` came (the sketch is then stale).
    #[inline]
    fn see(&mut self, keyword: u32, hash: u64, stamp: u32, table: &mut OverflowTable) -> bool {
        let p = self.sketch.capacity();
        let cap = HEAD_ROWS_PER_SKETCH_ROW * p;
        match self.head_row(hash) {
            Some(Ok(row)) => {
                self.stamps[row] = stamp;
                false
            }
            Some(Err(row)) => {
                if self.hashes.len() == cap {
                    // A full head spills its last row: still larger than
                    // everything that stays.
                    if let (Some(h), Some(s)) = (self.hashes.pop(), self.stamps.pop()) {
                        let spilled = table.touch(keyword, h, s);
                        debug_assert!(spilled, "a head row was in the table as well");
                        self.over += 1;
                    }
                }
                self.hashes.insert(row, hash);
                self.stamps.insert(row, stamp);
                row < p
            }
            // With nothing spilled the head is the whole set and, until it
            // is full, simply grows.
            None if self.over == 0 && self.hashes.len() < cap => {
                self.hashes.push(hash);
                self.stamps.push(stamp);
                self.hashes.len() <= p
            }
            None => {
                self.over += u32::from(table.touch(keyword, hash, stamp));
                false
            }
        }
    }

    /// Adds the users that mentioned the keyword in `quantum`, the record
    /// of push `stamp`.
    fn add(
        &mut self,
        keyword: KeywordId,
        quantum: u64,
        users: &[UserId],
        stamp: u32,
        hasher: &UserHasher,
        table: &mut OverflowTable,
    ) {
        let mut stale = false;
        for user in users {
            stale |= self.see(keyword.0, hasher.hash(user.raw()), stamp, table);
        }
        if stale {
            self.refresh_sketch();
        }
        self.last_seen = quantum;
    }

    /// Takes back the users of the evicted push `stamp`: a row goes iff it
    /// still carries that stamp (no later push saw its user).  Returns
    /// whether a row below `p` went.
    fn expire(
        &mut self,
        keyword: KeywordId,
        users: &[UserId],
        stamp: u32,
        hasher: &UserHasher,
        table: &mut OverflowTable,
    ) -> bool {
        let mut stale = false;
        for user in users {
            let hash = hasher.hash(user.raw());
            match self.head_row(hash) {
                Some(Ok(row)) if self.stamps[row] == stamp => {
                    self.hashes.remove(row);
                    self.stamps.remove(row);
                    stale |= row < self.sketch.capacity();
                }
                // Seen again by a later push.
                Some(Ok(_)) => {}
                Some(Err(_)) => debug_assert!(false, "evicted user missing from the head"),
                None => {
                    if table.take(keyword.0, hash, Some(stamp)).is_some() {
                        self.over -= 1;
                    }
                }
            }
        }
        stale
    }

    /// Draws the smallest rows above the head back out of the table until
    /// the head is full again (or nothing is left above it).  The table
    /// cannot be read in order, so the candidates come from the records:
    /// every user of the keyword in `window` (oldest first, the record of
    /// push `oldest_stamp` leading) hashing above the head's last row.
    /// `rows` is scratch.
    fn refill(
        &mut self,
        keyword: KeywordId,
        window: &VecDeque<QuantumRecord>,
        oldest_stamp: u32,
        hasher: &UserHasher,
        table: &mut OverflowTable,
        rows: &mut Vec<(u64, u32)>,
    ) {
        let floor = self.hashes.last().copied();
        rows.clear();
        for (age, record) in window.iter().enumerate() {
            for user in record.users_of(keyword) {
                let hash = hasher.hash(user.raw());
                if floor.is_none_or(|floor| hash > floor) {
                    rows.push((hash, age as u32));
                }
            }
        }
        // By hash, a user's mentions oldest first: the last of a run of
        // equal hashes names the newest push that saw the user.
        rows.sort_unstable();
        let cap = HEAD_ROWS_PER_SKETCH_ROW * self.sketch.capacity();
        for (i, &(hash, age)) in rows.iter().enumerate() {
            if self.hashes.len() == cap {
                break;
            }
            if rows.get(i + 1).is_some_and(|next| next.0 == hash) {
                continue;
            }
            let stamp = table.take(keyword.0, hash, None);
            debug_assert_eq!(stamp, Some(oldest_stamp.wrapping_add(age)));
            if let Some(stamp) = stamp {
                self.hashes.push(hash);
                self.stamps.push(stamp);
                self.over -= 1;
            }
        }
    }
}

/// The incremental window index: everything [`WindowState`] serves per
/// keyword, kept hot instead of recomputed.
///
/// Entries live in a `Vec` indexed **directly by keyword id** (ids are
/// interner-dense), so a lookup is a bounds check instead of a hash probe.
/// A slot is `Some` iff the keyword is materialized and occurs somewhere
/// in the window, so staleness is a slot miss.  Emptied entries are pooled
/// and recycled, keeping steady-state sliding allocation-free.
///
/// Heads, table rows and stamps are all a function of the window's
/// records; what the records cannot tell is *which* keywords are live (an
/// entry outlives the record that materialized it for as long as the
/// keyword stays in the window).  A snapshot therefore carries the
/// threshold and the live keyword ids only, and [`Self::rebuild`] replays
/// the records into the listed entries.
#[derive(Debug)]
struct WindowIndex {
    /// A keyword is *materialized* (gets an incrementally maintained
    /// entry) once a single quantum brings it at least this many distinct
    /// users — the detector wires this to the burstiness threshold σ,
    /// because only keywords that were bursty at least once are ever read
    /// through the index (AKG members, candidate pairs, cluster support).
    /// The long tail of sub-threshold keywords skips all per-quantum
    /// bookkeeping; reads of non-materialized keywords fall back to the
    /// (bit-identical) record walk.  1 materializes everything.
    materialize_threshold: usize,
    /// Slot `k` holds the entry of `KeywordId(k)`, if live.
    entries: Vec<Option<KeywordWindowEntry>>,
    /// Number of live entries.
    live: usize,
    /// The rows above their keyword's head, for every live entry.
    table: OverflowTable,
    /// Records pushed so far, wrapping: the stamp of the next push.  The
    /// window's records carry the `window.len()` stamps below it, oldest
    /// first — the index counts pushes itself because
    /// [`WindowState::push`] accepts any `QuantumRecord::index`.
    pushes: u32,
    /// Recycled entries (scratch — excluded from equality/serialisation).
    entry_pool: Vec<KeywordWindowEntry>,
    /// Candidate rows of one refill (scratch, likewise).
    refill_rows: Vec<(u64, u32)>,
}

/// Equality is **logical**: the threshold, the live keywords and, per
/// entry, what the window serves from it — user count, recency mark and
/// sketch.  Which rows sit in the head and which in the table, and the
/// absolute stamps, depend on history (a head that shrank towards `p`
/// holds fewer rows than the full head a restore replays) and are a
/// function of the records, which [`WindowState`]'s equality compares
/// anyway; `validate_invariants()` re-derives them.
impl PartialEq for WindowIndex {
    fn eq(&self, other: &Self) -> bool {
        if self.materialize_threshold != other.materialize_threshold || self.live != other.live {
            return false;
        }
        fn served(e: &KeywordWindowEntry) -> (usize, u64, &MinHashSketch) {
            (e.user_count(), e.last_seen, &e.sketch)
        }
        self.live_entries()
            .map(|(k, e)| (k, served(e)))
            .eq(other.live_entries().map(|(k, e)| (k, served(e))))
    }
}

impl WindowIndex {
    fn new(materialize_threshold: usize) -> Self {
        Self {
            materialize_threshold: materialize_threshold.max(1),
            entries: Vec::new(),
            live: 0,
            table: OverflowTable::default(),
            pushes: 0,
            entry_pool: Vec::new(),
            refill_rows: Vec::new(),
        }
    }

    /// The live entry of `keyword`, if any.
    #[inline]
    fn entry(&self, keyword: KeywordId) -> Option<&KeywordWindowEntry> {
        self.entries.get(keyword.index()).and_then(Option::as_ref)
    }

    /// Iterates `(keyword, entry)` pairs ascending by keyword id.
    fn live_entries(&self) -> impl Iterator<Item = (KeywordId, &KeywordWindowEntry)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|e| (KeywordId(i as u32), e)))
    }

    /// Puts an empty (pooled, if there is one) entry into the vacant slot
    /// `idx`.
    fn materialize(&mut self, idx: usize, sketch_size: usize) {
        assert!(
            idx < VACANT as usize,
            "keyword id {idx} is reserved for vacant overflow slots"
        );
        if idx >= self.entries.len() {
            self.entries.resize_with(idx + 1, || None);
        }
        debug_assert!(self.entries[idx].is_none(), "slot is already live");
        self.live += 1;
        self.entries[idx] = Some(
            self.entry_pool
                .pop()
                .unwrap_or_else(|| KeywordWindowEntry::new(sketch_size)),
        );
    }

    /// Folds one freshly pushed quantum into the index.  `past` holds the
    /// records already in the window (oldest first, the new record not
    /// yet appended): when a keyword crosses the materialization
    /// threshold for the first time, its entry is built retroactively
    /// from those records, the same rows and stamps an entry maintained
    /// from the start would hold.
    fn insert_record(
        &mut self,
        record: &QuantumRecord,
        hasher: &UserHasher,
        sketch_size: usize,
        past: &VecDeque<QuantumRecord>,
    ) {
        let stamp = self.pushes;
        self.pushes = stamp.wrapping_add(1);
        for (keyword, users) in record.iter() {
            let idx = keyword.index();
            let fresh = self.entry(keyword).is_none();
            if fresh {
                if users.len() < self.materialize_threshold {
                    // Long-tail keyword: the detector will never read its
                    // window aggregates through the index; skip all
                    // bookkeeping (reads fall back to the record walk).
                    continue;
                }
                self.materialize(idx, sketch_size);
            }
            let entry = self.entries[idx].as_mut().expect("materialized above");
            if fresh {
                let oldest = stamp.wrapping_sub(past.len() as u32);
                for (age, old) in past.iter().enumerate() {
                    let old_users = old.users_of(keyword);
                    if !old_users.is_empty() {
                        let old_stamp = oldest.wrapping_add(age as u32);
                        entry.add(
                            keyword,
                            old.index,
                            old_users,
                            old_stamp,
                            hasher,
                            &mut self.table,
                        );
                    }
                }
            }
            entry.add(keyword, record.index, users, stamp, hasher, &mut self.table);
        }
    }

    /// Removes the contributions of `record`, which just slid out and left
    /// `window` behind, in O(Δ) — plus a record walk for each spilled head
    /// the evictions shrank below `p`.  An entry that loses its last row
    /// dies and goes back to the pool.
    fn remove_record(
        &mut self,
        record: &QuantumRecord,
        hasher: &UserHasher,
        window: &VecDeque<QuantumRecord>,
    ) {
        // The window's records carry the stamps just below `pushes`; the
        // evicted one the stamp below those.
        let oldest = self.pushes.wrapping_sub(window.len() as u32);
        let evicted = oldest.wrapping_sub(1);
        for (keyword, users) in record.iter() {
            // Non-materialized keywords have no entry to maintain.
            let Some(slot) = self.entries.get_mut(keyword.index()) else {
                continue;
            };
            let Some(entry) = slot.as_mut() else {
                continue;
            };
            let mut stale = entry.expire(keyword, users, evicted, hasher, &mut self.table);
            if entry.over > 0 && entry.hashes.len() < entry.sketch.capacity() {
                entry.refill(
                    keyword,
                    window,
                    oldest,
                    hasher,
                    &mut self.table,
                    &mut self.refill_rows,
                );
                stale = true;
            }
            if stale {
                entry.refresh_sketch();
            }
            if entry.hashes.is_empty() {
                // A refill leaves an empty head only over an empty table.
                debug_assert!(entry.over == 0 && entry.sketch.is_empty());
                self.live -= 1;
                if let Some(dead) = slot.take() {
                    self.entry_pool.push(dead);
                }
            }
        }
    }

    /// Rebuilds the index a snapshot described by its threshold and its
    /// strictly ascending `live` keyword ids, from the snapshot's records:
    /// the listed entries are created first and the records replayed into
    /// them oldest first, through the path a live push takes.  The result
    /// is `==` the index that was saved (a replayed head is full where the
    /// live one may have shrunk towards `p`; see the equality above).
    ///
    /// Errors on a list no window over these records can have produced:
    /// ids out of order or beyond the decoder bound, a listed keyword that
    /// occurs in no record, or an unlisted keyword some record gives at
    /// least `materialize_threshold` users.
    fn rebuild(
        materialize_threshold: usize,
        live: &[u32],
        window: &VecDeque<QuantumRecord>,
        hasher: &UserHasher,
        sketch_size: usize,
    ) -> dengraph_json::Result<Self> {
        let corrupt = |message: String| dengraph_json::JsonError { message, offset: 0 };
        if live.windows(2).any(|p| p[0] >= p[1]) {
            return Err(corrupt(
                "live index keywords must be strictly ascending".into(),
            ));
        }
        if let Some(&last) = live.last() {
            check_keyword_index(last as usize, 0)?;
        }
        // Every live keyword occurs in a record; checked in full below, but
        // an entry is allocated per listed id first.
        if live.len() > window.iter().map(QuantumRecord::keyword_count).sum() {
            return Err(corrupt(
                "more live index keywords than the window's records hold".into(),
            ));
        }
        let mut index = Self::new(materialize_threshold);
        for &keyword in live {
            index.materialize(keyword as usize, sketch_size);
        }
        for record in window {
            let stamp = index.pushes;
            index.pushes = stamp.wrapping_add(1);
            for (keyword, users) in record.iter() {
                match index.entries.get_mut(keyword.index()) {
                    Some(Some(entry)) => {
                        entry.add(
                            keyword,
                            record.index,
                            users,
                            stamp,
                            hasher,
                            &mut index.table,
                        );
                    }
                    _ if users.len() >= index.materialize_threshold => {
                        return Err(corrupt(format!(
                            "{keyword} has {} users in quantum {} (threshold {}) but is \
                             not in the live list",
                            users.len(),
                            record.index,
                            index.materialize_threshold
                        )));
                    }
                    _ => {}
                }
            }
        }
        if let Some((keyword, _)) = index.live_entries().find(|(_, e)| e.hashes.is_empty()) {
            return Err(corrupt(format!(
                "live index keyword {keyword} occurs in no window record"
            )));
        }
        Ok(index)
    }

    /// Serialises what the records cannot tell: the threshold and the
    /// ascending live keyword ids.
    fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        Value::obj([
            (
                "materialize_threshold",
                Value::from(self.materialize_threshold),
            ),
            (
                "live",
                Value::arr(self.live_entries().map(|(k, _)| Value::from(k.0))),
            ),
        ])
    }

    /// Reads `(threshold, live ids)` from [`Self::to_json`]'s object, or
    /// from the `"entries"` object older documents carry: the keyword ids
    /// are kept, the serialised columns and sub-sketches ignored.
    fn header_from_json(value: &dengraph_json::Value) -> dengraph_json::Result<(usize, Vec<u32>)> {
        let threshold = match value.get_opt("materialize_threshold")? {
            Some(v) => v.as_usize()?,
            None => 1,
        };
        let live = match value.get_opt("live")? {
            Some(ids) => ids
                .as_arr()?
                .iter()
                .map(dengraph_json::Value::as_u32)
                .collect::<dengraph_json::Result<_>>()?,
            None => value
                .get("entries")?
                .as_arr()?
                .iter()
                .map(|pair| match pair.as_arr()? {
                    [keyword, _] => keyword.as_u32(),
                    parts => Err(dengraph_json::JsonError {
                        message: format!("index entry has {} elements", parts.len()),
                        offset: 0,
                    }),
                })
                .collect::<dengraph_json::Result<_>>()?,
        };
        Ok((threshold, live))
    }

    /// Appends the binary form of [`Self::to_json`] (window mode byte 2):
    /// the threshold, then the live ids as [`BinWriter::delta_u32s`] lays a
    /// column out, written here without collecting it first.
    ///
    /// [`BinWriter::delta_u32s`]: dengraph_json::BinWriter::delta_u32s
    fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        w.usize(self.materialize_threshold);
        w.usize(self.live);
        let mut prev = 0u32;
        for (keyword, _) in self.live_entries() {
            // The first id is its own difference from zero.
            w.u32(keyword.0 - prev);
            prev = keyword.0;
        }
    }

    /// Reads `(threshold, live ids)` from the index section older
    /// documents carry (window mode byte 1): per live keyword its id, its
    /// `(user, count)` columns, one sub-sketch per window quantum and its
    /// recency mark.  Only the ids are kept; everything else is walked
    /// with the reader's bounds checks and dropped.
    fn legacy_header_from_bin(
        r: &mut dengraph_json::BinReader<'_>,
    ) -> dengraph_json::Result<(usize, Vec<u32>)> {
        let _sketch_size = r.usize()?;
        let threshold = r.usize()?;
        let entries = r.seq_len(4)?;
        let mut live: Vec<u32> = Vec::with_capacity(entries);
        for _ in 0..entries {
            let delta = r.u32()?;
            live.push(match live.last() {
                None => delta,
                Some(prev) => prev.checked_add(delta).ok_or(dengraph_json::JsonError {
                    message: "index keyword id overflows u32".into(),
                    offset: r.pos(),
                })?,
            });
            // User deltas and counts: two varints a row.
            for _ in 0..2 * r.seq_len(2)? {
                r.u64()?;
            }
            let _p = r.usize()?;
            for _ in 0..r.seq_len(3)? {
                let (_epoch, _p) = (r.u64()?, r.usize()?);
                for _ in 0..r.seq_len(1)? {
                    r.u64()?;
                }
            }
            let _last_seen = r.u64()?;
        }
        Ok((threshold, live))
    }
}

/// The sliding window over the last `w` quanta.
#[derive(Debug, PartialEq)]
pub struct WindowState {
    window: VecDeque<QuantumRecord>,
    capacity: usize,
    hasher: UserHasher,
    sketch_size: usize,
    index: Option<WindowIndex>,
}

impl WindowState {
    /// Creates an empty window of `capacity` quanta using sketches of `p`
    /// minima hashed with `hasher`, in the default (incremental) mode.
    pub fn new(capacity: usize, sketch_size: usize, hasher: UserHasher) -> Self {
        Self::with_mode(capacity, sketch_size, hasher, WindowIndexMode::default())
    }

    /// Creates an empty window with an explicit [`WindowIndexMode`].
    pub fn with_mode(
        capacity: usize,
        sketch_size: usize,
        hasher: UserHasher,
        mode: WindowIndexMode,
    ) -> Self {
        Self {
            window: VecDeque::with_capacity(capacity + 1),
            capacity: capacity.max(1),
            hasher,
            sketch_size,
            index: match mode {
                WindowIndexMode::Rebuild => None,
                WindowIndexMode::Incremental => Some(WindowIndex::new(1)),
            },
        }
    }

    /// The active index mode.
    pub fn mode(&self) -> WindowIndexMode {
        if self.index.is_some() {
            WindowIndexMode::Incremental
        } else {
            WindowIndexMode::Rebuild
        }
    }

    /// Sets the index materialization threshold: a keyword gets an
    /// incrementally maintained index entry once a single quantum brings
    /// it at least this many distinct users (the detector passes the
    /// burstiness threshold σ).  Keywords below the threshold are served
    /// by the bit-identical record walk instead.  No-op under
    /// [`WindowIndexMode::Rebuild`]; the default of 1 materializes
    /// everything.
    pub fn with_materialize_threshold(mut self, threshold: usize) -> Self {
        if let Some(index) = &mut self.index {
            index.materialize_threshold = threshold.max(1);
        }
        self
    }

    /// The index materialization threshold (1 under `Rebuild`).
    pub fn materialize_threshold(&self) -> usize {
        self.index.as_ref().map_or(1, |i| i.materialize_threshold)
    }

    /// Pushes the record of a new quantum.  Returns the record that slid
    /// out of the window, if the window was already full (callers can
    /// recycle its storage via `QuantumRecord::into_storage`).
    pub fn push(&mut self, record: QuantumRecord) -> Option<QuantumRecord> {
        if let Some(index) = &mut self.index {
            index.insert_record(&record, &self.hasher, self.sketch_size, &self.window);
        }
        self.window.push_back(record);
        let evicted = if self.window.len() > self.capacity {
            self.window.pop_front()
        } else {
            None
        };
        if let (Some(index), Some(old)) = (&mut self.index, &evicted) {
            index.remove_record(old, &self.hasher, &self.window);
        }
        evicted
    }

    /// [`Self::push`], for callers that own kernel lanes.  A slide stages
    /// nothing in them (a row is hashed where it is routed: one head search
    /// or one table probe); the signature is what the repo benchmark, which
    /// a change claiming a gain may not edit, calls.
    pub fn push_with_lanes(
        &mut self,
        record: QuantumRecord,
        _lanes: &mut SketchLanes,
    ) -> Option<QuantumRecord> {
        self.push(record)
    }

    /// Number of quanta currently held.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// The window capacity in quanta (the configured `w`, at least 1).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The sketch size `p` used for per-keyword window sketches.
    pub fn sketch_size(&self) -> usize {
        self.sketch_size
    }

    /// Returns `true` when no quantum has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The most recent quantum record.
    pub fn current(&self) -> Option<&QuantumRecord> {
        self.window.back()
    }

    /// Index of the most recent quantum.
    pub fn current_index(&self) -> Option<u64> {
        self.current().map(|r| r.index)
    }

    /// The live index entry for `keyword`, if materialized.
    #[inline]
    fn index_entry(&self, keyword: KeywordId) -> Option<&KeywordWindowEntry> {
        self.index.as_ref().and_then(|index| index.entry(keyword))
    }

    /// Distinct users that mentioned `keyword` anywhere in the window.
    /// Always a walk over the records, in either mode: the index keeps
    /// hashes and a count, not user ids (only the exact-EC ablation reads
    /// user sets).
    pub fn window_user_set(&self, keyword: KeywordId) -> FxHashSet<UserId> {
        let mut users = FxHashSet::default();
        for record in &self.window {
            users.extend(record.users_of(keyword).iter().copied());
        }
        users
    }

    /// Number of distinct users that mentioned `keyword` in the window —
    /// the node weight `w_i` of the ranking function.
    pub fn window_user_count(&self, keyword: KeywordId) -> usize {
        if let Some(entry) = self.index_entry(keyword) {
            return entry.user_count();
        }
        self.window_user_set(keyword).len()
    }

    /// The min-hash sketch of `keyword`'s window user set.
    pub fn window_sketch(&self, keyword: KeywordId) -> MinHashSketch {
        if let Some(sketch) = self.window_sketch_ref(keyword) {
            return sketch.clone();
        }
        let mut sketch = MinHashSketch::new(self.sketch_size);
        for record in &self.window {
            for u in record.users_of(keyword) {
                sketch.insert(&self.hasher, u.raw());
            }
        }
        sketch
    }

    /// Borrows the cached window sketch of `keyword` without cloning.
    /// Only the incremental index caches sketches, so this returns `None`
    /// under [`WindowIndexMode::Rebuild`] and for keywords without a
    /// materialized entry (not in the window, or below the
    /// materialization threshold); callers fall back to
    /// [`Self::window_sketch`], which walks the records.
    pub fn window_sketch_ref(&self, keyword: KeywordId) -> Option<&MinHashSketch> {
        self.index_entry(keyword).map(|e| &e.sketch)
    }

    /// Builds the window sketch of every keyword in `keywords`, fanning out
    /// over keyword shards per `parallelism`.  Results come back in input
    /// order and are identical to calling [`Self::window_sketch`] per key.
    pub fn window_sketches(
        &self,
        keywords: &[KeywordId],
        parallelism: Parallelism,
    ) -> Vec<MinHashSketch> {
        if self.index.is_some() {
            // Cached-sketch clones; still sharded so huge candidate sets
            // fan out, but each shard item is O(p) instead of O(w · Δ).
            return par_map(parallelism, keywords, |&keyword| {
                self.window_sketch(keyword)
            });
        }
        dengraph_minhash::build_sketches(
            parallelism,
            self.sketch_size,
            &self.hasher,
            keywords,
            |&keyword, hasher, sketch, lanes| {
                for record in &self.window {
                    sketch.insert_batch(hasher, record.users_of(keyword), |u| u.raw(), lanes);
                }
            },
        )
    }

    /// Builds the exact window user set of every keyword in `keywords`,
    /// fanning out over keyword shards per `parallelism`.
    pub fn window_user_sets(
        &self,
        keywords: &[KeywordId],
        parallelism: Parallelism,
    ) -> Vec<FxHashSet<UserId>> {
        par_map(parallelism, keywords, |&keyword| {
            self.window_user_set(keyword)
        })
    }

    /// Computes [`Self::window_user_count`] for every keyword in
    /// `keywords`, fanning out over keyword shards per `parallelism`.
    pub fn window_user_counts(
        &self,
        keywords: &[KeywordId],
        parallelism: Parallelism,
    ) -> Vec<usize> {
        par_map(parallelism, keywords, |&keyword| {
            self.window_user_count(keyword)
        })
    }

    /// Exact Jaccard edge correlation of two keywords over the window.
    pub fn exact_edge_correlation(&self, a: KeywordId, b: KeywordId) -> f64 {
        dengraph_minhash::exact_jaccard(&self.window_user_set(a), &self.window_user_set(b))
    }

    /// Min-hash–estimated edge correlation of two keywords over the window.
    /// Returns 0.0 when the sketches share no minimum (the paper's edge
    /// admission gate).
    pub fn estimated_edge_correlation(&self, a: KeywordId, b: KeywordId) -> f64 {
        let sa = self.window_sketch(a);
        let sb = self.window_sketch(b);
        if !sa.shares_minimum(&sb) {
            return 0.0;
        }
        sa.estimate_jaccard(&sb)
    }

    /// The most recent quantum index in which `keyword` occurred, if any.
    pub fn last_seen(&self, keyword: KeywordId) -> Option<u64> {
        if let Some(entry) = self.index_entry(keyword) {
            // The recency mark can only outlive its record if every record
            // containing the keyword was evicted — in which case the entry
            // itself is gone.  So the mark is always in-window.
            return Some(entry.last_seen);
        }
        self.window
            .iter()
            .rev()
            .find(|r| !r.users_of(keyword).is_empty())
            .map(|r| r.index)
    }

    /// Returns `true` when `keyword` has not occurred in any quantum of the
    /// current window (the stale-removal test of Section 3.1).
    pub fn is_stale(&self, keyword: KeywordId) -> bool {
        self.last_seen(keyword).is_none()
    }

    /// Every keyword occurring anywhere in the window.  Always unions the
    /// records — under lazy materialization the index covers only
    /// above-threshold keywords, so it cannot answer this.
    pub fn keywords_in_window(&self) -> FxHashSet<KeywordId> {
        let mut all = FxHashSet::default();
        for record in &self.window {
            all.extend(record.keywords());
        }
        all
    }

    /// Total number of messages currently inside the window.
    pub fn window_message_count(&self) -> usize {
        self.window.iter().map(|r| r.message_count).sum()
    }

    /// Deep-checks every structural invariant of the window and its
    /// incremental index, recomputing each per-keyword aggregate from a
    /// raw record walk and comparing bit-for-bit.  O(w · Δ · keywords) —
    /// strictly a debugging/validation aid (the `invariants` feature wires
    /// it into quantum boundaries); never call it on a hot path.
    ///
    /// Checked:
    /// * the window holds at most `capacity` records with strictly
    ///   increasing quantum indices;
    /// * every record's span table is strictly ascending by keyword,
    ///   covers the flat user column contiguously and exactly, and each
    ///   span's user run is non-empty and strictly ascending (the
    ///   invariant `fold_pairs` owns);
    /// * under [`WindowIndexMode::Incremental`]: the live-entry count
    ///   matches and every keyword some record brought at least
    ///   `materialize_threshold` users is materialized; the overflow table
    ///   is empty or a power of two long, at most half full, counts its
    ///   rows and finds each of them by probing; and for each entry,
    ///   against the record walk (user → newest in-window push): `hashes`
    ///   is strictly ascending, as long as `stamps`, at most `4p` and at
    ///   least `min(p, users)` rows; the table holds exactly `over` rows of
    ///   the keyword, all above the head's last; head ∪ table rows are the
    ///   walk's distinct users, each stamped with the newest push that
    ///   holds it; the recency mark equals the walk's; the cached sketch
    ///   is the first `min(p, len)` head rows and equals a from-scratch
    ///   [`MinHashSketch::from_ids`] over the walk.  No table row belongs
    ///   to a keyword without a live entry.
    pub fn validate_invariants(&self) -> Result<(), String> {
        if self.window.len() > self.capacity {
            return Err(format!(
                "window holds {} records but capacity is {}",
                self.window.len(),
                self.capacity
            ));
        }
        let mut prev_index: Option<u64> = None;
        for record in &self.window {
            if prev_index.is_some_and(|p| record.index <= p) {
                return Err(format!(
                    "quantum indices not strictly increasing: {} after {:?}",
                    record.index, prev_index
                ));
            }
            prev_index = Some(record.index);
            let mut cursor = 0u32;
            let mut prev_keyword: Option<KeywordId> = None;
            for &(k, s, e) in &record.spans {
                if prev_keyword.is_some_and(|p| k <= p) {
                    return Err(format!(
                        "record {}: span keywords not strictly ascending at {k}",
                        record.index
                    ));
                }
                prev_keyword = Some(k);
                if s != cursor || e <= s {
                    return Err(format!(
                        "record {}: span of {k} is [{s}, {e}) but the column cursor is {cursor}",
                        record.index
                    ));
                }
                cursor = e;
                let run = &record.users[s as usize..e as usize];
                if run.windows(2).any(|p| p[0] >= p[1]) {
                    return Err(format!(
                        "record {}: users of {k} are not strictly ascending",
                        record.index
                    ));
                }
            }
            if cursor as usize != record.users.len() {
                return Err(format!(
                    "record {}: spans cover {cursor} users but the column holds {}",
                    record.index,
                    record.users.len()
                ));
            }
        }
        let Some(index) = &self.index else {
            return Ok(());
        };
        let live = index.entries.iter().filter(|slot| slot.is_some()).count();
        if live != index.live {
            return Err(format!(
                "index live count is {} but {live} entries are occupied",
                index.live
            ));
        }
        // Materialization soundness: a record bringing at least the
        // threshold of distinct users forces an entry, and that entry can
        // only die when the keyword leaves the window entirely — so while
        // such a record is still in the window, the entry must exist.
        for record in &self.window {
            for (keyword, users) in record.iter() {
                if users.len() >= index.materialize_threshold && index.entry(keyword).is_none() {
                    return Err(format!(
                        "{keyword} brought {} users in quantum {} (threshold {}) \
                         but has no index entry",
                        users.len(),
                        record.index,
                        index.materialize_threshold
                    ));
                }
            }
        }
        let table = &index.table;
        let slots = table.slots.len();
        if (slots != 0 && !slots.is_power_of_two()) || table.len * 2 > slots {
            return Err(format!(
                "overflow table holds {} rows in {slots} slots",
                table.len
            ));
        }
        // The table's rows by keyword, each found where a probe looks.
        let mut spilled: BTreeMap<u32, BTreeMap<u64, u32>> = BTreeMap::new();
        for row in table.rows() {
            if !table.probe(row.keyword, row.hash).1 {
                return Err(format!(
                    "overflow row ({}, {}) is not on its probe run",
                    KeywordId(row.keyword),
                    row.hash
                ));
            }
            spilled
                .entry(row.keyword)
                .or_default()
                .insert(row.hash, row.stamp);
        }
        let counted: usize = spilled.values().map(BTreeMap::len).sum();
        if counted != table.len {
            return Err(format!(
                "overflow table counts {} rows but holds {counted} distinct ones",
                table.len
            ));
        }
        // The window's records carry the stamps just below `pushes`.
        let oldest = index.pushes.wrapping_sub(self.window.len() as u32);
        for (keyword, entry) in index.live_entries() {
            let rows = entry.hashes.len();
            let p = entry.sketch.capacity();
            if entry.stamps.len() != rows || rows > HEAD_ROWS_PER_SKETCH_ROW * p {
                return Err(format!(
                    "{keyword}: head holds {rows} hashes and {} stamps (p = {p})",
                    entry.stamps.len()
                ));
            }
            if entry.hashes.windows(2).any(|p| p[0] >= p[1]) {
                return Err(format!("{keyword}: head is not strictly ascending"));
            }
            // The keyword's window users with the newest push that holds
            // each, and its recency mark, straight from the records.
            let mut expected: BTreeMap<u64, u32> = BTreeMap::new();
            let mut users: Vec<u64> = Vec::new();
            let mut expected_last = None;
            for (age, record) in self.window.iter().enumerate() {
                let run = record.users_of(keyword);
                if !run.is_empty() {
                    expected_last = Some(record.index);
                }
                for u in run {
                    expected.insert(self.hasher.hash(u.raw()), oldest.wrapping_add(age as u32));
                    users.push(u.raw());
                }
            }
            if expected.is_empty() {
                return Err(format!(
                    "{keyword}: index entry is live but not in the window"
                ));
            }
            if rows < p.min(expected.len()) {
                return Err(format!(
                    "{keyword}: head holds {rows} of {} window users (p = {p})",
                    expected.len()
                ));
            }
            let mut held = spilled.remove(&keyword.0).unwrap_or_default();
            if held.len() != entry.over as usize {
                return Err(format!(
                    "{keyword}: entry counts {} overflow rows, the table holds {}",
                    entry.over,
                    held.len()
                ));
            }
            if let (Some(lowest), Some(last)) = (held.keys().next(), entry.hashes.last()) {
                if lowest <= last {
                    return Err(format!(
                        "{keyword}: an overflow row is not above the head's last row"
                    ));
                }
            }
            held.extend(
                entry
                    .hashes
                    .iter()
                    .copied()
                    .zip(entry.stamps.iter().copied()),
            );
            if held != expected {
                return Err(format!(
                    "{keyword}: head and overflow rows disagree with the record walk \
                     ({} held vs {} recomputed users, or a stale stamp)",
                    held.len(),
                    expected.len()
                ));
            }
            if Some(entry.last_seen) != expected_last {
                return Err(format!(
                    "{keyword}: last_seen is {} but the record walk says {expected_last:?}",
                    entry.last_seen
                ));
            }
            let scratch = MinHashSketch::from_ids(self.sketch_size, &self.hasher, users);
            if entry.sketch.minima() != &entry.hashes[..rows.min(p)] || entry.sketch != scratch {
                return Err(format!(
                    "{keyword}: cached sketch is not the first rows of the head, or \
                     differs from a from-scratch rebuild"
                ));
            }
        }
        if let Some(keyword) = spilled.keys().next() {
            return Err(format!(
                "overflow table holds rows of {}, which has no live entry",
                KeywordId(*keyword)
            ));
        }
        Ok(())
    }

    /// The shared tail of both decoders: checks the geometry a decoder
    /// must not act on unchecked, then rebuilds the index (if the document
    /// has one) from the decoded records.
    fn from_decoded(
        capacity: usize,
        sketch_size: usize,
        seed: u64,
        window: VecDeque<QuantumRecord>,
        index_header: Option<(usize, Vec<u32>)>,
        offset: usize,
    ) -> dengraph_json::Result<Self> {
        // No silent clamping: a zero capacity can only come from a corrupt
        // document (construction enforces ≥ 1).  The sketch size sizes an
        // allocation per live entry, so it is bounded before the rebuild;
        // the detector-level decoder additionally cross-checks both, and
        // the index threshold, against the validated configuration.
        if capacity == 0 {
            return Err(dengraph_json::JsonError {
                message: "window capacity must be at least 1".into(),
                offset,
            });
        }
        if sketch_size > MAX_DECODED_SKETCH_SIZE {
            return Err(dengraph_json::JsonError {
                message: format!(
                    "window sketch size {sketch_size} exceeds the decoder bound \
                     {MAX_DECODED_SKETCH_SIZE}"
                ),
                offset,
            });
        }
        let hasher = UserHasher::new(seed);
        let index = match index_header {
            Some((threshold, live)) => Some(WindowIndex::rebuild(
                threshold,
                &live,
                &window,
                &hasher,
                sketch_size,
            )?),
            None => None,
        };
        Ok(Self {
            window,
            capacity,
            hasher,
            sketch_size,
            index,
        })
    }
}

impl Encode for WindowState {
    /// Serialises the window — capacity, sketch parameters, hasher seed,
    /// the retained quantum records (oldest first) and, under
    /// [`WindowIndexMode::Incremental`], the index's threshold and live
    /// keyword ids.  The index's columns are a function of the records and
    /// are not written.
    fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        Value::obj([
            ("capacity", Value::from(self.capacity)),
            ("sketch_size", Value::from(self.sketch_size)),
            ("seed", Value::from(self.hasher.seed())),
            (
                "mode",
                Value::str(match self.mode() {
                    WindowIndexMode::Rebuild => "rebuild",
                    WindowIndexMode::Incremental => "incremental",
                }),
            ),
            (
                "records",
                Value::arr(self.window.iter().map(|r| r.to_json())),
            ),
            (
                "index",
                match &self.index {
                    Some(index) => index.to_json(),
                    None => Value::Null,
                },
            ),
        ])
    }

    /// Appends the compact binary encoding — geometry, hasher seed, a mode
    /// byte, the retained records (oldest first) and, in incremental mode,
    /// the index's threshold and live keyword ids.
    ///
    /// The mode byte names the layout of what follows the records: `0` —
    /// rebuild mode, nothing; `2` — incremental, the live list.  Byte `1`
    /// (incremental, every entry's columns and sub-sketches) is what
    /// earlier versions wrote; [`Self::from_bin`] still reads it.
    fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        w.usize(self.capacity);
        w.usize(self.sketch_size);
        w.u64(self.hasher.seed());
        w.byte(match self.mode() {
            WindowIndexMode::Rebuild => 0,
            WindowIndexMode::Incremental => 2,
        });
        w.usize(self.window.len());
        for record in &self.window {
            record.to_bin(w);
        }
        if let Some(index) = &self.index {
            index.to_bin(w);
        }
    }
}

impl Decode for WindowState {
    /// Reconstructs a window serialised by [`Self::to_json`], by this
    /// version or by one that still wrote the index's entries.  The
    /// restored window is `==` the original: the records round-trip and
    /// the index is rebuilt from them.
    fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        let header = match (value.get("mode")?.as_str()?, value.get_opt("index")?) {
            ("rebuild", _) => None,
            ("incremental", Some(index)) => Some(WindowIndex::header_from_json(index)?),
            ("incremental", None) => {
                return Err(dengraph_json::JsonError {
                    message: "incremental window is missing its index".into(),
                    offset: 0,
                })
            }
            (other, _) => {
                return Err(dengraph_json::JsonError {
                    message: format!("unknown window mode '{other}'"),
                    offset: 0,
                })
            }
        };
        let window: VecDeque<QuantumRecord> = value
            .get("records")?
            .as_arr()?
            .iter()
            .map(QuantumRecord::from_json)
            .collect::<dengraph_json::Result<_>>()?;
        Self::from_decoded(
            value.get("capacity")?.as_usize()?,
            value.get("sketch_size")?.as_usize()?,
            value.get("seed")?.as_u64()?,
            window,
            header,
            0,
        )
    }

    /// Reconstructs a window encoded by [`Self::to_bin`] (mode byte 0 or
    /// 2) or by an earlier version (mode byte 1).
    fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        let capacity = r.usize()?;
        let sketch_size = r.usize()?;
        let seed = r.u64()?;
        let mode = r.byte()?;
        if mode > 2 {
            return Err(dengraph_json::JsonError {
                message: format!("unknown window mode byte {mode}"),
                offset: r.pos(),
            });
        }
        let records = r.seq_len(2)?;
        let mut window = VecDeque::with_capacity(records.min(capacity.saturating_add(1)));
        for _ in 0..records {
            window.push_back(QuantumRecord::from_bin(r)?);
        }
        let header = match mode {
            0 => None,
            1 => Some(WindowIndex::legacy_header_from_bin(r)?),
            _ => Some((r.usize()?, r.delta_u32s()?)),
        };
        Self::from_decoded(capacity, sketch_size, seed, window, header, r.pos())
    }
}

/// The two-state (low/high) automaton state of a keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KeywordState {
    /// Not bursty.
    #[default]
    Low,
    /// Bursty in some recent quantum (member of the AKG).
    High,
}

/// Tracks the low/high state of every keyword ever seen.
///
/// Only high-state keywords carry information (low is the default), so the
/// machine is a **bitset over keyword ids**: bit `k` set means
/// `KeywordId(k)` is High.  Keyword ids are interner-dense, so the bitset
/// stays compact and both the burstiness test and demotion are single
/// word operations.
#[derive(Debug, Default)]
pub struct KeywordStateMachine {
    /// Bit `k` of word `k / 64` is set iff keyword `k` is High.
    high_bits: Vec<u64>,
    /// Number of set bits.
    high_count: usize,
}

/// Equality compares the set of High keywords; trailing zero words (left
/// behind by demotions) are ignored.
impl PartialEq for KeywordStateMachine {
    fn eq(&self, other: &Self) -> bool {
        if self.high_count != other.high_count {
            return false;
        }
        let len = self.high_bits.len().max(other.high_bits.len());
        (0..len).all(|i| {
            self.high_bits.get(i).copied().unwrap_or(0)
                == other.high_bits.get(i).copied().unwrap_or(0)
        })
    }
}

impl KeywordStateMachine {
    /// Creates an empty state machine.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn bit(&self, keyword: KeywordId) -> bool {
        let idx = keyword.index();
        self.high_bits
            .get(idx / 64)
            .is_some_and(|w| w & (1u64 << (idx % 64)) != 0)
    }

    /// Current state of a keyword (Low if never seen).
    pub fn state(&self, keyword: KeywordId) -> KeywordState {
        if self.bit(keyword) {
            KeywordState::High
        } else {
            KeywordState::Low
        }
    }

    /// Applies the burstiness test for one keyword in the current quantum:
    /// a keyword moves to the high state when at least `sigma` distinct
    /// users mentioned it this quantum.  Returns `(previous, new)` states.
    pub fn observe(
        &mut self,
        keyword: KeywordId,
        users_this_quantum: usize,
        sigma: u32,
    ) -> (KeywordState, KeywordState) {
        let prev = self.state(keyword);
        let new = if users_this_quantum >= sigma as usize {
            KeywordState::High
        } else {
            prev
        };
        if prev == KeywordState::Low && new == KeywordState::High {
            let idx = keyword.index();
            if idx / 64 >= self.high_bits.len() {
                self.high_bits.resize(idx / 64 + 1, 0);
            }
            self.high_bits[idx / 64] |= 1u64 << (idx % 64);
            self.high_count += 1;
        }
        (prev, new)
    }

    /// Forces a keyword back to the low state (used when it is removed from
    /// the AKG by stale removal or lazy update).
    pub fn demote(&mut self, keyword: KeywordId) {
        let idx = keyword.index();
        if let Some(word) = self.high_bits.get_mut(idx / 64) {
            let mask = 1u64 << (idx % 64);
            if *word & mask != 0 {
                *word &= !mask;
                self.high_count -= 1;
            }
        }
    }

    /// Number of keywords currently in the high state.
    pub fn high_count(&self) -> usize {
        self.high_count
    }
}

impl Encode for KeywordStateMachine {
    /// Serialises the machine as the sorted list of High keywords.
    fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        let high = self.high_bits.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64)
                .filter(move |b| bits & (1u64 << b) != 0)
                .map(move |b| Value::from((w * 64 + b) as u32))
        });
        Value::obj([("high", Value::arr(high))])
    }

    /// Appends the compact binary encoding: the sorted High keywords as
    /// one delta column.
    fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        // Walks the set bits only: the bitset spans the whole vocabulary
        // and a snapshot runs inside a quantum's latency.
        let mut high: Vec<u32> = Vec::with_capacity(self.high_count);
        for (word, &bits) in self.high_bits.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                high.push(word as u32 * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        w.delta_u32s(high.iter().copied());
    }
}

impl Decode for KeywordStateMachine {
    /// Reconstructs a machine serialised by [`Self::to_json`].
    fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        let mut machine = Self::new();
        for k in value.get("high")?.as_arr()? {
            let keyword = KeywordId(k.as_u32()?);
            check_keyword_index(keyword.index(), 0)?;
            // `observe` with a saturated count is exactly "force High".
            machine.observe(keyword, 1, 1);
        }
        Ok(machine)
    }

    /// Reconstructs a machine encoded by [`Self::to_bin`].
    fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        let mut machine = Self::new();
        for k in r.delta_u32s()? {
            check_keyword_index(k as usize, r.pos())?;
            machine.observe(KeywordId(k), 1, 1);
        }
        Ok(machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(user: u64, time: u64, kws: &[u32]) -> Message {
        Message::new(
            UserId(user),
            time,
            kws.iter().map(|&k| KeywordId(k)).collect(),
        )
    }

    fn k(i: u32) -> KeywordId {
        KeywordId(i)
    }

    #[test]
    fn quantum_record_counts_distinct_users() {
        let record = QuantumRecord::from_messages(
            0,
            &[
                msg(1, 0, &[10, 11]),
                msg(1, 1, &[10]),
                msg(2, 2, &[10]),
                msg(3, 3, &[11]),
            ],
        );
        assert_eq!(record.user_count(k(10)), 2);
        assert_eq!(record.user_count(k(11)), 2);
        assert_eq!(record.user_count(k(99)), 0);
        assert_eq!(record.message_count, 4);
        assert_eq!(record.keyword_count(), 2);
    }

    #[test]
    fn quantum_record_iterates_sorted() {
        let record = QuantumRecord::from_messages(
            0,
            &[msg(5, 0, &[30, 10]), msg(2, 1, &[20, 10]), msg(9, 2, &[20])],
        );
        let keywords: Vec<KeywordId> = record.keywords().collect();
        assert_eq!(keywords, vec![k(10), k(20), k(30)]);
        assert_eq!(record.users_of(k(10)), &[UserId(2), UserId(5)]);
        assert_eq!(record.users_of(k(20)), &[UserId(2), UserId(9)]);
        assert_eq!(record.users_of(k(30)), &[UserId(5)]);
        assert_eq!(record.users_of(k(99)), &[] as &[UserId]);
    }

    #[test]
    fn quantum_record_parallel_build_matches_serial() {
        let messages: Vec<Message> = (0..200)
            .map(|i| msg(i % 17, i, &[(i % 13) as u32, (i % 7) as u32]))
            .collect();
        let serial = QuantumRecord::from_messages(3, &messages);
        for threads in [2, 4, 8] {
            let parallel =
                QuantumRecord::from_messages_with(3, &messages, Parallelism::Threads(threads));
            assert_eq!(serial, parallel, "diverged at {threads} threads");
        }
    }

    #[test]
    fn quantum_record_json_round_trip() {
        let record = QuantumRecord::from_messages(
            7,
            &[msg(5, 0, &[30, 10]), msg(2, 1, &[20, 10]), msg(9, 2, &[20])],
        );
        let back = QuantumRecord::from_json(&record.to_json()).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn record_storage_recycling_builds_identical_records() {
        let messages: Vec<Message> = (0..50).map(|i| msg(i, i, &[(i % 5) as u32])).collect();
        let fresh = QuantumRecord::from_messages(1, &messages);
        let mut pairs = Vec::new();
        let storage = QuantumRecord::from_messages(0, &messages).into_storage();
        let recycled = QuantumRecord::from_messages_into(
            1,
            &messages,
            Parallelism::Serial,
            &mut pairs,
            &mut PairSortScratch::default(),
            storage,
        );
        assert_eq!(fresh, recycled);
    }

    fn window(capacity: usize) -> WindowState {
        WindowState::new(capacity, 4, UserHasher::new(7))
    }

    #[test]
    fn window_slides_and_evicts() {
        let mut w = window(2);
        assert!(w
            .push(QuantumRecord::from_messages(0, &[msg(1, 0, &[10])]))
            .is_none());
        assert!(w
            .push(QuantumRecord::from_messages(1, &[msg(2, 1, &[10])]))
            .is_none());
        let evicted = w.push(QuantumRecord::from_messages(2, &[msg(3, 2, &[11])]));
        assert_eq!(evicted.unwrap().index, 0);
        assert_eq!(w.len(), 2);
        assert_eq!(w.current_index(), Some(2));
    }

    #[test]
    fn window_user_counts_union_across_quanta() {
        let mut w = window(3);
        w.push(QuantumRecord::from_messages(
            0,
            &[msg(1, 0, &[10]), msg(2, 1, &[10])],
        ));
        w.push(QuantumRecord::from_messages(
            1,
            &[msg(2, 2, &[10]), msg(3, 3, &[10])],
        ));
        assert_eq!(w.window_user_count(k(10)), 3); // users 1, 2, 3
        assert_eq!(w.window_user_count(k(99)), 0);
    }

    #[test]
    fn stale_detection_after_eviction() {
        let mut w = window(2);
        w.push(QuantumRecord::from_messages(0, &[msg(1, 0, &[10])]));
        assert!(!w.is_stale(k(10)));
        w.push(QuantumRecord::from_messages(1, &[msg(2, 1, &[11])]));
        w.push(QuantumRecord::from_messages(2, &[msg(3, 2, &[11])]));
        assert!(w.is_stale(k(10)));
        assert_eq!(w.last_seen(k(11)), Some(2));
    }

    #[test]
    fn exact_and_estimated_correlation_agree_on_identical_user_sets() {
        let mut w = window(3);
        w.push(QuantumRecord::from_messages(
            0,
            &[
                msg(1, 0, &[10, 11]),
                msg(2, 1, &[10, 11]),
                msg(3, 2, &[10, 11]),
            ],
        ));
        assert!((w.exact_edge_correlation(k(10), k(11)) - 1.0).abs() < f64::EPSILON);
        assert!((w.estimated_edge_correlation(k(10), k(11)) - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn disjoint_user_sets_have_zero_correlation() {
        let mut w = window(3);
        w.push(QuantumRecord::from_messages(
            0,
            &[msg(1, 0, &[10]), msg(2, 1, &[11])],
        ));
        assert_eq!(w.exact_edge_correlation(k(10), k(11)), 0.0);
        assert_eq!(w.estimated_edge_correlation(k(10), k(11)), 0.0);
    }

    #[test]
    fn keywords_in_window_unions_quanta() {
        let mut w = window(3);
        w.push(QuantumRecord::from_messages(0, &[msg(1, 0, &[10])]));
        w.push(QuantumRecord::from_messages(1, &[msg(2, 1, &[11])]));
        let kws = w.keywords_in_window();
        assert!(kws.contains(&k(10)) && kws.contains(&k(11)));
        assert_eq!(w.window_message_count(), 2);
    }

    #[test]
    fn cached_sketch_ref_matches_owned_sketch() {
        let mut w = window(3);
        w.push(QuantumRecord::from_messages(
            0,
            &[msg(1, 0, &[10]), msg(2, 1, &[10])],
        ));
        assert_eq!(*w.window_sketch_ref(k(10)).unwrap(), w.window_sketch(k(10)));
        assert!(w.window_sketch_ref(k(99)).is_none());
        let rebuild = WindowState::with_mode(3, 4, UserHasher::new(7), WindowIndexMode::Rebuild);
        assert!(rebuild.window_sketch_ref(k(10)).is_none());
    }

    /// The overflow table against a map, under the churn a slide gives it:
    /// as many removals as inserts, keys that collide into long probe runs
    /// (few distinct hashes, many keywords), growth in the middle.
    #[test]
    fn overflow_table_matches_a_map_under_churn() {
        let mut state = 0x7AB1Eu64;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let mut table = OverflowTable::default();
        let mut map: BTreeMap<(u32, u64), u32> = BTreeMap::new();
        assert_eq!(
            table.take(3, 9, None),
            None,
            "an empty table has no slots to probe"
        );
        for step in 0..20_000u32 {
            // The live set swells to a few hundred rows and shrinks again.
            let universe = if step % 4_000 < 2_000 { 600 } else { 40 };
            let (keyword, hash) = (next(universe) as u32 % 7, next(universe) << 40);
            match next(3) {
                0 => {
                    let absent = table.touch(keyword, hash, step);
                    assert_eq!(absent, map.insert((keyword, hash), step).is_none());
                }
                1 => {
                    // Expiry: only a row still carrying the given stamp goes.
                    let stamp = map
                        .get(&(keyword, hash))
                        .map_or(step, |&s| s + next(2) as u32);
                    let taken = table.take(keyword, hash, Some(stamp));
                    if map.get(&(keyword, hash)) == Some(&stamp) {
                        assert_eq!(taken, map.remove(&(keyword, hash)));
                    } else {
                        assert_eq!(taken, None);
                    }
                }
                _ => assert_eq!(
                    table.take(keyword, hash, None),
                    map.remove(&(keyword, hash))
                ),
            }
            assert_eq!(table.len, map.len());
            assert!(table.len * 2 <= table.slots.len());
            if step % 500 == 0 {
                let rows: BTreeMap<(u32, u64), u32> = table
                    .rows()
                    .map(|row| ((row.keyword, row.hash), row.stamp))
                    .collect();
                assert_eq!(rows, map);
                assert!(table.rows().all(|row| table.probe(row.keyword, row.hash).1));
            }
        }
    }

    /// Builds the same random-ish record stream into one window per mode
    /// and checks every per-keyword read agrees bit-for-bit.
    fn assert_modes_agree(capacity: usize, quanta: &[Vec<Message>]) {
        let hasher = || UserHasher::new(0xFACE);
        let mut rebuild = WindowState::with_mode(capacity, 4, hasher(), WindowIndexMode::Rebuild);
        let mut incremental =
            WindowState::with_mode(capacity, 4, hasher(), WindowIndexMode::Incremental);
        for (q, msgs) in quanta.iter().enumerate() {
            let record = QuantumRecord::from_messages(q as u64, msgs);
            let ev_a = rebuild.push(record.clone());
            let ev_b = incremental.push(record);
            assert_eq!(ev_a.map(|r| r.index), ev_b.map(|r| r.index));
            let mut keywords: Vec<KeywordId> = rebuild.keywords_in_window().into_iter().collect();
            keywords.push(k(999_999)); // a keyword never in the window
            keywords.sort_unstable();
            assert_eq!(keywords.len() - 1, incremental.keywords_in_window().len());
            for &kw in &keywords {
                assert_eq!(
                    rebuild.window_user_set(kw),
                    incremental.window_user_set(kw),
                    "user set diverged for {kw:?} at quantum {q}"
                );
                assert_eq!(
                    rebuild.window_user_count(kw),
                    incremental.window_user_count(kw)
                );
                assert_eq!(
                    rebuild.window_sketch(kw),
                    incremental.window_sketch(kw),
                    "sketch diverged for {kw:?} at quantum {q}"
                );
                assert_eq!(rebuild.last_seen(kw), incremental.last_seen(kw));
                assert_eq!(rebuild.is_stale(kw), incremental.is_stale(kw));
            }
        }
    }

    #[test]
    fn incremental_index_matches_rebuild_reads() {
        // A keyword-heavy stream with overlap across quanta, re-bursts,
        // an empty quantum and full eviction cycles.
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut quanta: Vec<Vec<Message>> = Vec::new();
        for q in 0..24u64 {
            if q % 7 == 6 {
                quanta.push(Vec::new()); // empty quantum: pure slide
                continue;
            }
            let msgs: Vec<Message> = (0..12)
                .map(|m| {
                    let user = next() % 9;
                    let kws: Vec<u32> = (0..1 + next() % 3).map(|_| (next() % 7) as u32).collect();
                    msg(user, q * 100 + m, &kws)
                })
                .collect();
            quanta.push(msgs);
        }
        for capacity in [1, 2, 5] {
            assert_modes_agree(capacity, &quanta);
        }
    }

    #[test]
    fn both_modes_report_their_mode() {
        let w = WindowState::new(2, 4, UserHasher::new(1));
        assert_eq!(w.mode(), WindowIndexMode::Incremental);
        let w = WindowState::with_mode(2, 4, UserHasher::new(1), WindowIndexMode::Rebuild);
        assert_eq!(w.mode(), WindowIndexMode::Rebuild);
    }

    #[test]
    fn rebuild_mode_behaves_like_incremental_on_the_basics() {
        let mut w = WindowState::with_mode(2, 4, UserHasher::new(7), WindowIndexMode::Rebuild);
        w.push(QuantumRecord::from_messages(0, &[msg(1, 0, &[10])]));
        w.push(QuantumRecord::from_messages(1, &[msg(2, 1, &[10])]));
        assert_eq!(w.window_user_count(k(10)), 2);
        w.push(QuantumRecord::from_messages(2, &[msg(3, 2, &[11])]));
        assert_eq!(w.window_user_count(k(10)), 1);
        assert_eq!(w.last_seen(k(10)), Some(1));
    }

    #[test]
    fn state_machine_promotes_on_sigma_users() {
        let mut sm = KeywordStateMachine::new();
        assert_eq!(sm.state(k(1)), KeywordState::Low);
        let (prev, new) = sm.observe(k(1), 3, 4);
        assert_eq!((prev, new), (KeywordState::Low, KeywordState::Low));
        let (prev, new) = sm.observe(k(1), 4, 4);
        assert_eq!((prev, new), (KeywordState::Low, KeywordState::High));
        assert_eq!(sm.high_count(), 1);
    }

    #[test]
    fn state_machine_hysteresis_keeps_high_state() {
        let mut sm = KeywordStateMachine::new();
        sm.observe(k(1), 10, 4);
        // Next quantum it is no longer bursty but stays High (hysteresis);
        // demotion is an explicit decision of the AKG maintenance.
        let (prev, new) = sm.observe(k(1), 0, 4);
        assert_eq!((prev, new), (KeywordState::High, KeywordState::High));
        sm.demote(k(1));
        assert_eq!(sm.state(k(1)), KeywordState::Low);
    }

    #[test]
    fn state_machine_equality_ignores_demotion_residue() {
        let mut a = KeywordStateMachine::new();
        a.observe(k(3), 9, 1);
        a.observe(k(200), 9, 1); // forces a longer bit vector…
        a.demote(k(200)); // …then leaves a trailing zero word behind
        let mut b = KeywordStateMachine::new();
        b.observe(k(3), 9, 1);
        assert_eq!(a, b);
        assert_eq!(
            KeywordStateMachine::from_json(&a.to_json()).unwrap(),
            a,
            "round trip strips the residue"
        );
    }

    #[test]
    fn state_machine_json_lists_sorted_high_keywords() {
        let mut sm = KeywordStateMachine::new();
        for id in [130u32, 2, 64] {
            sm.observe(KeywordId(id), 5, 1);
        }
        let text = dengraph_json::to_string(&sm.to_json());
        assert_eq!(text, "{\"high\":[2,64,130]}");
        assert_eq!(KeywordStateMachine::from_json(&sm.to_json()).unwrap(), sm);
    }
}
