//! Sliding-window keyword state: the per-keyword user-id bookkeeping of
//! Section 3.1 / 3.2.  The other half of Section 3.1, the two-state
//! automaton, needs no state of its own: a keyword is in the high state
//! exactly while it is a node of the AKG (`crate::akg`).
//!
//! For every keyword the detector needs to know, over the current window of
//! `w` quanta:
//!
//! * how many distinct users mentioned it in the **current** quantum (the
//!   burstiness test against the high-state threshold σ),
//! * the min-hash sketch of the users who mentioned it anywhere in the
//!   window (for edge-correlation estimation; the first `min(p, len)` rows
//!   of the keyword's hash-ordered head, which the scorer reads in place),
//! * how many distinct users mentioned it anywhere in the window (cluster
//!   support in the ranking function), and
//! * the most recent quantum in which it occurred (for stale removal).
//!
//! Each quantum contributes one immutable [`QuantumRecord`]; sliding the
//! window simply drops the oldest record.  A `WindowIndex` keeps, per
//! keyword, what the detector reads — the `p` smallest user hashes of the
//! window (the sketch), the exact distinct-user count and a recency mark —
//! updated in O(Δ) as the window slides, so those reads are O(1).  The
//! index is the only read path: a keyword without an entry (below the
//! materialization threshold in every window quantum) reads as absent,
//! and every AKG keyword has one.  With `p ≥ Δ·w` a sketch is its
//! keyword's whole window hash set, so exact edges need no read of their
//! own.  [`WindowState::validate_invariants`] re-derives every entry from
//! the records; the from-scratch reference is `dengraph_tests::window`.
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
//! in the head, anything larger is in the table.*  So membership and
//! insert of a `(keyword, user)` row are one binary search over ≤ `4p`
//! hashes **or** one table probe — never a move of a window-long column;
//! an eviction takes a keyword's head rows out in **one** stable
//! compaction pass and its table rows one probe each; the sketch is by
//! construction the first `min(p, len)` head rows; the user count is
//! `len + over`; and a keyword with at most `4p` window users never
//! touches the table.
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
//!   columns (`hashes`, `stamps`) in a 64-byte slot, with emptied entries
//!   pooled and reused and the overflow table grown during warm-up only,
//!   so steady-state sliding performs no allocation;
//! * one presence bit per keyword id marks the live entries, so listing
//!   them (a snapshot, equality) walks the set bits instead of every slot
//!   of every id ever seen.

use std::collections::{BTreeMap, VecDeque};

use dengraph_json::{Decode, Encode};
use dengraph_minhash::sketch::MAX_DECODED_SKETCH_SIZE;
use dengraph_minhash::{kernel, SketchLanes, UserHasher};
use dengraph_parallel::Parallelism;
use dengraph_stream::{Message, UserId};
use dengraph_text::KeywordId;

use crate::checkpoint::RecordRing;

/// One per-keyword user span of a [`QuantumRecord`]: the keyword plus the
/// `[start, end)` range of its users in the record's flat user column.
pub(crate) type KeywordSpan = (KeywordId, u32, u32);

/// Recyclable backing storage of a [`QuantumRecord`] (the flat user column
/// and the keyword span table).
pub(crate) type RecordStorage = (Vec<UserId>, Vec<KeywordSpan>);

/// Upper bound on keyword ids accepted by the checkpoint *decoders* of
/// the id-indexed window index slots and of the journal records replayed
/// over them: quantum records, whose replay materializes slots, and graph
/// deltas, whose nodes must own a live slot (every AKG node does).  The
/// slot vector is sized by the largest id, so a corrupted id near
/// `u32::MAX` would otherwise force a multi-gigabyte resize before any
/// other validation could reject the document.  The AKG's id-indexed
/// slots are bounded through the window: its decoders admit only nodes
/// with a live index entry, and replay only nodes its record makes
/// bursty.  The bound caps the decode-time allocation at ≈ 370 MB of
/// slots: 2²² + 1 ids at 64 bytes of window index slot (an
/// `Option<KeywordWindowEntry>`) plus 24 bytes of graph slot (a
/// `DynamicGraph` adjacency `Vec`) and two presence bits each (the
/// index's and the graph's) — a unit test holds the sum to that figure —
/// which is what the *live* dense-id layout occupies for such a
/// vocabulary, so no state a deployment can actually run is rejected.  Raise this constant together with the
/// deployment's memory envelope if interned vocabularies ever approach
/// four million keywords.
const MAX_DECODED_KEYWORD_INDEX: usize = 1 << 22;

pub(crate) fn check_keyword_index(idx: usize, offset: usize) -> dengraph_json::Result<()> {
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
        Self::from_messages_into(
            index,
            messages,
            &mut Vec::new(),
            &mut PairSortScratch::default(),
            (Vec::new(), Vec::new()),
        )
    }

    /// [`Self::from_messages`]; the last argument is ignored and stays
    /// only because the repo benchmark still passes it.
    pub fn from_messages_with(index: u64, messages: &[Message], _parallelism: Parallelism) -> Self {
        Self::from_messages(index, messages)
    }

    /// Scratch-reusing builder: `pairs` is a staging buffer (cleared before
    /// use) and `storage` is recycled backing storage, typically taken from
    /// the record that just slid out of the window — steady-state quanta
    /// then build their record without allocating.
    pub(crate) fn from_messages_into(
        index: u64,
        messages: &[Message],
        pairs: &mut Vec<(KeywordId, UserId)>,
        sort: &mut PairSortScratch,
        storage: RecordStorage,
    ) -> Self {
        pairs.clear();
        for m in messages {
            for &k in &m.keywords {
                pairs.push((k, m.user));
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
            check_keyword_index(keyword.index(), 0)?;
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
        // A replayed record is pushed through the live path, which sizes
        // the id-indexed index slots by its largest keyword.
        if let Some(&last) = keywords.last() {
            check_keyword_index(last as usize, r.pos())?;
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

/// How the sliding window serves per-keyword aggregate reads.  One way is
/// left; the enum and [`WindowState::with_mode`] are held only because the
/// repo benchmark still names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowIndexMode {
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
/// the keyword's window users in hash order and a count of the rest.
///
/// One invariant carries everything: *a live hash ≤ the head's last row is
/// in the head; anything larger is in the [`OverflowTable`]* (and while
/// `over == 0` there is nothing larger, so the head is the whole set).
/// [`UserHasher::hash`] is a bijection, so distinct users never tie and
/// "the `len` smallest" is well defined.  Hence
///
/// * membership and insert of a row are one binary search over at most
///   `4p` hashes **or** one table probe, never a column move, and an
///   eviction is one compaction pass over the head ([`Self::expire`]);
/// * the window sketch — the `p` smallest hashes of the window's users —
///   is the first `min(p, len)` rows of `hashes` ([`Self::minima`]), read
///   in place;
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
    /// The sketch size `p` (at least 1, as [`WindowState::sketch_size`]
    /// clamped; a `u32` beside `over` keeps the entry at 64 bytes).
    p: u32,
    /// Most recent quantum index in which the keyword occurred.
    last_seen: u64,
}

impl KeywordWindowEntry {
    fn new(sketch_size: usize) -> Self {
        let p = u32::try_from(sketch_size.max(1)).unwrap_or(u32::MAX);
        // Entries are pooled, and a pooled entry serves whichever keyword
        // materializes next: starting both columns at a few quanta's worth
        // of rows keeps a recycled entry from growing step by step under
        // each new owner.
        let rows = 32.min(HEAD_ROWS_PER_SKETCH_ROW * p as usize);
        Self {
            hashes: Vec::with_capacity(rows),
            stamps: Vec::with_capacity(rows),
            over: 0,
            p,
            last_seen: 0,
        }
    }

    /// Window users of the keyword.
    fn user_count(&self) -> usize {
        self.hashes.len() + self.over as usize
    }

    /// The window sketch: the first `min(p, len)` head rows.
    fn minima(&self) -> &[u64] {
        &self.hashes[..self.hashes.len().min(self.p as usize)]
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

    /// Records that push `stamp` saw the user hashing to `hash`.
    #[inline]
    fn see(&mut self, keyword: u32, hash: u64, stamp: u32, table: &mut OverflowTable) {
        let cap = HEAD_ROWS_PER_SKETCH_ROW * self.p as usize;
        match self.head_row(hash) {
            Some(Ok(row)) => self.stamps[row] = stamp,
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
            }
            // With nothing spilled the head is the whole set and, until it
            // is full, simply grows.
            None if self.over == 0 && self.hashes.len() < cap => {
                self.hashes.push(hash);
                self.stamps.push(stamp);
            }
            None => self.over += u32::from(table.touch(keyword, hash, stamp)),
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
        for user in users {
            self.see(keyword.0, hasher.hash(user.raw()), stamp, table);
        }
        self.last_seen = quantum;
    }

    /// Takes back the users of the evicted push `stamp`: a row goes iff it
    /// still carries that stamp (no later push saw its user).
    ///
    /// Each user is routed by the head's last row as it was before any
    /// removal: one above it is taken out of the table where it sits; one
    /// at or below it is a head row.  A head row carries `stamp` exactly
    /// when its user is one of these and no later push restamped it, so
    /// the head's share of the eviction is one stable compaction that
    /// drops the rows stamped `stamp` — the rows, in the order, that a
    /// search and a removal per user would drop, for one pass over the
    /// head instead of two column shifts per row.
    fn expire(
        &mut self,
        keyword: KeywordId,
        users: &[UserId],
        stamp: u32,
        hasher: &UserHasher,
        table: &mut OverflowTable,
    ) {
        // With nothing spilled the head is the whole set, and every
        // evicted user is a head row: no hash to route.
        let in_head = if self.over == 0 {
            !users.is_empty()
        } else {
            let last = self.hashes.last().copied();
            let mut in_head = false;
            for user in users {
                let hash = hasher.hash(user.raw());
                if last.is_some_and(|last| hash <= last) {
                    in_head = true;
                } else if table.take(keyword.0, hash, Some(stamp)).is_some() {
                    self.over -= 1;
                }
            }
            in_head
        };
        if !in_head {
            return;
        }
        let Some(first) = self.stamps.iter().position(|&s| s == stamp) else {
            return;
        };
        let mut kept = first;
        for row in first + 1..self.stamps.len() {
            let s = self.stamps[row];
            self.hashes[kept] = self.hashes[row];
            self.stamps[kept] = s;
            kept += usize::from(s != stamp);
        }
        self.hashes.truncate(kept);
        self.stamps.truncate(kept);
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
        let cap = HEAD_ROWS_PER_SKETCH_ROW * self.p as usize;
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

/// The positions of the set bits of `words`, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors(Some(word).filter(|&b| b != 0), |&b| {
            Some(b & (b - 1)).filter(|&b| b != 0)
        })
        .map(move |b| w * 64 + b.trailing_zeros() as usize)
    })
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
    /// bookkeeping and reads as absent.  1 materializes everything.
    materialize_threshold: usize,
    /// Slot `k` holds the entry of `KeywordId(k)`, if live.
    entries: Vec<Option<KeywordWindowEntry>>,
    /// One bit per keyword id, set exactly for the live entries: what
    /// [`Self::live_entries`] walks, 8 bytes per 64 ids instead of one
    /// slot per id ever seen.
    live_bits: Vec<u64>,
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
/// sketch (the head's first `min(p, len)` rows).  Which rows sit in the
/// head and which in the table, and the absolute stamps, depend on
/// history (a head that shrank towards `p` holds fewer rows than the full
/// head a restore replays) and are a function of the records, which
/// [`WindowState`]'s equality compares anyway; `validate_invariants()`
/// re-derives them.
impl PartialEq for WindowIndex {
    fn eq(&self, other: &Self) -> bool {
        if self.materialize_threshold != other.materialize_threshold || self.live != other.live {
            return false;
        }
        fn served(e: &KeywordWindowEntry) -> (usize, u64, &[u64]) {
            (e.user_count(), e.last_seen, e.minima())
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
            live_bits: Vec::new(),
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

    /// Iterates `(keyword, entry)` pairs ascending by keyword id: a walk
    /// of the set bits of [`Self::live_bits`], `O(max id / 64 + live)`.
    fn live_entries(&self) -> impl Iterator<Item = (KeywordId, &KeywordWindowEntry)> {
        set_bits(&self.live_bits).filter_map(|i| {
            let entry = self.entries.get(i)?.as_ref()?;
            Some((KeywordId(i as u32), entry))
        })
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
        let word = idx / 64;
        if word >= self.live_bits.len() {
            self.live_bits.resize(word + 1, 0);
        }
        self.live_bits[word] |= 1 << (idx % 64);
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
                    // window aggregates; skip all bookkeeping (it reads as
                    // absent until a quantum brings it the threshold).
                    continue;
                }
                self.materialize(idx, sketch_size);
            }
            #[expect(clippy::expect_used, reason = "materialized above")]
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
            entry.expire(keyword, users, evicted, hasher, &mut self.table);
            if entry.over > 0 && entry.hashes.len() < entry.p as usize {
                entry.refill(
                    keyword,
                    window,
                    oldest,
                    hasher,
                    &mut self.table,
                    &mut self.refill_rows,
                );
            }
            if entry.hashes.is_empty() {
                // A refill leaves an empty head only over an empty table.
                debug_assert_eq!(entry.over, 0);
                self.live -= 1;
                let idx = keyword.index();
                self.live_bits[idx / 64] &= !(1 << (idx % 64));
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
        // Every live keyword occurs in a record.  Checked before any entry
        // exists: the largest listed id sizes the slot vector.
        if let Some(&keyword) = live.iter().find(|&&k| {
            window
                .iter()
                .all(|record| record.users_of(KeywordId(k)).is_empty())
        }) {
            return Err(corrupt(format!(
                "live index keyword {} occurs in no window record",
                KeywordId(keyword)
            )));
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

    /// Reads `(threshold, live ids)` from [`Self::to_json`]'s object.
    fn header_from_json(value: &dengraph_json::Value) -> dengraph_json::Result<(usize, Vec<u32>)> {
        let live = value
            .get("live")?
            .as_arr()?
            .iter()
            .map(dengraph_json::Value::as_u32)
            .collect::<dengraph_json::Result<_>>()?;
        Ok((value.get("materialize_threshold")?.as_usize()?, live))
    }

    /// Appends the binary form of [`Self::to_json`]: the threshold, then
    /// the live ids as [`BinWriter::delta_u32s`] lays a column out, written
    /// here without collecting it first.
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
}

/// What a detector's validated configuration fixes about its window.  A
/// detector-level decode holds the window section to it before the index
/// is rebuilt: a document that disagrees was not written by this
/// detector, and its sketch size would otherwise size an allocation per
/// live keyword.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowGeometry {
    /// `window_quanta`.
    pub(crate) capacity: usize,
    /// The configuration's sketch size `p`.
    pub(crate) sketch_size: usize,
    /// σ, the index's materialization threshold.
    pub(crate) threshold: usize,
}

/// Most record slots a new window, or a journal's record ring, reserves
/// (each wants about `w`); a longer window grows its ring as it fills.
pub(crate) const RESERVED_RECORDS: usize = 1 << 10;

/// The sliding window over the last `w` quanta.
#[derive(Debug, PartialEq)]
pub struct WindowState {
    window: VecDeque<QuantumRecord>,
    capacity: usize,
    hasher: UserHasher,
    sketch_size: usize,
    index: WindowIndex,
}

impl WindowState {
    /// Creates an empty window of `capacity` quanta using sketches of `p`
    /// minima hashed with `hasher`.
    pub fn new(capacity: usize, sketch_size: usize, hasher: UserHasher) -> Self {
        Self {
            window: VecDeque::with_capacity(capacity.saturating_add(1).min(RESERVED_RECORDS)),
            capacity: capacity.max(1),
            hasher,
            sketch_size,
            index: WindowIndex::new(1),
        }
    }

    /// [`Self::new`]; the last argument has one value and stays only
    /// because the repo benchmark still passes it.
    pub fn with_mode(
        capacity: usize,
        sketch_size: usize,
        hasher: UserHasher,
        _mode: WindowIndexMode,
    ) -> Self {
        Self::new(capacity, sketch_size, hasher)
    }

    /// Sets the index materialization threshold: a keyword gets an
    /// incrementally maintained index entry once a single quantum brings
    /// it at least this many distinct users (the detector passes the
    /// burstiness threshold σ); one below it in every window quantum
    /// reads as absent.  The default of 1 materializes every keyword.
    pub fn with_materialize_threshold(mut self, threshold: usize) -> Self {
        self.index.materialize_threshold = threshold.max(1);
        self
    }

    /// The index materialization threshold.
    pub fn materialize_threshold(&self) -> usize {
        self.index.materialize_threshold
    }

    /// Pushes the record of a new quantum.  Returns the record that slid
    /// out of the window, if the window was already full (callers can
    /// recycle its storage via `QuantumRecord::into_storage`).
    pub fn push(&mut self, record: QuantumRecord) -> Option<QuantumRecord> {
        self.index
            .insert_record(&record, &self.hasher, self.sketch_size, &self.window);
        self.window.push_back(record);
        let evicted = if self.window.len() > self.capacity {
            self.window.pop_front()
        } else {
            None
        };
        if let Some(old) = &evicted {
            self.index.remove_record(old, &self.hasher, &self.window);
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

    /// Distinct users of `keyword` in the window — the node weight `w_i` of
    /// the ranking function.  0 for a keyword with no entry (below the
    /// threshold in every window quantum), which reads as absent.
    pub fn window_user_count(&self, keyword: KeywordId) -> usize {
        self.index
            .entry(keyword)
            .map_or(0, KeywordWindowEntry::user_count)
    }

    /// Borrows the window sketch of `keyword` — its `min(p, users)`
    /// smallest user hashes, ascending — straight off its index entry's
    /// head.  `None` for a keyword with no entry, as above.
    pub fn window_minima(&self, keyword: KeywordId) -> Option<&[u64]> {
        self.index.entry(keyword).map(KeywordWindowEntry::minima)
    }

    /// [`Self::window_user_count`] of every keyword in `keywords`, in input
    /// order.  The detector no longer calls this; it and its ignored last
    /// argument stay only because the repo benchmark still does.
    pub fn window_user_counts(
        &self,
        keywords: &[KeywordId],
        _parallelism: Parallelism,
    ) -> Vec<usize> {
        keywords
            .iter()
            .map(|&keyword| self.window_user_count(keyword))
            .collect()
    }

    /// The most recent quantum in which `keyword` occurred (an entry dies
    /// with its keyword's last record, so the mark is in-window).  `None`
    /// for a keyword with no entry, as above.
    pub fn last_seen(&self, keyword: KeywordId) -> Option<u64> {
        self.index.entry(keyword).map(|entry| entry.last_seen)
    }

    /// The stale-removal test of Section 3.1: `keyword` has no entry, so it
    /// is in no quantum of the window or, like any keyword with no entry,
    /// reads as absent (an AKG keyword in the window has one).
    pub fn is_stale(&self, keyword: KeywordId) -> bool {
        self.last_seen(keyword).is_none()
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
    /// * the index's live-entry count matches and every keyword some record
    ///   brought at least `materialize_threshold` users is materialized;
    ///   the overflow table is empty or a power of two long, at most half
    ///   full, counts its rows and finds each of them by probing; and for
    ///   each entry, against the record walk (user → newest in-window
    ///   push): `hashes` is strictly ascending, as long as `stamps`, at
    ///   most `4p` and at least `min(p, users)` rows; the table holds
    ///   exactly `over` rows of the keyword, all above the head's last;
    ///   head ∪ table rows are the walk's distinct users, each stamped with
    ///   the newest push that holds it; the recency mark equals the walk's;
    ///   the sketch the entry serves, its first `min(p, len)` head rows,
    ///   equals the walk's `p` smallest hashes.
    ///   No table row belongs to a keyword without a live entry.
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
        let index = &self.index;
        let live = index.entries.iter().filter(|slot| slot.is_some()).count();
        if live != index.live {
            return Err(format!(
                "index live count is {} but {live} entries are occupied",
                index.live
            ));
        }
        // The presence bits, both ways: a bit for every live slot (the
        // count of set bits is the live count) and none for any other id.
        let bits: usize = index
            .live_bits
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        if bits != index.live {
            return Err(format!(
                "index live count is {} but {bits} presence bits are set",
                index.live
            ));
        }
        if let Some(stray) =
            set_bits(&index.live_bits).find(|&i| index.entries.get(i).is_none_or(Option::is_none))
        {
            return Err(format!(
                "{} has a presence bit but no live entry",
                KeywordId(stray as u32)
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
            let p = entry.p as usize;
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
            let mut expected_last = None;
            for (age, record) in self.window.iter().enumerate() {
                let run = record.users_of(keyword);
                if !run.is_empty() {
                    expected_last = Some(record.index);
                }
                for u in run {
                    expected.insert(self.hasher.hash(u.raw()), oldest.wrapping_add(age as u32));
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
            if !entry
                .minima()
                .iter()
                .eq(expected.keys().take(self.sketch_size.max(1)))
            {
                return Err(format!(
                    "{keyword}: the head's first rows differ from the walk's {} smallest hashes",
                    self.sketch_size.max(1)
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
    /// must not act on unchecked and that the records' quantum indices
    /// strictly increase, then rebuilds the index from the decoded records.
    fn from_decoded(
        capacity: usize,
        sketch_size: usize,
        seed: u64,
        window: VecDeque<QuantumRecord>,
        (threshold, live): (usize, Vec<u32>),
        expected: Option<WindowGeometry>,
        offset: usize,
    ) -> dengraph_json::Result<Self> {
        // No silent clamping: a zero capacity can only come from a corrupt
        // document (construction enforces ≥ 1).  The sketch size sizes an
        // allocation per live entry, so it is bounded before the rebuild —
        // and so is everything a detector's configuration fixes.
        if let Some(g) = expected {
            if (capacity, sketch_size, threshold) != (g.capacity, g.sketch_size, g.threshold) {
                return Err(dengraph_json::JsonError {
                    message: format!(
                        "window geometry (capacity {capacity}, sketch size {sketch_size}, \
                         index threshold {threshold}) contradicts the embedded configuration \
                         (window_quanta {}, sketch size {}, high_state_threshold {})",
                        g.capacity, g.sketch_size, g.threshold
                    ),
                    offset,
                });
            }
        }
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
        if let Some(pair) = window
            .iter()
            .zip(window.iter().skip(1))
            .find(|(a, b)| b.index <= a.index)
        {
            return Err(dengraph_json::JsonError {
                message: format!(
                    "window quantum indices not strictly increasing: {} after {}",
                    pair.1.index, pair.0.index
                ),
                offset,
            });
        }
        let hasher = UserHasher::new(seed);
        let index = WindowIndex::rebuild(threshold, &live, &window, &hasher, sketch_size)?;
        Ok(Self {
            window,
            capacity,
            hasher,
            sketch_size,
            index,
        })
    }

    /// [`Decode::from_json`], holding the document to the `expected`
    /// geometry if one is given (the detector passes its configuration's).
    pub(crate) fn from_json_with(
        value: &dengraph_json::Value,
        expected: Option<WindowGeometry>,
    ) -> dengraph_json::Result<Self> {
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
            WindowIndex::header_from_json(value.get("index")?)?,
            expected,
            0,
        )
    }

    /// [`Decode::from_bin`], under an `expected` geometry like
    /// [`Self::from_json_with`].
    pub(crate) fn from_bin_with(
        r: &mut dengraph_json::BinReader<'_>,
        expected: Option<WindowGeometry>,
    ) -> dengraph_json::Result<Self> {
        let capacity = r.usize()?;
        let sketch_size = r.usize()?;
        let seed = r.u64()?;
        let records = r.seq_len(2)?;
        let mut window = VecDeque::with_capacity(records.min(capacity.saturating_add(1)));
        for _ in 0..records {
            window.push_back(QuantumRecord::from_bin(r)?);
        }
        let header = (r.usize()?, r.delta_u32s()?);
        Self::from_decoded(
            capacity,
            sketch_size,
            seed,
            window,
            header,
            expected,
            r.pos(),
        )
    }
}

impl Encode for WindowState {
    /// Serialises the window — capacity, sketch parameters, hasher seed,
    /// the retained quantum records (oldest first) and the index's
    /// threshold and live keyword ids.  The index's columns are a function
    /// of the records and are not written.
    fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        Value::obj([
            ("capacity", Value::from(self.capacity)),
            ("sketch_size", Value::from(self.sketch_size)),
            ("seed", Value::from(self.hasher.seed())),
            (
                "records",
                Value::arr(self.window.iter().map(|r| r.to_json())),
            ),
            ("index", self.index.to_json()),
        ])
    }

    /// Appends the compact binary encoding — geometry, hasher seed, the
    /// retained records (oldest first) and the index's threshold and live
    /// keyword ids.
    fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        self.to_bin_reusing(w, &RecordRing::default());
    }
}

impl WindowState {
    /// [`Encode::to_bin`], copying each record `records` holds from those
    /// bytes instead of encoding it again.  The one writer of the window
    /// section.
    pub(crate) fn to_bin_reusing(&self, w: &mut dengraph_json::BinWriter, records: &RecordRing) {
        w.usize(self.capacity);
        w.usize(self.sketch_size);
        w.u64(self.hasher.seed());
        w.usize(self.window.len());
        for record in &self.window {
            match records.get(record.index) {
                Some(bytes) => w.raw(bytes),
                None => record.to_bin(w),
            }
        }
        self.index.to_bin(w);
    }
}

impl Decode for WindowState {
    /// Reconstructs a window serialised by [`Self::to_json`].  The
    /// restored window is `==` the original: the records round-trip
    /// and the index is rebuilt from them.
    fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        Self::from_json_with(value, None)
    }

    /// Reconstructs a window encoded by [`Self::to_bin`], like
    /// [`Self::from_json`].
    fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        Self::from_bin_with(r, None)
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

    /// The estimate two window sketches give; with `p` at least the
    /// union's size it is the exact Jaccard coefficient.
    fn estimate(w: &WindowState, a: KeywordId, b: KeywordId) -> f64 {
        let (a, b) = (w.window_minima(a).unwrap(), w.window_minima(b).unwrap());
        dengraph_minhash::estimate_jaccard_minima(a, b, w.sketch_size())
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
        assert_eq!(w.window_minima(k(10)), w.window_minima(k(11)));
        assert_eq!(estimate(&w, k(10), k(11)), 1.0);
    }

    #[test]
    fn disjoint_user_sets_have_zero_correlation() {
        let mut w = window(3);
        w.push(QuantumRecord::from_messages(
            0,
            &[msg(1, 0, &[10]), msg(2, 1, &[11])],
        ));
        assert_eq!(estimate(&w, k(10), k(11)), 0.0);
    }

    #[test]
    fn window_entries_union_quanta() {
        let mut w = window(2);
        w.push(QuantumRecord::from_messages(0, &[msg(1, 0, &[10])]));
        w.push(QuantumRecord::from_messages(1, &[msg(2, 1, &[11])]));
        assert!(w.window_minima(k(10)).is_some() && w.window_minima(k(11)).is_some());
        w.push(QuantumRecord::from_messages(2, &[msg(3, 2, &[11])]));
        assert!(w.window_minima(k(10)).is_none());
        assert_eq!(w.window_user_count(k(11)), 2);
    }

    /// The sketch lent in place is the `p` smallest hashes of the window
    /// users; a keyword below the materialization threshold in every
    /// window quantum has none, and reads as absent.
    #[test]
    fn cached_sketch_ref_matches_owned_sketch() {
        let hasher = UserHasher::new(7);
        let mut w = window(3).with_materialize_threshold(3);
        w.push(QuantumRecord::from_messages(
            0,
            &[
                msg(1, 0, &[10, 12]),
                msg(2, 1, &[10, 12]),
                msg(3, 2, &[10]),
                msg(4, 3, &[10]),
                msg(5, 4, &[10]),
            ],
        ));
        let mut owned: Vec<u64> = (1..=5).map(|u| hasher.hash(u)).collect();
        owned.sort_unstable();
        owned.truncate(4);
        assert_eq!(w.window_minima(k(10)).unwrap(), owned);
        assert!(w.window_minima(k(99)).is_none());
        assert!(w.window_minima(k(12)).is_none());
        assert_eq!(w.window_user_count(k(12)), 0);
        assert!(w.is_stale(k(12)));
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

    /// Builds a random-ish record stream into a window and checks every
    /// per-keyword read, after every push, against a walk over the
    /// window's own records.
    fn assert_reads_match_the_records(capacity: usize, quanta: &[Vec<Message>]) {
        let hasher = UserHasher::new(0xFACE);
        let mut w = WindowState::new(capacity, 4, hasher);
        for (q, msgs) in quanta.iter().enumerate() {
            w.push(QuantumRecord::from_messages(q as u64, msgs));
            w.validate_invariants().unwrap();
            // Keywords 0..7, and one never in the window.
            for kw in (0..7).map(k).chain([k(999_999)]) {
                let mut hashes = std::collections::BTreeSet::new();
                let mut last_seen = None;
                for record in &w.window {
                    let run = record.users_of(kw);
                    if !run.is_empty() {
                        last_seen = Some(record.index);
                    }
                    hashes.extend(run.iter().map(|u| hasher.hash(u.raw())));
                }
                let minima: Vec<u64> = hashes.iter().copied().take(4).collect();
                assert_eq!(
                    w.window_minima(kw).map(<[u64]>::to_vec),
                    last_seen.map(|_| minima),
                    "sketch diverged for {kw:?} at quantum {q}"
                );
                assert_eq!(w.window_user_count(kw), hashes.len());
                assert_eq!(w.last_seen(kw), last_seen);
                assert_eq!(w.is_stale(kw), last_seen.is_none());
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
            assert_reads_match_the_records(capacity, &quanta);
        }
    }

    /// The decode bound's stated cost (`MAX_DECODED_KEYWORD_INDEX`'s
    /// docs, and the restore entry points') is what the slots weigh: a
    /// window index slot, a graph adjacency slot and two presence bits
    /// (the index's and the graph's) per id.
    #[test]
    fn decoder_bound_caps_index_slots_at_the_stated_figure() {
        let window_slot = std::mem::size_of::<Option<KeywordWindowEntry>>();
        let graph_slot = std::mem::size_of::<Vec<(dengraph_graph::NodeId, f64)>>();
        let ids = MAX_DECODED_KEYWORD_INDEX + 1;
        let worst = (window_slot + graph_slot) * ids + 2 * ids.div_ceil(64) * 8;
        assert!(
            worst <= 370_200_000,
            "{window_slot} + {graph_slot}-byte slots put the decoder bound at {worst} bytes, \
             above the stated 370 MB"
        );
    }
}
