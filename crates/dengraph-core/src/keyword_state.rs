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
//! * the exact user-id set over the window (for exact-EC ablation and for
//!   cluster support in the ranking function), and
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
//!   keyword, a refcounted window user multiset, per-quantum sub-sketches
//!   merged into a cached window sketch, and a recency mark, all updated
//!   in O(Δ) as the window slides, so reads are O(1) / O(set size).
//!
//! Both modes are **bit-identical**: same sketches, same counts, same
//! user sets (`tests/window_index_equivalence.rs` gates this).
//!
//! ## Dense-id layout
//!
//! Keywords are interner-dense `u32` ids (see `dengraph_text`), so the hot
//! structures here avoid hashing entirely:
//!
//! * a [`QuantumRecord`] is two flat arrays — a sorted user column plus one
//!   `(keyword, start, end)` span per keyword — built from a single sorted
//!   `(keyword, user)` pair list, and its backing storage is recycled from
//!   the record that slid out of the window;
//! * the incremental `WindowIndex` is a `Vec` indexed directly by keyword
//!   id (a lookup is one bounds check), with evicted per-quantum
//!   sub-sketch buffers pooled and reused, so steady-state sliding
//!   performs no per-keyword allocation;
//! * [`KeywordStateMachine`] is a bitset over keyword ids.

use std::collections::VecDeque;

use dengraph_graph::fxhash::FxHashSet;
use dengraph_minhash::{kernel, EpochSketchStore, MinHashSketch, SketchLanes, UserHasher};
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

    /// Serialises the record to a [`dengraph_json::Value`]: the quantum
    /// index, message count, and one `[keyword, [users…]]` pair per keyword
    /// (keywords and users sorted, so the encoding is canonical).
    pub fn to_json(&self) -> dengraph_json::Value {
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

    /// Reconstructs a record serialised by [`Self::to_json`].  The input
    /// need not be canonically ordered; the decoder re-sorts.
    pub fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
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

    /// Appends the compact binary encoding — the record's flat layout
    /// written almost verbatim: the delta-encoded keyword column of the
    /// span table, then each span's sorted user run as a delta column.
    pub fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
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

    /// Reconstructs a record encoded by [`Self::to_bin`].  Unlike the JSON
    /// decoder, the binary decoder accepts only the canonical form —
    /// strictly ascending keywords and strictly ascending users per span —
    /// and rejects anything else as corrupt.
    pub fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
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

impl dengraph_json::Encode for QuantumRecord {
    fn encode_json(&self) -> dengraph_json::Value {
        self.to_json()
    }
    fn encode_bin(&self, w: &mut dengraph_json::BinWriter) {
        self.to_bin(w)
    }
}

impl dengraph_json::Decode for QuantumRecord {
    fn decode_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        Self::from_json(value)
    }
    fn decode_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        Self::from_bin(r)
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
    /// (refcounted user multisets + merged per-quantum sub-sketches).
    #[default]
    Incremental,
}

/// Per-keyword incremental state over the current window.
#[derive(Debug, PartialEq)]
struct KeywordWindowEntry {
    /// `(user, number of window quanta in which the user mentioned the
    /// keyword)`, sorted by user.  The user column is exactly the window
    /// user set; its length the window user count.  A record's per-keyword
    /// users arrive sorted, so refcount maintenance is a linear merge of
    /// two sorted runs — no hashing.
    users: Vec<(UserId, u32)>,
    /// One sub-sketch per window quantum containing the keyword, merged
    /// into a cached window sketch.
    sketches: EpochSketchStore,
    /// Most recent quantum index in which the keyword occurred.
    last_seen: u64,
}

/// Folds a sorted run of added users into a sorted `(user, refcount)`
/// column: present users are incremented, absent ones inserted with a
/// count of one.  The added run is tiny compared to the column (a keyword
/// gains a handful of users per quantum but accumulates hundreds over a
/// window), so each addition is a narrowing binary search plus, rarely,
/// one insertion — not a full column rewrite.
fn merge_refcounts(counts: &mut Vec<(UserId, u32)>, added: &[UserId]) {
    // Successive additions are ascending, so the search window shrinks.
    let mut from = 0usize;
    for &u in added {
        match counts[from..].binary_search_by_key(&u, |&(cu, _)| cu) {
            Ok(pos) => {
                counts[from + pos].1 += 1;
                from += pos + 1;
            }
            Err(pos) => {
                counts.insert(from + pos, (u, 1));
                from += pos + 1;
            }
        }
    }
}

/// The incremental window index: everything [`WindowState`] serves per
/// keyword, kept hot instead of recomputed.
///
/// Entries live in a `Vec` indexed **directly by keyword id** (ids are
/// interner-dense), so a lookup is a bounds check instead of a hash probe.
/// A slot is `Some` iff the keyword occurs somewhere in the window, so
/// staleness is a slot miss.  Evicted sub-sketch buffers and emptied
/// entries are pooled and recycled, keeping steady-state sliding
/// allocation-free.
#[derive(Debug)]
struct WindowIndex {
    sketch_size: usize,
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
    /// Recycled sub-sketch buffers (scratch — excluded from equality and
    /// serialisation).
    sketch_pool: Vec<MinHashSketch>,
    /// Recycled entries (scratch — excluded from equality/serialisation).
    entry_pool: Vec<KeywordWindowEntry>,
}

/// Equality compares the live entries only; pool contents and trailing
/// empty slots (artifacts of eviction history) are ignored, so a restored
/// index compares equal to the original.
impl PartialEq for WindowIndex {
    fn eq(&self, other: &Self) -> bool {
        if self.sketch_size != other.sketch_size
            || self.materialize_threshold != other.materialize_threshold
            || self.live != other.live
        {
            return false;
        }
        let len = self.entries.len().max(other.entries.len());
        (0..len).all(|i| {
            let a = self.entries.get(i).and_then(Option::as_ref);
            let b = other.entries.get(i).and_then(Option::as_ref);
            a == b
        })
    }
}

impl WindowIndex {
    fn new(sketch_size: usize) -> Self {
        Self {
            sketch_size,
            materialize_threshold: 1,
            entries: Vec::new(),
            live: 0,
            sketch_pool: Vec::new(),
            entry_pool: Vec::new(),
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

    /// Folds one freshly pushed quantum into the index, reusing pooled
    /// buffers.  `past` holds the records already in the window (oldest
    /// first, the new record not yet appended): when a keyword crosses the
    /// materialization threshold for the first time, its entry is built
    /// retroactively from those records, bit-identical to an entry that
    /// had been maintained from the start (p-minima merging is
    /// order-independent and refcount merging is commutative).
    fn insert_record(
        &mut self,
        record: &QuantumRecord,
        hasher: &UserHasher,
        past: &VecDeque<QuantumRecord>,
        lanes: &mut SketchLanes,
    ) {
        let sketch_size = self.sketch_size;
        let threshold = self.materialize_threshold;
        let entries = &mut self.entries;
        let sketch_pool = &mut self.sketch_pool;
        let entry_pool = &mut self.entry_pool;
        let take_sub = |pool: &mut Vec<MinHashSketch>| match pool.pop() {
            Some(mut s) => {
                s.reset(sketch_size);
                s
            }
            None => MinHashSketch::new(sketch_size),
        };
        for (keyword, users) in record.iter() {
            let idx = keyword.index();
            let materialized = entries.get(idx).is_some_and(|slot| slot.is_some());
            if !materialized {
                if users.len() < threshold {
                    // Long-tail keyword: the detector will never read its
                    // window aggregates through the index; skip all
                    // bookkeeping (reads fall back to the record walk).
                    continue;
                }
                if idx >= entries.len() {
                    entries.resize_with(idx + 1, || None);
                }
                let mut entry = entry_pool.pop().unwrap_or_else(|| KeywordWindowEntry {
                    users: Vec::new(),
                    sketches: EpochSketchStore::new(sketch_size),
                    last_seen: record.index,
                });
                // Retroactive build over the records already in the window.
                for old in past {
                    let old_users = old.users_of(keyword);
                    if old_users.is_empty() {
                        continue;
                    }
                    let mut sub = take_sub(sketch_pool);
                    sub.insert_batch(hasher, old_users, |u| u.raw(), lanes);
                    merge_refcounts(&mut entry.users, old_users);
                    entry.sketches.push(old.index, sub);
                    entry.last_seen = old.index;
                }
                self.live += 1;
                entries[idx] = Some(entry);
            }
            let entry = entries[idx].as_mut().expect("entry just ensured");
            let mut sub = take_sub(sketch_pool);
            sub.insert_batch(hasher, users, |u| u.raw(), lanes);
            merge_refcounts(&mut entry.users, users);
            entry.sketches.push(record.index, sub);
            entry.last_seen = record.index;
        }
    }

    /// Removes one evicted quantum's contributions: O(Δ) decrements plus a
    /// sub-sketch re-merge for each touched keyword.  Evicted buffers go
    /// back to the pools.
    fn remove_record(&mut self, record: &QuantumRecord) {
        let entries = &mut self.entries;
        let sketch_pool = &mut self.sketch_pool;
        let entry_pool = &mut self.entry_pool;
        for (keyword, users) in record.iter() {
            // Non-materialized keywords have no entry to maintain.
            let Some(slot) = entries.get_mut(keyword.index()) else {
                continue;
            };
            let Some(entry) = slot.as_mut() else {
                continue;
            };
            // Like the insert path: the removed run is tiny relative to
            // the column, so decrement via narrowing binary searches and
            // remove only the refcounts that reach zero.
            let mut from = 0usize;
            for &u in users {
                match entry.users[from..].binary_search_by_key(&u, |&(cu, _)| cu) {
                    Ok(pos) => {
                        let at = from + pos;
                        entry.users[at].1 -= 1;
                        if entry.users[at].1 == 0 {
                            entry.users.remove(at);
                            from = at;
                        } else {
                            from = at + 1;
                        }
                    }
                    Err(pos) => {
                        debug_assert!(false, "evicted user missing from refcount column");
                        from += pos;
                    }
                }
            }
            entry
                .sketches
                .evict_through_with(record.index, |sub| sketch_pool.push(sub));
            if entry.users.is_empty() {
                debug_assert!(entry.sketches.is_empty());
                let mut dead = slot.take().expect("entry just matched");
                self.live -= 1;
                dead.users.clear();
                dead.sketches.clear_with(|sub| sketch_pool.push(sub));
                entry_pool.push(dead);
            }
        }
    }

    /// Serialises the index: one `[keyword, entry]` pair per keyword, sorted
    /// by keyword for a canonical encoding.
    fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        Value::obj([
            ("sketch_size", Value::from(self.sketch_size)),
            (
                "materialize_threshold",
                Value::from(self.materialize_threshold),
            ),
            (
                "entries",
                Value::arr(self.live_entries().map(|(k, entry)| {
                    Value::arr([
                        Value::from(k.0),
                        Value::obj([
                            (
                                // Already sorted by user — the canonical
                                // encoding falls out of the layout.
                                "users",
                                Value::arr(
                                    entry.users.iter().map(|&(u, c)| {
                                        Value::arr([Value::from(u.0), Value::from(c)])
                                    }),
                                ),
                            ),
                            ("sketches", entry.sketches.to_json()),
                            ("last_seen", Value::from(entry.last_seen)),
                        ]),
                    ])
                })),
            ),
        ])
    }

    /// Reconstructs an index serialised by [`Self::to_json`].
    fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        let mut index = Self::new(value.get("sketch_size")?.as_usize()?);
        index.materialize_threshold = match value.get_opt("materialize_threshold")? {
            Some(v) => v.as_usize()?.max(1),
            None => 1,
        };
        for pair in value.get("entries")?.as_arr()? {
            let parts = pair.as_arr()?;
            if parts.len() != 2 {
                return Err(dengraph_json::JsonError {
                    message: format!("index entry has {} elements", parts.len()),
                    offset: 0,
                });
            }
            let keyword = KeywordId(parts[0].as_u32()?);
            let entry = &parts[1];
            let mut users: Vec<(UserId, u32)> = Vec::new();
            for user in entry.get("users")?.as_arr()? {
                let uc = user.as_arr()?;
                if uc.len() != 2 {
                    return Err(dengraph_json::JsonError {
                        message: format!("user refcount pair has {} elements", uc.len()),
                        offset: 0,
                    });
                }
                users.push((UserId(uc[0].as_u64()?), uc[1].as_u32()?));
            }
            // Canonical documents are already sorted; re-sort defensively
            // so a hand-edited checkpoint cannot break the merge invariant.
            users.sort_unstable_by_key(|&(u, _)| u);
            let idx = keyword.index();
            check_keyword_index(idx, 0)?;
            if idx >= index.entries.len() {
                index.entries.resize_with(idx + 1, || None);
            }
            if index.entries[idx]
                .replace(KeywordWindowEntry {
                    users,
                    sketches: EpochSketchStore::from_json(entry.get("sketches")?)?,
                    last_seen: entry.get("last_seen")?.as_u64()?,
                })
                .is_some()
            {
                return Err(dengraph_json::JsonError {
                    message: format!("keyword {keyword} serialised twice in window index"),
                    offset: 0,
                });
            }
            index.live += 1;
        }
        Ok(index)
    }

    /// Appends the compact binary encoding: per live entry (ascending by
    /// keyword) the sorted refcount column split into a delta-encoded user
    /// column plus a count column, the sub-sketch store and the recency
    /// mark.
    fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        w.usize(self.sketch_size);
        w.usize(self.materialize_threshold);
        w.usize(self.live);
        let mut prev_k = 0u32;
        for (i, (keyword, entry)) in self.live_entries().enumerate() {
            w.u32(if i == 0 {
                keyword.0
            } else {
                keyword.0 - prev_k
            });
            prev_k = keyword.0;
            w.usize(entry.users.len());
            let mut prev_u = 0u64;
            for (j, &(u, _)) in entry.users.iter().enumerate() {
                w.u64(if j == 0 { u.0 } else { u.0 - prev_u });
                prev_u = u.0;
            }
            for &(_, count) in &entry.users {
                w.u32(count);
            }
            entry.sketches.to_bin(w);
            w.u64(entry.last_seen);
        }
    }

    /// Reconstructs an index encoded by [`Self::to_bin`].  Keywords and
    /// per-entry users must be strictly ascending (the canonical form).
    fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        let corrupt = |r: &dengraph_json::BinReader<'_>, message: &str| dengraph_json::JsonError {
            message: message.into(),
            offset: r.pos(),
        };
        let mut index = Self::new(r.usize()?);
        index.materialize_threshold = r.usize()?.max(1);
        let live = r.seq_len(4)?;
        let mut prev_k = 0u32;
        for i in 0..live {
            let d = r.u32()?;
            let keyword = if i == 0 {
                d
            } else {
                match (d, prev_k.checked_add(d)) {
                    (1.., Some(k)) => k,
                    _ => return Err(corrupt(r, "index keywords must be strictly ascending")),
                }
            };
            prev_k = keyword;
            let len = r.seq_len(1)?;
            let mut users: Vec<(UserId, u32)> = Vec::with_capacity(len);
            let mut prev_u = 0u64;
            for j in 0..len {
                let d = r.u64()?;
                let u = if j == 0 {
                    d
                } else {
                    match (d, prev_u.checked_add(d)) {
                        (1.., Some(u)) => u,
                        _ => return Err(corrupt(r, "index users must be strictly ascending")),
                    }
                };
                prev_u = u;
                users.push((UserId(u), 0));
            }
            for slot in &mut users {
                slot.1 = r.u32()?;
            }
            let sketches = EpochSketchStore::from_bin(r)?;
            let last_seen = r.u64()?;
            let idx = keyword as usize;
            check_keyword_index(idx, r.pos())?;
            if idx >= index.entries.len() {
                index.entries.resize_with(idx + 1, || None);
            }
            index.entries[idx] = Some(KeywordWindowEntry {
                users,
                sketches,
                last_seen,
            });
            index.live += 1;
        }
        Ok(index)
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
                WindowIndexMode::Incremental => Some(WindowIndex::new(sketch_size)),
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
        self.push_with_lanes(record, &mut SketchLanes::new())
    }

    /// Like [`Self::push`], but reuses caller-owned kernel lanes for the
    /// sub-sketch builds — the detector's hot path threads its
    /// [`crate::scratch::ScratchArena`] lanes through here so steady-state
    /// quanta fold without allocating.
    pub fn push_with_lanes(
        &mut self,
        record: QuantumRecord,
        lanes: &mut SketchLanes,
    ) -> Option<QuantumRecord> {
        if let Some(index) = &mut self.index {
            index.insert_record(&record, &self.hasher, &self.window, lanes);
        }
        self.window.push_back(record);
        let evicted = if self.window.len() > self.capacity {
            self.window.pop_front()
        } else {
            None
        };
        if let (Some(index), Some(old)) = (&mut self.index, &evicted) {
            index.remove_record(old);
        }
        evicted
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
    pub fn window_user_set(&self, keyword: KeywordId) -> FxHashSet<UserId> {
        if let Some(entry) = self.index_entry(keyword) {
            return entry.users.iter().map(|&(u, _)| u).collect();
        }
        // Rebuild mode, or a keyword below the materialization threshold:
        // walk the records (bit-identical to the indexed read).
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
            return entry.users.len();
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
        self.index_entry(keyword).map(|e| e.sketches.merged())
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
    ///   matches, every keyword some record brought at least
    ///   `materialize_threshold` users is materialized, and each entry's
    ///   refcount column, recency mark, per-quantum epoch list and cached
    ///   merged sketch are identical to a from-scratch rebuild over the
    ///   records.
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
        if index.sketch_size != self.sketch_size {
            return Err(format!(
                "index sketch size {} disagrees with the window's {}",
                index.sketch_size, self.sketch_size
            ));
        }
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
        for (keyword, entry) in index.live_entries() {
            // Rebuild the refcount column, epoch list and recency mark
            // exactly the way the retroactive materialization path does.
            let mut expected_users: Vec<(UserId, u32)> = Vec::new();
            let mut expected_epochs: Vec<u64> = Vec::new();
            let mut expected_last = None;
            let mut sketch = MinHashSketch::new(self.sketch_size);
            for record in &self.window {
                let run = record.users_of(keyword);
                if run.is_empty() {
                    continue;
                }
                merge_refcounts(&mut expected_users, run);
                expected_epochs.push(record.index);
                expected_last = Some(record.index);
                for u in run {
                    sketch.insert(&self.hasher, u.raw());
                }
            }
            if entry.users != expected_users {
                return Err(format!(
                    "{keyword}: refcount column disagrees with the record walk \
                     ({} cached vs {} recomputed entries)",
                    entry.users.len(),
                    expected_users.len()
                ));
            }
            if expected_users.is_empty() {
                return Err(format!(
                    "{keyword}: index entry is live but not in the window"
                ));
            }
            if Some(entry.last_seen) != expected_last {
                return Err(format!(
                    "{keyword}: last_seen is {} but the record walk says {expected_last:?}",
                    entry.last_seen
                ));
            }
            if entry.sketches.len() != expected_epochs.len()
                || entry.sketches.latest_epoch() != expected_last
            {
                return Err(format!(
                    "{keyword}: {} sub-sketches cached but {} window quanta contain the keyword",
                    entry.sketches.len(),
                    expected_epochs.len()
                ));
            }
            if *entry.sketches.merged() != sketch {
                return Err(format!(
                    "{keyword}: cached merged sketch differs from a from-scratch rebuild"
                ));
            }
        }
        Ok(())
    }

    /// Serialises the window — capacity, sketch parameters, hasher seed,
    /// the retained quantum records (oldest first) and, under
    /// [`WindowIndexMode::Incremental`], the live per-keyword index with
    /// its sub-sketch stores.
    pub fn to_json(&self) -> dengraph_json::Value {
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

    /// Reconstructs a window serialised by [`Self::to_json`].  The restored
    /// window serves bit-identical reads to the original: records, index
    /// multisets, cached sketches and recency marks all round-trip exactly.
    pub fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        let mode = match value.get("mode")?.as_str()? {
            "rebuild" => WindowIndexMode::Rebuild,
            "incremental" => WindowIndexMode::Incremental,
            other => {
                return Err(dengraph_json::JsonError {
                    message: format!("unknown window mode '{other}'"),
                    offset: 0,
                })
            }
        };
        let index = match (mode, value.get_opt("index")?) {
            (WindowIndexMode::Rebuild, _) => None,
            (WindowIndexMode::Incremental, Some(v)) => Some(WindowIndex::from_json(v)?),
            (WindowIndexMode::Incremental, None) => {
                return Err(dengraph_json::JsonError {
                    message: "incremental window is missing its index".into(),
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
        Ok(Self {
            window,
            // No silent clamping: a zero capacity can only come from a
            // corrupt document (construction enforces ≥ 1), and the
            // detector-level decoder additionally cross-checks the value
            // against the validated configuration.
            capacity: match value.get("capacity")?.as_usize()? {
                0 => {
                    return Err(dengraph_json::JsonError {
                        message: "window capacity must be at least 1".into(),
                        offset: 0,
                    })
                }
                c => c,
            },
            hasher: UserHasher::new(value.get("seed")?.as_u64()?),
            sketch_size: value.get("sketch_size")?.as_usize()?,
            index,
        })
    }

    /// Appends the compact binary encoding — geometry, hasher seed, the
    /// retained records (oldest first) and, in incremental mode, the live
    /// index.
    pub fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        w.usize(self.capacity);
        w.usize(self.sketch_size);
        w.u64(self.hasher.seed());
        w.byte(match self.mode() {
            WindowIndexMode::Rebuild => 0,
            WindowIndexMode::Incremental => 1,
        });
        w.usize(self.window.len());
        for record in &self.window {
            record.to_bin(w);
        }
        if let Some(index) = &self.index {
            index.to_bin(w);
        }
    }

    /// Reconstructs a window encoded by [`Self::to_bin`].
    pub fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        let capacity = match r.usize()? {
            0 => {
                return Err(dengraph_json::JsonError {
                    message: "window capacity must be at least 1".into(),
                    offset: r.pos(),
                })
            }
            c => c,
        };
        let sketch_size = r.usize()?;
        let seed = r.u64()?;
        let mode = match r.byte()? {
            0 => WindowIndexMode::Rebuild,
            1 => WindowIndexMode::Incremental,
            other => {
                return Err(dengraph_json::JsonError {
                    message: format!("unknown window mode byte {other}"),
                    offset: r.pos(),
                })
            }
        };
        let records = r.seq_len(2)?;
        let mut window = VecDeque::with_capacity(records.min(capacity + 1));
        for _ in 0..records {
            window.push_back(QuantumRecord::from_bin(r)?);
        }
        let index = match mode {
            WindowIndexMode::Rebuild => None,
            WindowIndexMode::Incremental => Some(WindowIndex::from_bin(r)?),
        };
        Ok(Self {
            window,
            capacity,
            hasher: UserHasher::new(seed),
            sketch_size,
            index,
        })
    }
}

impl dengraph_json::Encode for WindowState {
    fn encode_json(&self) -> dengraph_json::Value {
        self.to_json()
    }
    fn encode_bin(&self, w: &mut dengraph_json::BinWriter) {
        self.to_bin(w)
    }
}

impl dengraph_json::Decode for WindowState {
    fn decode_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        Self::from_json(value)
    }
    fn decode_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        Self::from_bin(r)
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

    /// Serialises the machine as the sorted list of High keywords.
    pub fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        let high = self.high_bits.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64)
                .filter(move |b| bits & (1u64 << b) != 0)
                .map(move |b| Value::from((w * 64 + b) as u32))
        });
        Value::obj([("high", Value::arr(high))])
    }

    /// Reconstructs a machine serialised by [`Self::to_json`].
    pub fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        let mut machine = Self::new();
        for k in value.get("high")?.as_arr()? {
            let keyword = KeywordId(k.as_u32()?);
            check_keyword_index(keyword.index(), 0)?;
            // `observe` with a saturated count is exactly "force High".
            machine.observe(keyword, 1, 1);
        }
        Ok(machine)
    }

    /// Appends the compact binary encoding: the sorted High keywords as
    /// one delta column.
    pub fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
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

    /// Reconstructs a machine encoded by [`Self::to_bin`].
    pub fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        let mut machine = Self::new();
        for k in r.delta_u32s()? {
            check_keyword_index(k as usize, r.pos())?;
            machine.observe(KeywordId(k), 1, 1);
        }
        Ok(machine)
    }
}

impl dengraph_json::Encode for KeywordStateMachine {
    fn encode_json(&self) -> dengraph_json::Value {
        self.to_json()
    }
    fn encode_bin(&self, w: &mut dengraph_json::BinWriter) {
        self.to_bin(w)
    }
}

impl dengraph_json::Decode for KeywordStateMachine {
    fn decode_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        Self::from_json(value)
    }
    fn decode_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        Self::from_bin(r)
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
