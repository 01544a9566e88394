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
//!   keyword, the refcounted window user multiset as one column **ordered
//!   by the users' hashes** and a recency mark, updated in O(Δ) as the
//!   window slides, so reads are O(1) / O(set size).
//!
//! Both modes are **bit-identical**: same sketches, same counts, same
//! user sets (`tests/window_index_equivalence.rs` gates this).
//!
//! ## The window sketch is the head of the column
//!
//! Section 3.2.2's sketch of a keyword is the `p` smallest hash values of
//! the users who mentioned it in the window.  The index keeps those users
//! anyway, with a count of the window quanta each occurs in, because that
//! is the exact window user set.  [`UserHasher::hash`] is a bijection on
//! `u64`, so ordering that column by hash instead of by user id is a total
//! order, and the sketch is then the column's first `min(p, len)` rows:
//! exact after every insert and every eviction, with no per-quantum
//! sub-sketch to build, keep, re-merge when its quantum leaves, or
//! serialise.
//!
//! The column is a function of the window's records, so a snapshot does
//! not carry it either: it carries the list of live keyword ids — which is
//! history the records cannot tell — and a restore derives every listed
//! keyword's column from the records again.
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
//!   id (a lookup is one bounds check), each entry three parallel columns
//!   (`hashes`, `users`, `counts`), with emptied entries pooled and
//!   reused, so steady-state sliding performs no per-keyword allocation;
//! * [`KeywordStateMachine`] is a bitset over keyword ids.

use std::collections::{BTreeMap, VecDeque};

use dengraph_graph::fxhash::FxHashSet;
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
    /// (one hash-ordered refcount column per keyword, whose head is the
    /// window sketch).
    #[default]
    Incremental,
}

/// Per-keyword incremental state over the current window: the keyword's
/// exact window user multiset as three parallel columns **ordered by the
/// users' hashes**.  [`UserHasher::hash`] is a bijection, so distinct
/// users never tie and the order is total; the window sketch — the `p`
/// smallest hashes of the window's users — is then the first
/// `min(p, len)` rows of `hashes` after every insert and every eviction,
/// with nothing kept per quantum and nothing to re-merge.
#[derive(Debug, PartialEq)]
struct KeywordWindowEntry {
    /// `hasher.hash(users[i])`, strictly ascending.  A column of its own:
    /// every insert and eviction binary-searches it, at an 8-byte stride.
    hashes: Vec<u64>,
    /// The window user set (its length is the window user count).
    users: Vec<UserId>,
    /// Number of window quanta in which `users[i]` mentioned the keyword.
    counts: Vec<u32>,
    /// The head of `hashes` as the sketch [`WindowState::window_sketch_ref`]
    /// hands out; re-copied only when a row below `p` came or went.
    sketch: MinHashSketch,
    /// Most recent quantum index in which the keyword occurred.
    last_seen: u64,
}

impl KeywordWindowEntry {
    fn new(sketch_size: usize) -> Self {
        // Entries are pooled, and a pooled entry serves whichever keyword
        // materializes next: starting every column at a few quanta's worth
        // of rows, in three allocations, keeps a recycled entry from
        // growing step by step under each new owner.
        const INITIAL_ROWS: usize = 32;
        Self {
            hashes: Vec::with_capacity(INITIAL_ROWS),
            users: Vec::with_capacity(INITIAL_ROWS),
            counts: Vec::with_capacity(INITIAL_ROWS),
            sketch: MinHashSketch::new(sketch_size),
            last_seen: 0,
        }
    }

    fn refresh_sketch(&mut self) {
        let head = self.hashes.len().min(self.sketch.capacity());
        self.sketch.assign_sorted(&self.hashes[..head]);
    }

    /// Adds the users that mentioned the keyword in `quantum`.  The run is
    /// tiny next to the column (a handful of users a quantum, hundreds
    /// over a window): one narrowing binary search per user counts those
    /// the column already holds and notes, in `at`, the row each new one
    /// goes in front of; then the new rows go in together.
    fn add(
        &mut self,
        quantum: u64,
        users: &[UserId],
        hasher: &UserHasher,
        lanes: &mut SketchLanes,
        at: &mut Vec<usize>,
    ) {
        let rows = kernel::hash_sorted_rows(hasher, users, |u| u.raw(), lanes);
        at.clear();
        // The run ascends by hash like the column, so the search narrows.
        let mut from = 0usize;
        for i in 0..rows.len() {
            match self.hashes[from..].binary_search(&rows[i].0) {
                Ok(pos) => {
                    self.counts[from + pos] += 1;
                    from += pos + 1;
                }
                Err(pos) => {
                    from += pos;
                    // New rows gather at the front of the run.
                    rows[at.len()] = rows[i];
                    at.push(from);
                }
            }
        }
        if let Some(&first) = at.first() {
            self.insert_rows(at, &rows[..at.len()]);
            if first < self.sketch.capacity() {
                self.refresh_sketch();
            }
        }
        self.last_seen = quantum;
    }

    /// Inserts `new[i]`, a `(hash, user)` seen once, in front of the row
    /// that is at `at[i]` now (`at` ascending).  Works back from the tail
    /// so that every row moves once however many go in: a busy keyword
    /// brings tens of new users a quantum to a column of thousands, and
    /// inserting them one by one would move half the column for each.
    fn insert_rows(&mut self, at: &[usize], new: &[(u64, u64)]) {
        let mut end = self.hashes.len();
        let len = end + at.len();
        self.hashes.resize(len, 0);
        self.users.resize(len, UserId(0));
        self.counts.resize(len, 1);
        for (i, (&row, &(hash, user))) in at.iter().zip(new).enumerate().rev() {
            // `i` rows go in below this one, so the tail it heads moves up
            // by `i + 1` and leaves its slot free.
            let slot = row + i;
            self.hashes.copy_within(row..end, slot + 1);
            self.users.copy_within(row..end, slot + 1);
            self.counts.copy_within(row..end, slot + 1);
            self.hashes[slot] = hash;
            self.users[slot] = UserId(user);
            self.counts[slot] = 1;
            end = row;
        }
    }

    /// Turns gathered rows — every `(hash, user)` of the keyword in the
    /// window, one per quantum it occurs in, in any order, `counts` empty —
    /// into the columns the same adds would have built: sorted by hash,
    /// equal neighbours folded into one row and a count.  `rows` is
    /// scratch.
    fn settle(&mut self, rows: &mut Vec<(u64, UserId)>) {
        rows.clear();
        rows.extend(self.hashes.iter().copied().zip(self.users.iter().copied()));
        rows.sort_unstable();
        self.hashes.clear();
        self.users.clear();
        for &(hash, user) in rows.iter() {
            match self.counts.last_mut() {
                Some(count) if self.hashes.last() == Some(&hash) => *count += 1,
                _ => {
                    self.hashes.push(hash);
                    self.users.push(user);
                    self.counts.push(1);
                }
            }
        }
        self.refresh_sketch();
    }

    /// Takes back one evicted quantum's users: decrements, and drops the
    /// rows whose count reaches zero.
    fn remove(
        &mut self,
        users: &[UserId],
        hasher: &UserHasher,
        lanes: &mut SketchLanes,
        at: &mut Vec<usize>,
    ) {
        at.clear();
        let mut from = 0usize;
        for &(hash, _) in kernel::hash_sorted_rows(hasher, users, |u| u.raw(), lanes).iter() {
            match self.hashes[from..].binary_search(&hash) {
                Ok(pos) => {
                    let row = from + pos;
                    self.counts[row] -= 1;
                    if self.counts[row] == 0 {
                        at.push(row);
                    }
                    from = row + 1;
                }
                Err(pos) => {
                    debug_assert!(false, "evicted user missing from the window column");
                    from += pos;
                }
            }
        }
        if let Some(&first) = at.first() {
            self.remove_rows(at);
            if first < self.sketch.capacity() {
                self.refresh_sketch();
            }
        }
    }

    /// Removes the rows at `at` (strictly ascending), moving every later
    /// row once.
    fn remove_rows(&mut self, at: &[usize]) {
        let len = self.hashes.len();
        for (i, &row) in at.iter().enumerate() {
            // The rows up to the next one to go close the `i + 1` gaps
            // below them.
            let next = at.get(i + 1).copied().unwrap_or(len);
            self.hashes.copy_within(row + 1..next, row - i);
            self.users.copy_within(row + 1..next, row - i);
            self.counts.copy_within(row + 1..next, row - i);
        }
        self.hashes.truncate(len - at.len());
        self.users.truncate(len - at.len());
        self.counts.truncate(len - at.len());
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
/// Every column is a function of the window's records; what the records
/// cannot tell is *which* keywords are live (an entry outlives the record
/// that materialized it for as long as the keyword stays in the window).
/// A snapshot therefore carries the threshold and the live keyword ids
/// only, and [`Self::rebuild`] derives the columns from the records
/// again, so a restored index is `==` the one that was saved.
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
    /// Recycled entries (scratch — excluded from equality/serialisation).
    entry_pool: Vec<KeywordWindowEntry>,
    /// Row positions staged by one entry update (scratch, likewise).
    rows_at: Vec<usize>,
}

/// Equality compares the live entries only; pool contents and trailing
/// empty slots (artifacts of eviction history) are ignored, so a restored
/// index compares equal to the original.
impl PartialEq for WindowIndex {
    fn eq(&self, other: &Self) -> bool {
        if self.materialize_threshold != other.materialize_threshold || self.live != other.live {
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
    fn new(materialize_threshold: usize) -> Self {
        Self {
            materialize_threshold: materialize_threshold.max(1),
            entries: Vec::new(),
            live: 0,
            entry_pool: Vec::new(),
            rows_at: Vec::new(),
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
    /// from those records, bit-identical to an entry that had been
    /// maintained from the start (a column is the multiset of its adds,
    /// whatever their order).
    fn insert_record(
        &mut self,
        record: &QuantumRecord,
        hasher: &UserHasher,
        sketch_size: usize,
        past: &VecDeque<QuantumRecord>,
        lanes: &mut SketchLanes,
    ) {
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
                for old in past {
                    let old_users = old.users_of(keyword);
                    if !old_users.is_empty() {
                        entry.add(old.index, old_users, hasher, lanes, &mut self.rows_at);
                    }
                }
            }
            entry.add(record.index, users, hasher, lanes, &mut self.rows_at);
        }
    }

    /// Removes one evicted quantum's contributions in O(Δ).  An entry
    /// whose column empties dies and goes back to the pool.
    fn remove_record(
        &mut self,
        record: &QuantumRecord,
        hasher: &UserHasher,
        lanes: &mut SketchLanes,
    ) {
        for (keyword, users) in record.iter() {
            // Non-materialized keywords have no entry to maintain.
            let Some(slot) = self.entries.get_mut(keyword.index()) else {
                continue;
            };
            let Some(entry) = slot.as_mut() else {
                continue;
            };
            entry.remove(users, hasher, lanes, &mut self.rows_at);
            if entry.hashes.is_empty() {
                // The sketch emptied with the column's head.
                debug_assert!(entry.sketch.is_empty());
                self.live -= 1;
                if let Some(dead) = slot.take() {
                    self.entry_pool.push(dead);
                }
            }
        }
    }

    /// Rebuilds the index a snapshot described by its threshold and its
    /// strictly ascending `live` keyword ids, from the snapshot's records.
    /// Replaying the records through [`Self::insert_record`] would do, but
    /// a restore wants whole columns at once: every listed keyword's rows
    /// are gathered across the records, sorted once and folded into counts
    /// ([`KeywordWindowEntry::settle`]) — the same columns, since a column
    /// is the sorted multiset of its adds, at about half the cost.
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
            for (keyword, users) in record.iter() {
                match index.entries.get_mut(keyword.index()) {
                    Some(Some(entry)) => {
                        entry
                            .hashes
                            .extend(users.iter().map(|u| hasher.hash(u.raw())));
                        entry.users.extend_from_slice(users);
                        entry.last_seen = record.index;
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
        let mut rows = Vec::new();
        for &keyword in live {
            let entry = index.entries[keyword as usize]
                .as_mut()
                .expect("materialized above");
            if entry.hashes.is_empty() {
                return Err(corrupt(format!(
                    "live index keyword {} occurs in no window record",
                    KeywordId(keyword)
                )));
            }
            entry.settle(&mut rows);
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
        self.push_with_lanes(record, &mut SketchLanes::new())
    }

    /// Like [`Self::push`], but stages the hashed user runs in caller-owned
    /// kernel lanes — the detector's hot path threads its `ScratchArena`
    /// lanes through here so steady-state quanta slide without allocating.
    pub fn push_with_lanes(
        &mut self,
        record: QuantumRecord,
        lanes: &mut SketchLanes,
    ) -> Option<QuantumRecord> {
        if let Some(index) = &mut self.index {
            index.insert_record(&record, &self.hasher, self.sketch_size, &self.window, lanes);
        }
        self.window.push_back(record);
        let evicted = if self.window.len() > self.capacity {
            self.window.pop_front()
        } else {
            None
        };
        if let (Some(index), Some(old)) = (&mut self.index, &evicted) {
            index.remove_record(old, &self.hasher, lanes);
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
            return entry.users.iter().copied().collect();
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
    ///   matches, every keyword some record brought at least
    ///   `materialize_threshold` users is materialized, and for each
    ///   entry the three columns are equally long, `hashes` is strictly
    ///   ascending with `hashes[i] == hash(users[i])`, the `user → count`
    ///   multiset (every count ≥ 1) and the recency mark equal the record
    ///   walk's, and the cached sketch is the head of `hashes` and equals
    ///   a from-scratch [`MinHashSketch::from_ids`] over the walk.
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
        for (keyword, entry) in index.live_entries() {
            let rows = entry.hashes.len();
            if entry.users.len() != rows || entry.counts.len() != rows {
                return Err(format!(
                    "{keyword}: columns hold {rows} hashes, {} users and {} counts",
                    entry.users.len(),
                    entry.counts.len()
                ));
            }
            if entry.hashes.windows(2).any(|p| p[0] >= p[1]) {
                return Err(format!("{keyword}: hash column is not strictly ascending"));
            }
            if let Some(i) =
                (0..rows).find(|&i| self.hasher.hash(entry.users[i].raw()) != entry.hashes[i])
            {
                return Err(format!(
                    "{keyword}: row {i} holds hash {} for {}",
                    entry.hashes[i], entry.users[i]
                ));
            }
            // The window's multiset of this keyword's users and its recency
            // mark, straight from the records.
            let mut expected: BTreeMap<UserId, u32> = BTreeMap::new();
            let mut expected_last = None;
            for record in &self.window {
                let run = record.users_of(keyword);
                if !run.is_empty() {
                    expected_last = Some(record.index);
                }
                for &u in run {
                    *expected.entry(u).or_insert(0) += 1;
                }
            }
            if expected.is_empty() {
                return Err(format!(
                    "{keyword}: index entry is live but not in the window"
                ));
            }
            let cached: BTreeMap<UserId, u32> = entry
                .users
                .iter()
                .copied()
                .zip(entry.counts.iter().copied())
                .collect();
            if cached != expected || entry.counts.contains(&0) {
                return Err(format!(
                    "{keyword}: refcount columns disagree with the record walk \
                     ({rows} cached vs {} recomputed users)",
                    expected.len()
                ));
            }
            if Some(entry.last_seen) != expected_last {
                return Err(format!(
                    "{keyword}: last_seen is {} but the record walk says {expected_last:?}",
                    entry.last_seen
                ));
            }
            let head = &entry.hashes[..rows.min(entry.sketch.capacity())];
            let scratch = MinHashSketch::from_ids(
                self.sketch_size,
                &self.hasher,
                expected.keys().map(|u| u.raw()),
            );
            if entry.sketch.minima() != head || entry.sketch != scratch {
                return Err(format!(
                    "{keyword}: cached sketch is not the head of the hash column, or \
                     differs from a from-scratch rebuild"
                ));
            }
        }
        Ok(())
    }

    /// Serialises the window — capacity, sketch parameters, hasher seed,
    /// the retained quantum records (oldest first) and, under
    /// [`WindowIndexMode::Incremental`], the index's threshold and live
    /// keyword ids.  The index's columns are a function of the records and
    /// are not written.
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

    /// Reconstructs a window serialised by [`Self::to_json`], by this
    /// version or by one that still wrote the index's entries.  The
    /// restored window is `==` the original: the records round-trip and
    /// the index is rebuilt from them.
    pub fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
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

    /// Appends the compact binary encoding — geometry, hasher seed, a mode
    /// byte, the retained records (oldest first) and, in incremental mode,
    /// the index's threshold and live keyword ids.
    ///
    /// The mode byte names the layout of what follows the records: `0` —
    /// rebuild mode, nothing; `2` — incremental, the live list.  Byte `1`
    /// (incremental, every entry's columns and sub-sketches) is what
    /// earlier versions wrote; [`Self::from_bin`] still reads it.
    pub fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
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

    /// Reconstructs a window encoded by [`Self::to_bin`] (mode byte 0 or
    /// 2) or by an earlier version (mode byte 1).
    pub fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
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
