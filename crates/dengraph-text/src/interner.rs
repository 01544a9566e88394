//! Keyword and author interning.
//!
//! The dynamic graph, the min-hash sketches and the cluster registry all
//! work on compact [`KeywordId`]s rather than owned strings: a Twitter-scale
//! stream inserts and removes hundreds of thousands of keywords per window
//! and string keys would dominate both memory and hashing cost.
//!
//! Both interners are typed faces of one table, [`Interner`]: every
//! spelling stored once in a byte arena, found through open-addressed
//! slots of `(hash tag, id)`.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::marker::PhantomData;
use std::ops::Range;

/// A compact identifier for an interned keyword.
///
/// Ids are dense (`0..len`) and never reused within one interner, so they
/// can index into side tables directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeywordId(pub u32);

impl Ord for KeywordId {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for KeywordId {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl KeywordId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for KeywordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// A compact identifier for an interned user (screen name / author
/// handle).  Ids are dense (`0..len`) and never reused within one
/// interner, so they slot directly into the stream layer's `UserId`
/// newtype and index side tables without hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UserSym(pub u64);

impl UserSym {
    /// Returns the raw dense id.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for UserSym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// An id an [`Interner`] hands out: a typed wrapper around a dense index.
pub trait Symbol: Copy {
    /// The id of the `index`-th interned spelling.
    fn from_index(index: u32) -> Self;
    /// The dense index this id wraps (`usize::MAX` when none fits).
    fn to_index(self) -> usize;
}

impl Symbol for KeywordId {
    fn from_index(index: u32) -> Self {
        KeywordId(index)
    }

    fn to_index(self) -> usize {
        self.index()
    }
}

impl Symbol for UserSym {
    fn from_index(index: u32) -> Self {
        UserSym(u64::from(index))
    }

    fn to_index(self) -> usize {
        usize::try_from(self.0).unwrap_or(usize::MAX)
    }
}

/// One slot of an [`Interner`]'s index: the high half of the spelling's
/// keyed hash and its id.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    id: u32,
}

impl Slot {
    /// The id of a free slot, which no spelling is ever given.
    const FREE_ID: u32 = u32::MAX;
    const FREE: Slot = Slot {
        tag: 0,
        id: Self::FREE_ID,
    };
}

/// An append-only `string ↔ id` table.  Ids are dense (`0..len`), handed
/// out in insertion order and never reused.
///
/// Every spelling is stored once, in one arena of at most `u32::MAX`
/// bytes (4 GiB); `ends[i]` is where the `i`-th ends.  Lookup hashes the
/// spelling with the keyed std hasher — keywords and author names come
/// from outside the program — and probes the slots linearly from the
/// tag's low bits.  A probe compares spellings only when the 32-bit tags
/// agree, so a hit reads the slots, two offsets and the arena.  Offsets
/// and slots are 4 and 8 bytes and the slots up to 7/8 full, so a 50 000-
/// author table stays near 1 MB.  Cloning copies three vectors.
#[derive(Debug, Clone)]
pub struct Interner<I> {
    arena: String,
    ends: Vec<u32>,
    /// Empty or a power of two long, and at most 7/8 full, so every
    /// probe ends at a free slot.
    slots: Vec<Slot>,
    hasher: RandomState,
    symbol: PhantomData<I>,
}

/// Keyword spellings ↔ [`KeywordId`]s.
pub type KeywordInterner = Interner<KeywordId>;

/// Message authors ↔ [`UserSym`]s.
///
/// The paper computes edge correlation over *user* sets, so every
/// downstream structure (per-quantum records, window refcounts, min-hash
/// sketches) is keyed by user.  Interning authors once at tokenization
/// keeps those structures on dense integers end to end; strings survive
/// only here, for the reporting boundary.
pub type UserInterner = Interner<UserSym>;

impl<I: Symbol> Default for Interner<I> {
    fn default() -> Self {
        Self {
            arena: String::new(),
            ends: Vec::new(),
            slots: Vec::new(),
            hasher: RandomState::new(),
            symbol: PhantomData,
        }
    }
}

impl<I: Symbol> Interner<I> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `word`, returning its stable id.  Repeated calls with the
    /// same word return the same id.
    #[expect(
        clippy::expect_used,
        reason = "ids and arena ends are u32 and must not wrap"
    )]
    pub fn intern(&mut self, word: &str) -> I {
        let tag = self.tag(word);
        let at = match self.probe(word, tag) {
            Ok(id) => return I::from_index(id),
            Err(at) => at,
        };
        let id = u32::try_from(self.ends.len())
            .ok()
            .filter(|&id| id != Slot::FREE_ID)
            .expect("more than u32::MAX - 1 spellings interned");
        let end = u32::try_from(self.arena.len() + word.len())
            .expect("interned spellings exceed the arena's 4 GiB");
        self.arena.push_str(word);
        self.ends.push(end);
        let slot = Slot { tag, id };
        if self.ends.len() * 8 > self.slots.len() * 7 {
            self.grow();
            place(&mut self.slots, slot);
        } else {
            self.slots[at] = slot;
        }
        I::from_index(id)
    }

    /// Looks up an already-interned word without inserting it.
    pub fn get(&self, word: &str) -> Option<I> {
        self.probe(word, self.tag(word)).ok().map(I::from_index)
    }

    /// Resolves an id back to its spelling.
    pub fn resolve(&self, id: I) -> Option<&str> {
        self.arena.get(self.range(id.to_index())?)
    }

    /// Number of distinct interned spellings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Returns `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over `(id, spelling)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (I, &str)> {
        let mut start = 0;
        (0..).zip(&self.ends).map(move |(index, &end)| {
            let end = end as usize;
            let word = &self.arena[start..end];
            start = end;
            (I::from_index(index), word)
        })
    }

    /// The high half of `word`'s keyed hash.  Hashed as bytes, in one
    /// write: the table keys nothing but whole spellings.
    fn tag(&self, word: &str) -> u32 {
        let mut hasher = self.hasher.build_hasher();
        hasher.write(word.as_bytes());
        (hasher.finish() >> 32) as u32
    }

    /// Where the `index`-th spelling sits in the arena.
    fn range(&self, index: usize) -> Option<Range<usize>> {
        let end = *self.ends.get(index)? as usize;
        let start = index
            .checked_sub(1)
            .map_or(0, |prev| self.ends[prev] as usize);
        Some(start..end)
    }

    /// `Ok(id)` of `word`, or `Err` with the free slot its probe ended
    /// at (past the end while there are no slots).
    fn probe(&self, word: &str, tag: u32) -> Result<u32, usize> {
        let mask = self.slots.len().wrapping_sub(1);
        let mut at = tag as usize & mask;
        loop {
            let slot = self.slots.get(at).ok_or(at)?;
            if slot.id == Slot::FREE_ID {
                return Err(at);
            }
            if slot.tag == tag
                && self
                    .range(slot.id as usize)
                    .map(|r| &self.arena.as_bytes()[r])
                    == Some(word.as_bytes())
            {
                return Ok(slot.id);
            }
            at = (at + 1) & mask;
        }
    }

    /// Doubles the slots (16 at first) and re-places every taken one;
    /// a slot's position depends only on its tag, so nothing is rehashed.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![Slot::FREE; len]);
        for slot in old.into_iter().filter(|s| s.id != Slot::FREE_ID) {
            place(&mut self.slots, slot);
        }
    }
}

/// Puts `slot` in the first free slot from its home (the table has one).
fn place(slots: &mut [Slot], slot: Slot) {
    let mask = slots.len() - 1;
    let mut at = slot.tag as usize & mask;
    while slots[at].id != Slot::FREE_ID {
        at = (at + 1) & mask;
    }
    slots[at] = slot;
}

/// The combined symbol table of one message stream: keywords and users,
/// both interned to dense ids at tokenization so the entire hot path —
/// window index, AKG, sketches, cluster membership — runs on integers and
/// resolves back to strings only at the reporting/sink boundary.
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    /// Keyword ↔ id map.
    pub keywords: KeywordInterner,
    /// Author ↔ id map.
    pub users: UserInterner,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_interner_round_trips() {
        let mut table = SymbolTable::new();
        let a = table.users.intern("@quake_fan");
        let b = table.users.intern("@quake_fan");
        let c = table.users.intern("@other");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(table.users.resolve(a), Some("@quake_fan"));
        assert_eq!(table.users.get("@other"), Some(c));
        assert_eq!(table.users.get("@missing"), None);
        assert_eq!(table.users.len(), 2);
        assert!(!table.users.is_empty());
        let names: Vec<&str> = table.users.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["@quake_fan", "@other"]);
        assert_eq!(a.raw(), 0);
        assert_eq!(UserSym(7).to_string(), "u7");
    }

    #[test]
    fn intern_is_idempotent() {
        let mut i = KeywordInterner::new();
        let a = i.intern("earthquake");
        let b = i.intern("earthquake");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_words_get_distinct_ids() {
        let mut i = KeywordInterner::new();
        let a = i.intern("earthquake");
        let b = i.intern("turkey");
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = KeywordInterner::new();
        let id = i.intern("tornado");
        assert_eq!(i.resolve(id), Some("tornado"));
        assert_eq!(i.get("tornado"), Some(id));
        assert_eq!(i.get("missing"), None);
        assert_eq!(i.resolve(KeywordId(99)), None);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut i = KeywordInterner::new();
        for (n, w) in ["a", "b", "c"].iter().enumerate() {
            assert_eq!(i.intern(w).index(), n);
        }
        let words: Vec<_> = i.iter().map(|(_, w)| w).collect();
        assert_eq!(words, vec!["a", "b", "c"]);
    }

    /// The table against a `HashMap` reference over 50 000 names — the
    /// empty name, multi-byte names, prefix pairs spelled into the arena
    /// back to back — across eleven slot growths, and a clone of it.
    #[test]
    fn table_matches_a_hash_map_reference() {
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;
        const ATOMS: &[&str] = &["", "a", "b", "ab", "ba", "é", "日本", "🦀", "ß", "İ", "u1"];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2012);
        let mut table = UserInterner::new();
        let mut reference: HashMap<String, u32> = HashMap::new();
        let mut order: Vec<String> = Vec::new();
        let agree = |table: &UserInterner, order: &[String]| {
            assert_eq!(table.len(), order.len());
            assert_eq!(table.is_empty(), order.is_empty());
            let spelled: Vec<&str> = table.iter().map(|(_, w)| w).collect();
            assert_eq!(spelled, order);
            for (id, (sym, word)) in table.iter().enumerate() {
                assert_eq!(sym, UserSym(id as u64));
                assert_eq!(table.resolve(sym), Some(word));
                assert_eq!(table.get(word), Some(sym), "{word:?}");
            }
            assert_eq!(table.resolve(UserSym(order.len() as u64)), None);
            assert_eq!(table.resolve(UserSym(u64::MAX)), None);
        };
        for step in 0..50_000 {
            let name = match step {
                0 => "ab".to_string(),
                1 => "a".to_string(),
                2 => "b".to_string(),
                3 => String::new(),
                _ if rng.gen_bool(0.3) => order[rng.gen_range(0..order.len())].clone(),
                _ if rng.gen_bool(0.7) => format!("u{}", rng.gen_range(0..1_000_000u32)),
                _ => (0..rng.gen_range(0..4usize))
                    .map(|_| ATOMS[rng.gen_range(0..ATOMS.len())])
                    .collect(),
            };
            let fresh = !reference.contains_key(&name);
            let want = *reference.entry(name.clone()).or_insert_with(|| {
                order.push(name.clone());
                order.len() as u32 - 1
            });
            let want = UserSym(u64::from(want));
            assert_eq!(table.get(&name), (!fresh).then_some(want), "{name:?}");
            assert_eq!(table.intern(&name), want, "{name:?}");
            if step % 12_500 == 0 {
                agree(&table, &order);
            }
        }
        // 16 slots at first, 32 768 for more than 14 336 names.
        assert!(order.len() > 14_336, "the names must force eleven growths");
        agree(&table, &order);
        let mut copy = table.clone();
        agree(&copy, &order);
        assert_eq!(copy.intern("only in the copy"), UserSym(order.len() as u64));
        agree(&table, &order);
    }

    #[test]
    fn display_format() {
        assert_eq!(KeywordId(7).to_string(), "k7");
    }
}
