//! The sliding window of Section 3.2, recounted from a plain copy of its
//! last `w` quanta: each keyword's users, recency and `p` smallest user
//! hashes, and the exact Jaccard coefficient the [`oracle`](crate::oracle)
//! scores with.  The engine's window index must serve exactly these.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dengraph_core::keyword_state::WindowState;
use dengraph_minhash::{estimate_jaccard_minima, UserHasher};
use dengraph_stream::{Message, UserId};
use dengraph_text::KeywordId;

/// Keyword → the distinct users that mentioned it.
pub type UserSets = BTreeMap<KeywordId, BTreeSet<UserId>>;

/// The user sets of one quantum's messages.
pub fn user_sets(messages: &[Message]) -> UserSets {
    let mut sets = UserSets::new();
    for message in messages {
        for &keyword in &message.keywords {
            sets.entry(keyword).or_default().insert(message.user);
        }
    }
    sets
}

/// The union of `records`' user sets: each keyword's window users.
pub fn recount<'a>(records: impl IntoIterator<Item = &'a UserSets>) -> UserSets {
    let mut users = UserSets::new();
    for (&keyword, set) in records.into_iter().flatten() {
        users.entry(keyword).or_default().extend(set);
    }
    users
}

/// The exact Jaccard coefficient `|a ∩ b| / |a ∪ b|`; 0.0 when both sets
/// are empty.
pub fn jaccard(a: &BTreeSet<UserId>, b: &BTreeSet<UserId>) -> f64 {
    let shared = a.intersection(b).count();
    match a.len() + b.len() - shared {
        0 => 0.0,
        union => shared as f64 / union as f64,
    }
}

/// A copy of the last `w` quanta, and what a window over them serves.
#[derive(Debug)]
pub struct WindowReference {
    capacity: usize,
    sketch_size: usize,
    threshold: usize,
    hasher: UserHasher,
    /// Oldest first: quantum index and user sets.
    records: VecDeque<(u64, UserSets)>,
    /// The keywords an index holds an entry for: one a quantum brought
    /// `threshold` users keeps it while it occurs in the window.
    live: BTreeSet<KeywordId>,
}

impl WindowReference {
    /// An empty window of `capacity` quanta and sketch width `sketch_size`,
    /// indexing a keyword once a quantum brings it `threshold` users (each
    /// at least 1, as the engine clamps them).
    pub fn new(capacity: usize, sketch_size: usize, hasher: UserHasher, threshold: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            sketch_size: sketch_size.max(1),
            threshold: threshold.max(1),
            hasher,
            records: VecDeque::new(),
            live: BTreeSet::new(),
        }
    }

    /// Pushes quantum `index`, dropping the oldest past `w`.
    pub fn push(&mut self, index: u64, messages: &[Message]) {
        let record = user_sets(messages);
        let bursty = record.iter().filter(|(_, u)| u.len() >= self.threshold);
        self.live.extend(bursty.map(|(&keyword, _)| keyword));
        self.records.push_back((index, record));
        if self.records.len() > self.capacity {
            self.records.pop_front();
        }
        let records = &self.records;
        self.live
            .retain(|k| records.iter().any(|(_, r)| r.contains_key(k)));
    }

    /// The distinct users that mentioned `keyword` in the window.
    pub fn users(&self, keyword: KeywordId) -> BTreeSet<UserId> {
        let sets = self.records.iter().filter_map(|(_, r)| r.get(&keyword));
        sets.flatten().copied().collect()
    }

    /// The last quantum of the window `keyword` occurs in.
    pub fn last_seen(&self, keyword: KeywordId) -> Option<u64> {
        let mut records = self.records.iter().rev();
        records.find(|(_, r)| r.contains_key(&keyword)).map(|r| r.0)
    }

    /// The `p` smallest hashes of `keyword`'s window users, ascending.
    pub fn minima(&self, keyword: KeywordId) -> Vec<u64> {
        let users = self.users(keyword);
        let hashes: BTreeSet<u64> = users.iter().map(|u| self.hasher.hash(u.raw())).collect();
        hashes.into_iter().take(self.sketch_size).collect()
    }

    /// The min-hash estimate of two keywords' Jaccard coefficient from
    /// their [`Self::minima`].
    pub fn estimate(&self, a: KeywordId, b: KeywordId) -> f64 {
        estimate_jaccard_minima(&self.minima(a), &self.minima(b), self.sketch_size)
    }

    /// Compares `window`'s reads of each of `keywords` with the reference:
    /// an indexed keyword serves its minima, user count and recency, any
    /// other reads as absent.
    pub fn check(
        &self,
        window: &WindowState,
        keywords: impl IntoIterator<Item = KeywordId>,
    ) -> Result<(), String> {
        for k in keywords {
            let expected = match self.live.contains(&k) {
                true => (Some(self.minima(k)), self.users(k).len(), self.last_seen(k)),
                false => (None, 0, None),
            };
            let minima = window.window_minima(k).map(<[u64]>::to_vec);
            let served = (minima, window.window_user_count(k), window.last_seen(k));
            if served != expected || window.is_stale(k) != expected.2.is_none() {
                return Err(format!(
                    "{k}: the window serves (minima, users, last seen) {served:?}, \
                     the reference {expected:?}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u64]) -> BTreeSet<UserId> {
        ids.iter().map(|&id| UserId(id)).collect()
    }

    #[test]
    fn identical_sets_give_one() {
        assert_eq!(jaccard(&set(&[1, 2, 3]), &set(&[1, 2, 3])), 1.0);
    }

    #[test]
    fn disjoint_sets_give_zero() {
        assert_eq!(jaccard(&set(&[1, 2]), &set(&[3, 4])), 0.0);
    }

    #[test]
    fn partial_overlap() {
        // |{2,3}| / |{1,2,3,4}| = 0.5
        assert_eq!(jaccard(&set(&[1, 2, 3]), &set(&[2, 3, 4])), 0.5);
    }

    #[test]
    fn empty_sets() {
        assert_eq!(jaccard(&set(&[]), &set(&[])), 0.0);
        assert_eq!(jaccard(&set(&[1]), &set(&[])), 0.0);
    }

    /// An entry outlives the quantum that made it, while its keyword
    /// stays in the window; a keyword that never reached the threshold
    /// has none.
    #[test]
    fn an_entry_lives_while_its_keyword_is_in_the_window() {
        let post =
            |user: u64, keyword: u32| Message::new(UserId(user), 0, vec![KeywordId(keyword)]);
        let mut window = WindowReference::new(2, 4, UserHasher::new(1), 2);
        window.push(0, &[post(1, 0), post(2, 0), post(3, 1)]);
        assert_eq!(window.live, BTreeSet::from([KeywordId(0)]));
        window.push(1, &[post(4, 0), post(5, 1)]);
        window.push(2, &[post(6, 0)]);
        assert_eq!(
            window.live,
            BTreeSet::from([KeywordId(0)]),
            "quantum 0 left"
        );
        assert_eq!(window.users(KeywordId(0)), set(&[4, 6]));
        assert_eq!(window.last_seen(KeywordId(1)), Some(1));
        window.push(3, &[]);
        window.push(4, &[]);
        assert!(window.live.is_empty());
        assert_eq!(window.minima(KeywordId(0)), Vec::<u64>::new());
    }
}
