//! The "p minima" min-hash sketch.
//!
//! For a keyword `n` with user-id set `U(n)`, the sketch keeps the `p`
//! smallest hash values of the ids in `U(n)`.  Two keywords are candidate
//! neighbours when their sketches share at least one value (Section 3.2.2);
//! the fraction of shared minima among the union's `p` smallest values is an
//! unbiased estimator of the Jaccard coefficient.

use dengraph_json::{Decode, Encode};

use crate::hasher::UserHasher;
use crate::kernel;

/// Bounded sketch holding the `p` smallest hash values seen so far.
///
/// Values are kept sorted ascending and de-duplicated, so membership and
/// overlap checks are linear in `p` (which the paper fixes at a small
/// constant, `min(σ/2, 1/τ)`, typically 2–5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinHashSketch {
    p: usize,
    minima: Vec<u64>,
}

impl MinHashSketch {
    /// Creates an empty sketch that keeps at most `p` minima (`p ≥ 1`).
    pub fn new(p: usize) -> Self {
        let p = p.max(1);
        Self {
            p,
            minima: Vec::with_capacity(p),
        }
    }

    /// The configured sketch size `p`.
    pub fn capacity(&self) -> usize {
        self.p
    }

    /// Number of minima currently stored (≤ `p`).
    pub fn len(&self) -> usize {
        self.minima.len()
    }

    /// Returns `true` when no value has been observed.
    pub fn is_empty(&self) -> bool {
        self.minima.is_empty()
    }

    /// Current minima, ascending.
    pub fn minima(&self) -> &[u64] {
        &self.minima
    }

    /// Observes one pre-hashed value.
    pub fn insert_hash(&mut self, hash: u64) {
        match self.minima.binary_search(&hash) {
            Ok(_) => {} // duplicate: a user already counted
            Err(pos) => {
                if pos < self.p {
                    self.minima.insert(pos, hash);
                    self.minima.truncate(self.p);
                }
            }
        }
    }

    /// Observes a raw user id through `hasher`.
    pub fn insert(&mut self, hasher: &UserHasher, user_id: u64) {
        self.insert_hash(hasher.hash(user_id));
    }

    /// Observes every id in `ids`.
    pub fn extend<I: IntoIterator<Item = u64>>(&mut self, hasher: &UserHasher, ids: I) {
        for id in ids {
            self.insert(hasher, id);
        }
    }

    /// Builds a sketch directly from an id iterator.
    pub fn from_ids<I: IntoIterator<Item = u64>>(p: usize, hasher: &UserHasher, ids: I) -> Self {
        let mut s = Self::new(p);
        s.extend(hasher, ids);
        s
    }

    /// Merges another sketch into this one (union of the underlying sets).
    ///
    /// One O(p) two-pointer walk over the two sorted minima columns
    /// ([`kernel::merge_sorted_minima`]).  Allocation-free for `p ≤ 128`
    /// (a stack buffer); larger sketches only occur in tests/ablations
    /// and fall back to the per-value path.
    pub fn merge(&mut self, other: &MinHashSketch) {
        if other.minima.is_empty() {
            return;
        }
        const STACK_P: usize = 128;
        if self.p <= STACK_P {
            let mut buf = [0u64; STACK_P];
            let n = kernel::merge_sorted_minima(&self.minima, &other.minima, self.p, &mut buf);
            self.minima.clear();
            self.minima.extend_from_slice(&buf[..n]);
        } else {
            for &h in &other.minima {
                self.insert_hash(h);
            }
        }
    }

    /// Number of values present in both sketches.
    ///
    /// Both sketches must have been built with the same hasher for the
    /// result to be meaningful.
    pub fn overlap(&self, other: &MinHashSketch) -> usize {
        kernel::merge_walk(&self.minima, &other.minima, usize::MAX).1
    }

    /// The paper's edge-admission test: do the two sketches share at least
    /// one min-hash value?
    pub fn shares_minimum(&self, other: &MinHashSketch) -> bool {
        self.overlap(other) > 0
    }

    /// Estimates the Jaccard coefficient of the two underlying sets.
    ///
    /// The estimator treats the `p` smallest values of the *union* of both
    /// sketches as a uniform sample of the union and counts how many of
    /// those sampled values appear in both sets.
    ///
    /// [`estimate_jaccard_minima`] over the two minima lists, sampling the
    /// union's `max(p_a, p_b)` smallest values.
    pub fn estimate_jaccard(&self, other: &MinHashSketch) -> f64 {
        estimate_jaccard_minima(&self.minima, &other.minima, self.p.max(other.p))
    }

    /// Clears the sketch while keeping its capacity.
    pub fn clear(&mut self) {
        self.minima.clear();
    }

    /// Replaces the minima with `sorted`, which must already be the
    /// sketch: strictly ascending and at most `p` values.  The window
    /// index keeps each keyword's users in hash order, so its window
    /// sketch is the head of that column and an owned copy is this one.
    pub fn assign_sorted(&mut self, sorted: &[u64]) {
        debug_assert!(sorted.len() <= self.p, "more minima than the sketch keeps");
        debug_assert!(
            sorted.windows(2).all(|w| w[0] < w[1]),
            "minima must be strictly ascending"
        );
        self.minima.clear();
        self.minima.extend_from_slice(sorted);
    }
}

/// Estimates the Jaccard coefficient of two sets from their sketches'
/// minima, each strictly ascending: the `p` smallest distinct values of
/// the union of both lists are a uniform sample of the union, and the
/// estimate is the share of that sample present in both.  0.0 when both
/// lists are empty, and whenever they share no value.
///
/// An allocation-free merge walk ([`kernel::merge_walk`]) — it runs once
/// per candidate keyword pair per quantum, which makes it one of the
/// hottest spots of the detector.  The detector calls it on the minima its
/// window index hands out in place; [`MinHashSketch::estimate_jaccard`]
/// calls it on a sketch's own.
pub fn estimate_jaccard_minima(a: &[u64], b: &[u64], p: usize) -> f64 {
    let (taken, in_both) = kernel::merge_walk(a, b, p);
    if taken == 0 {
        return 0.0;
    }
    in_both as f64 / taken as f64
}

/// Upper bound on the sketch size `p` accepted by the binary decoders.
/// Constructing a sketch reserves `p` slots up front, so the decoders
/// must refuse a corrupt `p` *before* building the sketch; real sketch
/// sizes are two to three orders of magnitude below this bound
/// (`min(σ/2, 1/τ)` with a small configured floor).
pub const MAX_DECODED_SKETCH_SIZE: usize = 1 << 20;

/// Reads and bounds a sketch size for [`MinHashSketch::from_bin`].
fn decode_sketch_size(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<usize> {
    let p = r.usize()?;
    if p > MAX_DECODED_SKETCH_SIZE {
        return Err(dengraph_json::JsonError {
            message: format!("sketch size {p} exceeds the decoder bound {MAX_DECODED_SKETCH_SIZE}"),
            offset: r.pos(),
        });
    }
    Ok(p)
}

impl Encode for MinHashSketch {
    /// Serialises the sketch to a [`dengraph_json::Value`] (`p` plus the
    /// ascending minima list).
    fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        Value::obj([
            ("p", Value::from(self.p)),
            (
                "minima",
                Value::arr(self.minima.iter().map(|&m| Value::from(m))),
            ),
        ])
    }

    /// Appends the compact binary encoding: `p`, then the ascending minima
    /// as a delta-encoded column.
    fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        w.usize(self.p);
        w.delta_u64s(&self.minima);
    }
}

impl Decode for MinHashSketch {
    /// Reconstructs a sketch serialised by [`Self::to_json`].
    fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        let mut sketch = Self::new(value.get("p")?.as_usize()?);
        for m in value.get("minima")?.as_arr()? {
            sketch.insert_hash(m.as_u64()?);
        }
        Ok(sketch)
    }

    /// Reconstructs a sketch encoded by [`Self::to_bin`].  The sketch
    /// size is bounded ([`MAX_DECODED_SKETCH_SIZE`]) so a corrupted
    /// document cannot drive a huge capacity reservation.
    fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        let mut sketch = Self::new(decode_sketch_size(r)?);
        for m in r.delta_u64s()? {
            sketch.insert_hash(m);
        }
        Ok(sketch)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "sketches are order-free in their input ids"
)]
mod tests {
    use super::*;
    use crate::jaccard::exact_jaccard;
    use dengraph_json::{Decode, Encode};
    use std::collections::HashSet;

    fn hasher() -> UserHasher {
        UserHasher::new(0xABCD)
    }

    #[test]
    fn keeps_only_p_smallest() {
        let h = hasher();
        let mut s = MinHashSketch::new(3);
        s.extend(&h, 0..100);
        assert_eq!(s.len(), 3);
        let all: Vec<u64> = (0..100).map(|i| h.hash(i)).collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(s.minima(), &sorted[..3]);
    }

    #[test]
    fn duplicate_users_count_once() {
        let h = hasher();
        let mut s = MinHashSketch::new(5);
        s.insert(&h, 7);
        s.insert(&h, 7);
        s.insert(&h, 7);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn identical_sets_share_minima_and_estimate_one() {
        let h = hasher();
        let a = MinHashSketch::from_ids(4, &h, [1, 2, 3, 4, 5]);
        let b = MinHashSketch::from_ids(4, &h, [1, 2, 3, 4, 5]);
        assert!(a.shares_minimum(&b));
        assert!((a.estimate_jaccard(&b) - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn disjoint_sets_do_not_share_minima() {
        let h = hasher();
        let a = MinHashSketch::from_ids(4, &h, [1, 2, 3]);
        let b = MinHashSketch::from_ids(4, &h, [100, 200, 300]);
        assert!(!a.shares_minimum(&b));
        assert_eq!(a.estimate_jaccard(&b), 0.0);
    }

    #[test]
    fn merge_equals_building_from_union() {
        let h = hasher();
        let mut a = MinHashSketch::from_ids(4, &h, [1, 2, 3]);
        let b = MinHashSketch::from_ids(4, &h, [3, 4, 5]);
        a.merge(&b);
        let union = MinHashSketch::from_ids(4, &h, [1, 2, 3, 4, 5]);
        assert_eq!(a, union);
    }

    #[test]
    fn estimator_tracks_exact_jaccard_on_large_sets() {
        // Large overlapping sets: with p = 16 the estimate should land
        // within ±0.25 of the exact Jaccard (coarse but unbiased).
        let h = hasher();
        let set_a: HashSet<u64> = (0..600).collect();
        let set_b: HashSet<u64> = (300..900).collect();
        let exact = exact_jaccard(&set_a, &set_b);
        let a = MinHashSketch::from_ids(16, &h, set_a.iter().copied());
        let b = MinHashSketch::from_ids(16, &h, set_b.iter().copied());
        let est = a.estimate_jaccard(&b);
        assert!(
            (est - exact).abs() < 0.25,
            "estimate {est} vs exact {exact}"
        );
    }

    /// The allocation-free merge walk must agree exactly with the naive
    /// build-the-union reference estimator.
    #[test]
    fn merge_walk_matches_reference_estimator() {
        fn reference(a: &MinHashSketch, b: &MinHashSketch) -> f64 {
            if a.is_empty() && b.is_empty() {
                return 0.0;
            }
            let mut union: Vec<u64> = a
                .minima()
                .iter()
                .chain(b.minima().iter())
                .copied()
                .collect();
            union.sort_unstable();
            union.dedup();
            union.truncate(a.capacity().max(b.capacity()));
            if union.is_empty() {
                return 0.0;
            }
            let in_both = union
                .iter()
                .filter(|h| {
                    a.minima().binary_search(h).is_ok() && b.minima().binary_search(h).is_ok()
                })
                .count();
            in_both as f64 / union.len() as f64
        }
        let h = hasher();
        let cases: Vec<(usize, usize, std::ops::Range<u64>, std::ops::Range<u64>)> = vec![
            (4, 4, 0..20, 10..30),
            (2, 6, 0..0, 0..0),
            (3, 3, 5..8, 5..8),
            (5, 2, 0..100, 90..200),
            (1, 1, 7..8, 9..10),
        ];
        for (pa, pb, ids_a, ids_b) in cases {
            let a = MinHashSketch::from_ids(pa, &h, ids_a);
            let b = MinHashSketch::from_ids(pb, &h, ids_b);
            assert_eq!(a.estimate_jaccard(&b), reference(&a, &b), "p=({pa},{pb})");
            assert_eq!(
                b.estimate_jaccard(&a),
                reference(&b, &a),
                "p=({pb},{pa}) swapped"
            );
        }
    }

    #[test]
    fn empty_sketches_estimate_zero() {
        let a = MinHashSketch::new(4);
        let b = MinHashSketch::new(4);
        assert_eq!(a.estimate_jaccard(&b), 0.0);
        assert!(!a.shares_minimum(&b));
    }

    #[test]
    fn assign_sorted_replaces_the_minima() {
        let h = hasher();
        let mut hashes: Vec<u64> = (0..40).map(|i| h.hash(i)).collect();
        hashes.sort_unstable();
        let mut s = MinHashSketch::from_ids(4, &h, 100..120);
        s.assign_sorted(&hashes[..4]);
        assert_eq!(s, MinHashSketch::from_ids(4, &h, 0..40));
        s.assign_sorted(&hashes[..2]);
        assert_eq!(s.minima(), &hashes[..2]);
        assert_eq!(s.capacity(), 4);
        s.assign_sorted(&[]);
        assert!(s.is_empty());
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let h = hasher();
        let mut s = MinHashSketch::from_ids(4, &h, [1, 2, 3]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 4);
    }

    #[test]
    fn capacity_is_at_least_one() {
        assert_eq!(MinHashSketch::new(0).capacity(), 1);
    }

    #[test]
    fn json_round_trip_preserves_sketch() {
        let h = hasher();
        for ids in [vec![], vec![7], vec![1, 2, 3, 4, 5, 6]] {
            let s = MinHashSketch::from_ids(3, &h, ids);
            let back = MinHashSketch::from_json(&s.to_json()).unwrap();
            assert_eq!(back, s);
            assert_eq!(back.capacity(), s.capacity());
        }
    }
}
