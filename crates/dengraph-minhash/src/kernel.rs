//! Batch, struct-of-arrays sketch kernels for the window-stage hot path.
//!
//! The detector's dominant cost is per-quantum sketch maintenance: hash
//! every user of every bursty keyword, keep the `p` smallest distinct
//! hashes per keyword, and canonicalise the quantum's `(keyword, user)`
//! pair column.  The scalar path did all three one element at a time
//! (`UserHasher::hash` + `binary_search` + `Vec::insert` per id, a
//! comparison sort per quantum); the kernels here restructure them as
//! batch loops over flat `u64` lanes so the compiler can auto-vectorize:
//!
//! * [`hash_batch`] — splitmix64 over 8-id lanes into a scratch buffer
//!   ([`SketchLanes`]), no per-id call or branch;
//! * [`fold_lanes_into`] — hash-all-then-fold minima maintenance: a
//!   branch-free threshold filter (only hashes strictly below the current
//!   `p`-th minimum can enter the sketch) followed by **one** sorted merge
//!   of the few survivors, instead of a `binary_search` + memmove per id;
//! * [`merge_sorted_minima`] — the O(p) two-pointer union of two sorted,
//!   de-duplicated minima lists (repeated `insert_hash` was O(p²));
//! * [`merge_walk`] — the shared overlap/estimator merge walk;
//! * [`radix_sort_u64`] — an LSD radix sort for packed pair columns,
//!   replacing the comparison `sort_unstable` in `QuantumRecord`
//!   canonicalisation.
//!
//! The incremental window index uses none of them on a slide: it
//! routes each `(keyword, user)` row by its hash — one search of a short
//! sorted head or one probe of an overflow table — so there is no run to
//! hash, sort and merge as a batch.  The kernels serve the `Rebuild` mode,
//! `build_sketches` and the record builder's pair sort.
//!
//! **Bit-identity is the contract.**  Every kernel produces exactly the
//! same result as its scalar reference: the `p` smallest distinct hashes
//! are order-insensitive, and a radix sort is a permutation to the same
//! total order, so all determinism / equivalence / checkpoint gates hold
//! unchanged (`tests/kernel_equivalence.rs` property-tests this).

use crate::hasher::UserHasher;

/// Reusable scratch lanes for the batch kernels.  Owned by long-lived
/// callers (the detector's scratch arena, one per worker shard) so
/// steady-state sketch maintenance performs no heap allocation.
///
/// Contents are never meaningful across calls; every kernel clears the
/// lane it fills.
#[derive(Debug, Default)]
pub struct SketchLanes {
    /// Hashed id lanes filled by [`hash_batch`].
    pub(crate) hashes: Vec<u64>,
    /// Threshold-filter survivors ([`fold_lanes_into`]).
    survivors: Vec<u64>,
    /// Merge output staging ([`fold_lanes_into`]).
    merged: Vec<u64>,
}

impl SketchLanes {
    /// Creates an empty lane set (buffers grow on first use and are then
    /// reused).
    pub fn new() -> Self {
        Self::default()
    }

    /// The hashes produced by the most recent [`hash_batch`] call.
    pub fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Loads precomputed hashes into the lane buffer, as if produced by
    /// [`hash_batch`] — lets microbenches and tests drive
    /// [`fold_lanes_into`] in isolation.
    pub fn load_hashes(&mut self, hashes: &[u64]) {
        self.hashes.clear();
        self.hashes.extend_from_slice(hashes);
    }
}

/// Hashes every id in `ids` through `hasher` into `out`, eight ids per
/// iteration.  `id_of` projects the caller's id type to the raw `u64`
/// (typically a newtype field read); it must be branch-free for the lane
/// body to vectorize.
///
/// `out` is cleared first and holds exactly `ids.len()` hashes, in input
/// order, when the call returns.
pub fn hash_batch<T: Copy>(
    hasher: &UserHasher,
    ids: &[T],
    id_of: impl Fn(T) -> u64,
    out: &mut Vec<u64>,
) {
    out.clear();
    out.resize(ids.len(), 0);
    let split = ids.len() - ids.len() % 8;
    let (head, tail) = ids.split_at(split);
    let (out_head, out_tail) = out.split_at_mut(split);
    // Straight-line 8-lane body: fixed trip count, no data-dependent
    // branches, so the splitmix64 pipeline (xor/shift/multiply) stays in
    // SIMD registers.
    for (dst, src) in out_head.chunks_exact_mut(8).zip(head.chunks_exact(8)) {
        for lane in 0..8 {
            dst[lane] = hasher.hash(id_of(src[lane]));
        }
    }
    for (dst, &src) in out_tail.iter_mut().zip(tail) {
        *dst = hasher.hash(id_of(src));
    }
}

/// Two-pointer union of two sorted, internally de-duplicated minima lists,
/// keeping the `p` smallest distinct values.  Writes into `out` (which
/// must hold at least `min(p, a.len() + b.len())` slots) and returns the
/// number of values written.
///
/// This is the O(p) replacement for merging one sketch into another by
/// repeated `insert_hash` (a `binary_search` plus memmove per value —
/// O(p²) per merge).
pub fn merge_sorted_minima(a: &[u64], b: &[u64], p: usize, out: &mut [u64]) -> usize {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "a must be sorted+dedup");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "b must be sorted+dedup");
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while n < p && i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        // Take the smaller value; on a tie advance both sides so the
        // shared value is emitted once (cross-list de-duplication).
        out[n] = x.min(y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
        n += 1;
    }
    while n < p && i < a.len() {
        out[n] = a[i];
        n += 1;
        i += 1;
    }
    while n < p && j < b.len() {
        out[n] = b[j];
        n += 1;
        j += 1;
    }
    n
}

/// Folds a batch of hashed lanes (from [`hash_batch`]) into a sorted,
/// de-duplicated minima column bounded at `p` values — the
/// hash-all-then-fold half of the batch sketch kernel.
///
/// The fold is two steps:
/// 1. **branch-free threshold filter** — once the sketch holds `p`
///    minima, only hashes *strictly below* the current `p`-th minimum can
///    change it (anything `≥` is either a duplicate of the boundary or
///    provably outside the `p` smallest).  The filter compacts those
///    survivors with a predicated write, no branches in the loop body.
/// 2. **one merge** — survivors are sorted, de-duplicated and merged into
///    the minima column with [`merge_sorted_minima`].
///
/// Identical to calling `insert_hash` per lane, in any order.
pub fn fold_lanes_into(minima: &mut Vec<u64>, p: usize, lanes: &mut SketchLanes) {
    debug_assert!(p >= 1, "sketch size must be at least 1");
    let SketchLanes {
        hashes,
        survivors,
        merged,
    } = lanes;
    let threshold = if minima.len() == p {
        minima[p - 1]
    } else {
        u64::MAX
    };
    survivors.clear();
    survivors.resize(hashes.len(), 0);
    let mut n = 0usize;
    for &h in hashes.iter() {
        // Predicated write: the slot is always written, the cursor only
        // advances for a survivor — no branch in the loop body.
        survivors[n] = h;
        n += usize::from(h < threshold);
    }
    survivors.truncate(n);
    if survivors.is_empty() {
        return;
    }
    survivors.sort_unstable();
    survivors.dedup();
    merged.clear();
    merged.resize(p.min(minima.len() + survivors.len()), 0);
    let written = merge_sorted_minima(minima, survivors, p, merged);
    minima.clear();
    minima.extend_from_slice(&merged[..written]);
}

/// The shared merge walk behind sketch overlap and Jaccard estimation:
/// walks the distinct values of the union of two sorted, de-duplicated
/// lists in ascending order, visiting at most `cap` of them, and returns
/// `(visited, present_in_both)`.
///
/// * overlap / shared-minimum test: `cap = usize::MAX`, read the second
///   component;
/// * the estimator: `cap = max(p_a, p_b)` — the visited prefix is the
///   union sample, the second component the intersection count.
pub fn merge_walk(a: &[u64], b: &[u64], cap: usize) -> (usize, usize) {
    let (mut i, mut j) = (0usize, 0usize);
    let (mut taken, mut in_both) = (0usize, 0usize);
    while taken < cap && i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        in_both += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
        taken += 1;
    }
    while taken < cap && i < a.len() {
        i += 1;
        taken += 1;
    }
    while taken < cap && j < b.len() {
        j += 1;
        taken += 1;
    }
    (taken, in_both)
}

/// Below this length the comparison sort wins (radix setup cost — one
/// histogram pass plus scatter buffers — does not amortise); the output
/// is identical either way, so the cutover is invisible to callers.
const RADIX_MIN_LEN: usize = 64;

/// LSD radix sort over a `u64` key column, ascending, using 8-bit digits
/// and `tmp` as the ping-pong buffer.  All eight digit histograms are
/// collected in a single pass, and digits on which every key agrees are
/// skipped entirely — a column of packed `(keyword, user)` pairs whose
/// live bits span, say, 40 bits costs five scatter passes, not eight.
///
/// Sorting is a permutation to the unique ascending order of a total
/// order, so the result is bit-identical to `sort_unstable` (duplicates
/// are indistinguishable); short columns take exactly that path.
pub fn radix_sort_u64(keys: &mut [u64], tmp: &mut Vec<u64>) {
    let n = keys.len();
    if n < RADIX_MIN_LEN {
        keys.sort_unstable();
        return;
    }
    debug_assert!(n <= u32::MAX as usize, "histogram counters are u32");
    // One pass over the data builds all eight digit histograms.
    let mut hist = [[0u32; 256]; 8];
    for &k in keys.iter() {
        for (d, h) in hist.iter_mut().enumerate() {
            h[(k >> (8 * d)) as usize & 0xFF] += 1;
        }
    }
    tmp.clear();
    tmp.resize(n, 0);
    let mut src: &mut [u64] = keys;
    let mut dst: &mut [u64] = tmp.as_mut_slice();
    let mut flips = 0usize;
    for (d, h) in hist.iter().enumerate() {
        // A digit on which all keys share one byte value permutes nothing.
        if h.iter().any(|&c| c as usize == n) {
            continue;
        }
        let mut offsets = [0u32; 256];
        let mut running = 0u32;
        for (o, &c) in offsets.iter_mut().zip(h.iter()) {
            *o = running;
            running += c;
        }
        for &k in src.iter() {
            let b = (k >> (8 * d)) as usize & 0xFF;
            dst[offsets[b] as usize] = k;
            offsets[b] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        flips += 1;
    }
    if flips % 2 == 1 {
        // The sorted column ended in `tmp`; copy it home.
        dst.copy_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_batch_matches_scalar_hashing() {
        let hasher = UserHasher::new(0xC0FFEE);
        for len in [0usize, 1, 7, 8, 9, 64, 100] {
            let ids: Vec<u64> = (0..len as u64).map(|i| i * 37 + 5).collect();
            let mut out = Vec::new();
            hash_batch(&hasher, &ids, |id| id, &mut out);
            let scalar: Vec<u64> = ids.iter().map(|&id| hasher.hash(id)).collect();
            assert_eq!(out, scalar, "len {len}");
        }
    }

    #[test]
    fn merge_sorted_minima_unions_and_truncates() {
        let a = [1u64, 3, 5, 7];
        let b = [2u64, 3, 6, 9, 11];
        let mut out = [0u64; 8];
        let n = merge_sorted_minima(&a, &b, 8, &mut out);
        assert_eq!(&out[..n], &[1, 2, 3, 5, 6, 7, 9, 11]);
        let n = merge_sorted_minima(&a, &b, 3, &mut out);
        assert_eq!(&out[..n], &[1, 2, 3]);
        let n = merge_sorted_minima(&[], &b, 4, &mut out);
        assert_eq!(&out[..n], &[2, 3, 6, 9]);
        let n = merge_sorted_minima(&a, &[], 16, &mut out);
        assert_eq!(&out[..n], &a);
    }

    #[test]
    fn fold_lanes_matches_insert_hash_reference() {
        fn reference(existing: &[u64], hashes: &[u64], p: usize) -> Vec<u64> {
            let mut minima = existing.to_vec();
            for &h in hashes {
                match minima.binary_search(&h) {
                    Ok(_) => {}
                    Err(pos) if pos < p => {
                        minima.insert(pos, h);
                        minima.truncate(p);
                    }
                    Err(_) => {}
                }
            }
            minima
        }
        let hasher = UserHasher::new(7);
        let mut lanes = SketchLanes::new();
        for p in [1usize, 2, 4, 8] {
            for round in 0..4u64 {
                let ids: Vec<u64> = (0..200).map(|i| (i * 13 + round * 777) % 150).collect();
                hash_batch(&hasher, &ids, |id| id, &mut lanes.hashes);
                let expected_hashes = lanes.hashes.clone();
                // Start from a partially filled sketch to hit the
                // threshold path.
                let mut seeded = Vec::new();
                hash_batch(
                    &hasher,
                    &[1000 + round, 2000 + round],
                    |id| id,
                    &mut lanes.hashes,
                );
                fold_lanes_into(&mut seeded, p, &mut lanes);
                let expected = reference(&seeded, &expected_hashes, p);
                hash_batch(&hasher, &ids, |id| id, &mut lanes.hashes);
                fold_lanes_into(&mut seeded, p, &mut lanes);
                assert_eq!(seeded, expected, "p={p} round={round}");
            }
        }
    }

    #[test]
    fn merge_walk_counts_union_prefix_and_intersection() {
        let a = [1u64, 3, 5, 7];
        let b = [3u64, 4, 5, 9];
        // Full walk: union has 6 distinct values, 2 shared.
        assert_eq!(merge_walk(&a, &b, usize::MAX), (6, 2));
        // Capped walk: first 4 union values are 1,3,4,5 — 3 and 5 shared.
        assert_eq!(merge_walk(&a, &b, 4), (4, 2));
        assert_eq!(merge_walk(&a, &b, 2), (2, 1));
        assert_eq!(merge_walk(&[], &[], usize::MAX), (0, 0));
    }

    #[test]
    fn radix_sort_matches_comparison_sort() {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [0usize, 1, 2, RADIX_MIN_LEN - 1, RADIX_MIN_LEN, 500, 4096] {
            // Mixed-width keys: some full-range, some with dead high bytes
            // (exercises the digit-skipping), plus duplicates.
            let mut keys: Vec<u64> = (0..len)
                .map(|i| match i % 3 {
                    0 => next(),
                    1 => next() & 0xFF_FFFF,
                    _ => (i as u64 / 7) * 1000,
                })
                .collect();
            let mut expected = keys.clone();
            expected.sort_unstable();
            let mut tmp = Vec::new();
            radix_sort_u64(&mut keys, &mut tmp);
            assert_eq!(keys, expected, "len {len}");
        }
    }

    #[test]
    fn radix_sort_handles_already_sorted_and_descending() {
        let mut asc: Vec<u64> = (0..1000).collect();
        let mut desc: Vec<u64> = (0..1000).rev().collect();
        let mut tmp = Vec::new();
        radix_sort_u64(&mut asc, &mut tmp);
        radix_sort_u64(&mut desc, &mut tmp);
        let expected: Vec<u64> = (0..1000).collect();
        assert_eq!(asc, expected);
        assert_eq!(desc, expected);
    }
}
