//! The "p minima" estimator.
//!
//! For a keyword `n` with user-id set `U(n)`, the sketch is the `p`
//! smallest hash values of the ids in `U(n)`.  Two keywords are candidate
//! neighbours when their sketches share at least one value (Section 3.2.2);
//! the fraction of shared minima among the union's `p` smallest values is an
//! unbiased estimator of the Jaccard coefficient.

use crate::kernel;

/// Estimates the Jaccard coefficient of two sets from their sketches'
/// minima, each strictly ascending: the `p` smallest distinct values of
/// the union of both lists are a uniform sample of the union, and the
/// estimate is the share of that sample present in both.  0.0 when both
/// lists are empty, and whenever they share no value.
///
/// When each list is the `p` smallest hashes of its set, the estimate is
/// hypergeometric: over a union of `n` values, `J·n` of them shared, its
/// standard error is `√(J(1−J)/p · (n−p)/(n−1))`, and it is exact once
/// `n ≤ p`.
///
/// An allocation-free merge walk ([`kernel::merge_walk`]) — it runs once
/// per candidate keyword pair per quantum, which makes it one of the
/// hottest spots of the detector.  The detector calls it on the minima its
/// window index hands out in place.
pub fn estimate_jaccard_minima(a: &[u64], b: &[u64], p: usize) -> f64 {
    let (taken, in_both) = kernel::merge_walk(a, b, p);
    if taken == 0 {
        return 0.0;
    }
    in_both as f64 / taken as f64
}

/// Upper bound on the sketch size `p` a configuration may ask for and a
/// window decoder accepts; real widths (`min(σ/2, 1/τ)` or a `Δ·w` floor)
/// are orders of magnitude below it.  It caps no allocation (a window
/// entry reserves at most 32 head rows whatever `p` is): it holds a decoded
/// `p` to what `DetectorConfig::validate` accepts, well inside a `u32`.
pub const MAX_DECODED_SKETCH_SIZE: usize = 1 << 20;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hasher::UserHasher;

    fn hasher() -> UserHasher {
        UserHasher::new(0xABCD)
    }

    /// The `p` smallest hashes of `ids`, ascending: a sketch built by
    /// sorting.
    fn minima(p: usize, hasher: &UserHasher, ids: impl IntoIterator<Item = u64>) -> Vec<u64> {
        let mut hashes: Vec<u64> = ids.into_iter().map(|id| hasher.hash(id)).collect();
        hashes.sort_unstable();
        hashes.dedup();
        hashes.truncate(p);
        hashes
    }

    #[test]
    fn identical_sets_share_minima_and_estimate_one() {
        let h = hasher();
        let a = minima(4, &h, [1, 2, 3, 4, 5]);
        let b = minima(4, &h, [5, 4, 3, 2, 1]);
        assert_eq!(estimate_jaccard_minima(&a, &b, 4), 1.0);
    }

    #[test]
    fn disjoint_sets_do_not_share_minima() {
        let h = hasher();
        let a = minima(4, &h, [1, 2, 3]);
        let b = minima(4, &h, [100, 200, 300]);
        assert_eq!(kernel::merge_walk(&a, &b, usize::MAX).1, 0);
        assert_eq!(estimate_jaccard_minima(&a, &b, 4), 0.0);
    }

    #[test]
    fn empty_sketches_estimate_zero() {
        let h = hasher();
        assert_eq!(estimate_jaccard_minima(&[], &[], 4), 0.0);
        assert_eq!(estimate_jaccard_minima(&minima(4, &h, [7]), &[], 4), 0.0);
    }

    #[test]
    fn estimator_tracks_the_exact_coefficient_on_large_sets() {
        // Large overlapping sets: with p = 16 the estimate should land
        // within ±0.25 of the exact Jaccard, 300 / 900 (coarse but
        // unbiased).
        let h = hasher();
        let a = minima(16, &h, 0..600);
        let b = minima(16, &h, 300..900);
        let est = estimate_jaccard_minima(&a, &b, 16);
        assert!((est - 1.0 / 3.0).abs() < 0.25, "estimate {est}");
    }

    /// The allocation-free merge walk must agree exactly with the naive
    /// build-the-union reference estimator.
    #[test]
    fn merge_walk_matches_reference_estimator() {
        fn reference(a: &[u64], b: &[u64], p: usize) -> f64 {
            let mut union: Vec<u64> = a.iter().chain(b).copied().collect();
            union.sort_unstable();
            union.dedup();
            union.truncate(p);
            if union.is_empty() {
                return 0.0;
            }
            let in_both = union
                .iter()
                .filter(|h| a.binary_search(h).is_ok() && b.binary_search(h).is_ok())
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
            let a = minima(pa, &h, ids_a);
            let b = minima(pb, &h, ids_b);
            let p = pa.max(pb);
            assert_eq!(
                estimate_jaccard_minima(&a, &b, p),
                reference(&a, &b, p),
                "p=({pa},{pb})"
            );
            assert_eq!(
                estimate_jaccard_minima(&b, &a, p),
                reference(&b, &a, p),
                "p=({pb},{pa}) swapped"
            );
        }
    }

    /// The estimator's spread against its hypergeometric law.  For each
    /// sketch width `p` and union size `n` (below `p` up to `10p`), one
    /// pair of sets with `I = n/5` shared ids is sketched under 400 seeded
    /// hashers; the root-mean-square error around the exact `J = I/n` must
    /// be within 20 % of `√(J(1−J)/p · (n−p)/(n−1))`, and every estimate
    /// exact while `n ≤ p`.
    #[test]
    fn estimator_error_follows_the_hypergeometric_law() {
        const TRIALS: u64 = 400;
        for p in [4usize, 16, 64] {
            for n in [p * 3 / 4, p, 2 * p, 5 * p, 10 * p] {
                let shared = (n / 5).max(1);
                let a_only = (n - shared) / 2;
                // Ids 0..shared are in both sets, the rest in one each.
                let a_ids = 0..(shared + a_only) as u64;
                let b_ids = (0..shared as u64).chain((shared + a_only) as u64..n as u64);
                let jaccard = shared as f64 / n as f64;
                let mut squares = 0.0;
                for trial in 0..TRIALS {
                    let h = UserHasher::new(0x5E_0000 + trial);
                    let a = minima(p, &h, a_ids.clone());
                    let b = minima(p, &h, b_ids.clone());
                    let estimate = estimate_jaccard_minima(&a, &b, p);
                    if n <= p {
                        assert_eq!(estimate, jaccard, "p {p}, n {n}: exact while n ≤ p");
                    }
                    squares += (estimate - jaccard).powi(2);
                }
                let empirical = (squares / TRIALS as f64).sqrt();
                let law = if n <= p {
                    0.0
                } else {
                    (jaccard * (1.0 - jaccard) / p as f64 * (n - p) as f64 / (n - 1) as f64).sqrt()
                };
                assert!(
                    (empirical - law).abs() <= 0.2 * law,
                    "p {p}, n {n}, J {jaccard:.3}: error {empirical:.4} vs the law's {law:.4}"
                );
            }
        }
    }
}
