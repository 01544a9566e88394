//! Exact Jaccard-coefficient helpers.
//!
//! Exact Jaccard is the ground truth for the min-hash estimator and is also
//! used directly by the evaluation harness when matching discovered clusters
//! against ground-truth events.

use std::collections::HashSet;
use std::hash::{BuildHasher, Hash};

/// Exact Jaccard coefficient `|A ∩ B| / |A ∪ B|` of two hash sets
/// (generic over the hasher so `FxHashSet`s work too).
///
/// Returns 0.0 when both sets are empty.
pub fn exact_jaccard<T: Eq + Hash, S: BuildHasher>(a: &HashSet<T, S>, b: &HashSet<T, S>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Exact Jaccard coefficient of two **sorted, de-duplicated** slices.
///
/// This is the hot-path variant used by the exact-EC ablation: the
/// per-keyword user-id lists are kept sorted, so the intersection is a
/// single merge pass with no hashing or allocation.
pub fn exact_jaccard_sorted<T: Ord>(a: &[T], b: &[T]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Overlap coefficient `|A ∩ B| / min(|A|, |B|)` over sorted slices; used by
/// the evaluation matcher where a small cluster fully contained in a large
/// ground-truth keyword set should still count as a match.
pub fn overlap_coefficient_sorted<T: Ord>(a: &[T], b: &[T]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter as f64 / a.len().min(b.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(v: &[u64]) -> HashSet<u64> {
        v.iter().copied().collect()
    }

    #[test]
    fn identical_sets_give_one() {
        assert_eq!(exact_jaccard(&set(&[1, 2, 3]), &set(&[1, 2, 3])), 1.0);
        assert_eq!(exact_jaccard_sorted(&[1, 2, 3], &[1, 2, 3]), 1.0);
    }

    #[test]
    fn disjoint_sets_give_zero() {
        assert_eq!(exact_jaccard(&set(&[1, 2]), &set(&[3, 4])), 0.0);
        assert_eq!(exact_jaccard_sorted(&[1, 2], &[3, 4]), 0.0);
    }

    #[test]
    fn partial_overlap() {
        // |{2,3}| / |{1,2,3,4}| = 0.5
        assert_eq!(exact_jaccard(&set(&[1, 2, 3]), &set(&[2, 3, 4])), 0.5);
        assert_eq!(exact_jaccard_sorted(&[1, 2, 3], &[2, 3, 4]), 0.5);
    }

    #[test]
    fn empty_sets() {
        assert_eq!(
            exact_jaccard(&HashSet::<u64>::new(), &HashSet::<u64>::new()),
            0.0
        );
        assert_eq!(exact_jaccard(&set(&[1]), &HashSet::new()), 0.0);
        assert_eq!(exact_jaccard_sorted::<u64>(&[], &[]), 0.0);
        assert_eq!(exact_jaccard_sorted(&[1], &[]), 0.0);
    }

    #[test]
    fn sorted_and_hashset_variants_agree() {
        let a = [1u64, 5, 9, 12, 40];
        let b = [5u64, 9, 13, 40, 77, 80];
        let ja = exact_jaccard(
            &a.iter().copied().collect::<HashSet<u64>>(),
            &b.iter().copied().collect::<HashSet<u64>>(),
        );
        let jb = exact_jaccard_sorted(&a, &b);
        assert!((ja - jb).abs() < f64::EPSILON);
    }

    #[test]
    fn overlap_coefficient_contained_set_is_one() {
        assert_eq!(overlap_coefficient_sorted(&[2, 3], &[1, 2, 3, 4, 5]), 1.0);
        assert_eq!(overlap_coefficient_sorted(&[1, 2, 3, 4, 5], &[2, 3]), 1.0);
    }

    #[test]
    fn overlap_coefficient_empty_is_zero() {
        assert_eq!(overlap_coefficient_sorted::<u64>(&[], &[1]), 0.0);
    }
}
