//! The exact Jaccard coefficient: the ground truth of the min-hash
//! estimator, and the edge correlation of the detector's exact-EC
//! ablation.

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

#[cfg(test)]
mod tests {
    use super::*;

    fn set(v: &[u64]) -> HashSet<u64> {
        v.iter().copied().collect()
    }

    #[test]
    fn identical_sets_give_one() {
        assert_eq!(exact_jaccard(&set(&[1, 2, 3]), &set(&[1, 2, 3])), 1.0);
    }

    #[test]
    fn disjoint_sets_give_zero() {
        assert_eq!(exact_jaccard(&set(&[1, 2]), &set(&[3, 4])), 0.0);
    }

    #[test]
    fn partial_overlap() {
        // |{2,3}| / |{1,2,3,4}| = 0.5
        assert_eq!(exact_jaccard(&set(&[1, 2, 3]), &set(&[2, 3, 4])), 0.5);
    }

    #[test]
    fn empty_sets() {
        assert_eq!(
            exact_jaccard(&HashSet::<u64>::new(), &HashSet::<u64>::new()),
            0.0
        );
        assert_eq!(exact_jaccard(&set(&[1]), &HashSet::new()), 0.0);
    }
}
