//! Seedable 64-bit mixing hashes for user ids.
//!
//! The paper assigns "a hash value to each unique user in a quantum …
//! independently and uniformly from a range (0, 2^2n)" so that hash
//! collisions between distinct users are negligible.  We realise this with
//! a splitmix64-style finaliser parameterised by a seed, which gives a
//! family of independent-enough hash functions without any external crate.

/// One member of a seedable hash family, mapping `u64 → u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserHasher {
    seed: u64,
}

impl UserHasher {
    /// Creates a hasher from a seed.  Different seeds give (empirically)
    /// independent permutations of the id space.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Hashes a user id to a 64-bit value.
    ///
    /// A **bijection** on `u64` — an xor, two additions and two
    /// xorshift-multiplies by odd constants, each invertible — so distinct
    /// ids never collide.  The detector's window index relies on it: it
    /// orders each keyword's users by this value and reads the window
    /// sketch off the head of that order.
    #[inline]
    pub fn hash(&self, id: u64) -> u64 {
        // splitmix64 finaliser with the seed folded in twice so that
        // seed=0 is still a non-trivial permutation.
        let mut z = id ^ self.seed.rotate_left(25) ^ 0x9E37_79B9_7F4A_7C15;
        z = z
            .wrapping_add(self.seed)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns the seed used by this hasher.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// A family of [`UserHasher`]s derived from one master seed.
///
/// The event detector uses one hasher per window "epoch" so that stale
/// windows do not correlate with fresh ones; tests use several members to
/// check estimator variance.
#[derive(Debug, Clone)]
pub struct HashFamily {
    master_seed: u64,
}

impl HashFamily {
    /// Creates a family from a master seed.
    pub fn new(master_seed: u64) -> Self {
        Self { master_seed }
    }

    /// Returns the `i`-th member of the family.
    pub fn member(&self, i: u64) -> UserHasher {
        // Derive member seeds by hashing the index with the master seed.
        let base = UserHasher::new(self.master_seed);
        UserHasher::new(base.hash(i.wrapping_mul(0xA24B_AED4_963E_E407).wrapping_add(1)))
    }
}

impl Default for HashFamily {
    fn default() -> Self {
        Self::new(0xD15C_0EE2 ^ 0x5EED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn hash_is_deterministic() {
        let h = UserHasher::new(42);
        assert_eq!(h.hash(123), h.hash(123));
    }

    #[test]
    fn different_seeds_give_different_hashes() {
        let a = UserHasher::new(1);
        let b = UserHasher::new(2);
        let same = (0..100u64).filter(|&x| a.hash(x) == b.hash(x)).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn no_collisions_among_many_sequential_ids() {
        // The paper's birthday-paradox argument: with a 64-bit range and a
        // few thousand users per quantum, collisions are vanishingly rare.
        let h = UserHasher::new(7);
        let mut seen = HashSet::new();
        for id in 0..100_000u64 {
            assert!(seen.insert(h.hash(id)), "collision at {id}");
        }
    }

    #[test]
    fn bits_look_uniform() {
        // Count set bits over many hashes: should be close to 32 per value.
        let h = UserHasher::new(99);
        let total: u64 = (0..10_000u64).map(|i| h.hash(i).count_ones() as u64).sum();
        let avg = total as f64 / 10_000.0;
        assert!((avg - 32.0).abs() < 0.5, "average popcount {avg}");
    }

    #[test]
    fn family_members_differ() {
        let fam = HashFamily::new(5);
        let a = fam.member(0);
        let b = fam.member(1);
        assert_ne!(a.seed(), b.seed());
        assert_ne!(a.hash(10), b.hash(10));
    }

    #[test]
    fn family_is_deterministic() {
        let f1 = HashFamily::new(5);
        let f2 = HashFamily::new(5);
        assert_eq!(f1.member(3).seed(), f2.member(3).seed());
    }
}
