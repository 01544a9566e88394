//! A small, fast hasher for integer-keyed maps.
//!
//! The engine's id-keyed sets and maps (a cluster's member nodes and
//! edges, for one) are keyed by dense `u32` ids the program assigns and are
//! touched every quantum; SipHash's HashDoS protection buys nothing here
//! and costs a measurable fraction of the per-quantum budget.  (The graph
//! itself hashes nothing: it is indexed by node id.)  This is
//! the well-known "Fx" multiply-and-rotate hash (as used by rustc),
//! implemented locally so the workspace needs no extra dependency.

use std::hash::{BuildHasherDefault, Hasher};

/// The Fx hash state.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using the Fx hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_one(&42u32), hash_one(&42u32));
        assert_eq!(hash_one(&"abc"), hash_one(&"abc"));
    }

    #[test]
    fn distinct_small_integers_rarely_collide() {
        let mut seen = HashSet::new();
        for i in 0u32..10_000 {
            seen.insert(hash_one(&i));
        }
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        assert_eq!(m.get(&1), Some(&"one"));
        let mut s: FxHashSet<u32> = FxHashSet::default();
        s.insert(7);
        assert!(s.contains(&7));
    }
}
