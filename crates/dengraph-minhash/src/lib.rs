//! Min-hash sketching substrate for `dengraph`.
//!
//! Section 3.2.2 of the paper computes the *edge correlation* (EC) between
//! two keywords — the Jaccard coefficient of their user-id sets — without
//! materialising set intersections for every candidate pair.  Each keyword
//! keeps the `p` smallest hash values ("p Min-Hash values") of the user ids
//! that used it in the current window; two keywords get an edge when their
//! sketches share at least one value.  The probability of a shared minimum
//! equals the Jaccard coefficient, so the sketch doubles as an estimator.
//!
//! This crate provides:
//! * [`hasher`] — a seedable 64-bit mixing hash (splitmix64 family) used to
//!   map user ids into a `2^{2n}`-sized space so that collisions between
//!   distinct users are negligible (the paper's birthday-paradox argument).
//! * [`sketch`] — [`MinHashSketch`], the bounded "p minima" sketch with
//!   merge / overlap / estimation operations.
//! * [`jaccard`] — exact Jaccard helpers used by tests and the evaluation
//!   harness.
//! * [`batch`] — batch sketch construction over keyword shards, fanned out
//!   via `dengraph-parallel` with deterministic (input-order) results.
//! * [`kernel`] — the batch struct-of-arrays kernels behind all of the
//!   above: 8-lane splitmix64 hashing, branch-free minima folding, O(p)
//!   sorted-minima merging, an LSD radix sort for packed pair columns and
//!   the hash-ordered run the window index merges into its columns, each
//!   bit-identical to its scalar reference.
//!
//! There is no sliding-window sketch *store* here.  [`UserHasher::hash`]
//! is a bijection on `u64`, so a column of a keyword's window users kept
//! in hash order has the window sketch as its first `p` rows; the
//! detector's window index (`dengraph_core::keyword_state`) keeps exactly
//! that column and nothing per quantum.

pub mod batch;
pub mod hasher;
pub mod jaccard;
pub mod kernel;
pub mod sketch;

pub use batch::build_sketches;
pub use hasher::{HashFamily, UserHasher};
pub use jaccard::{exact_jaccard, exact_jaccard_sorted, overlap_coefficient_sorted};
pub use kernel::SketchLanes;
pub use sketch::MinHashSketch;

/// Computes the sketch size `p` from the high-state threshold `sigma` and
/// the edge-correlation threshold `tau`, per Section 3.2.2:
/// `p = min(sigma / 2, 1 / tau)`, clamped to at least 1.
pub fn sketch_size(sigma: u32, tau: f64) -> usize {
    let from_sigma = (sigma as f64 / 2.0).floor();
    let from_tau = if tau > 0.0 {
        (1.0 / tau).floor()
    } else {
        f64::MAX
    };
    let p = from_sigma.min(from_tau).max(1.0);
    p as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_size_matches_paper_nominal_values() {
        // sigma = 4, tau = 0.20  =>  min(2, 5) = 2
        assert_eq!(sketch_size(4, 0.20), 2);
        // sigma = 4, tau = 0.10  =>  min(2, 10) = 2
        assert_eq!(sketch_size(4, 0.10), 2);
        // large sigma, tau = 0.25 => min(.., 4) = 4
        assert_eq!(sketch_size(100, 0.25), 4);
    }

    #[test]
    fn sketch_size_is_at_least_one() {
        assert_eq!(sketch_size(1, 0.9), 1);
        assert_eq!(sketch_size(0, 0.0), 1);
    }
}
