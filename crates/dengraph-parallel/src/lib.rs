//! The retired parallelism knob.
//!
//! The detector once fanned its read-only per-quantum phases (window
//! aggregation, sketching, candidate-edge scoring, ranking support) out
//! over a worker pool kept here.  Every fan-out measured slower than the
//! serial pipeline on every benchmark workload, so the pool is gone and the
//! engine is serial (README *Parallelism*).  What is left is the bare enum,
//! kept only because the repo benchmark still names it; nothing in the
//! engine reads a value of it.

/// How much parallelism a pipeline stage may use — no longer read by
/// anything: every stage runs serially.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run every stage inline on the calling thread (the only behaviour).
    #[default]
    Serial,
    /// Formerly: fan work out over this many threads.  Accepted and
    /// ignored.
    Threads(usize),
}
