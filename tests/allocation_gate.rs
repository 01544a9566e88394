//! Allocation-regression gate for the steady-state hot path.
//!
//! The dense-ID refactor made steady-state quanta (after warm-up, with a
//! stable keyword population) run out of recycled buffers: the quantum
//! record reuses the evicted record's storage, the window index pools its
//! entries and their columns, and the AKG works out of the detector's
//! `ScratchArena`.  This test pins that property with a counting global
//! allocator: one steady-state quantum in the default (serial,
//! incremental-index) configuration must stay under a small constant
//! number of heap allocations — independent of Δ, window length and
//! keyword population.  If scratch reuse rots (say, a hot-path `Vec` is
//! rebuilt from scratch again, which costs O(Δ) allocations per quantum),
//! this fails loudly.
//!
//! The binary contains exactly one test so no concurrent test thread can
//! pollute the counter.

use dengraph_core::{DetectorBuilder, DetectorConfig};
use dengraph_stream::Message;

#[path = "support/alloc_gate.rs"]
mod alloc_gate;
use alloc_gate::{count_allocations, steady_quantum};

#[test]
fn steady_state_quanta_allocate_a_small_constant() {
    let config = DetectorConfig {
        quantum_size: 48,
        high_state_threshold: 3,
        window_quanta: 8,
        ..DetectorConfig::nominal()
    };
    let mut session = DetectorBuilder::from_config(config)
        .build()
        .expect("gate config is valid");

    // Pre-build every quantum so message construction never counts.
    let quanta: Vec<Vec<Message>> = (0..40).map(|q| steady_quantum(q, 3, 48)).collect();
    let (warmup, measured) = quanta.split_at(24);

    // Warm-up: fill the window, materialize the bursty keywords, grow
    // every scratch buffer and pool to its steady-state capacity.
    for quantum in warmup {
        let summary = session.process_quantum(quantum);
        assert!(
            !summary.events.is_empty(),
            "the bursty groups must form reportable clusters"
        );
    }

    let mut worst = 0u64;
    for (index, quantum) in (24u64..).zip(measured) {
        let (summary, count) = count_allocations(|| session.process_quantum(quantum));
        worst = worst.max(count);
        assert_eq!(summary.quantum, index);
        assert!(!summary.events.is_empty());
    }

    eprintln!("worst steady-state quantum: {worst} allocations");
    // Budget: the per-quantum constant — the returned summary's vectors,
    // the reported events (3 × keyword list) and the tracker's (amortised)
    // history growth; the AKG stage scores off the window in place and
    // allocates nothing once warm.  Measured 7 in release and
    // 28 in debug on the current implementation (the gap is the cluster
    // registry's `debug_assert!`ed invariant check, ~9 per live cluster;
    // the batch sketch kernels keep their lane buffers in the
    // `ScratchArena` and merge through a stack buffer — zero steady-state
    // allocations in either profile).  The budget leaves headroom for
    // allocator jitter while any O(Δ) regression (Δ = 48 here, so ≥ ~100
    // extra allocations) fails.
    let budget = if cfg!(debug_assertions) { 64 } else { 48 };
    assert!(
        worst <= budget,
        "steady-state quantum performed {worst} heap allocations \
         (budget {budget}) — scratch/pool reuse has regressed"
    );
}
