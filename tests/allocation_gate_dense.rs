//! Allocation gate for the event-dense regime.
//!
//! `allocation_gate.rs` pins the per-quantum *constant* on a stream that
//! reports three events, which is how a report path costing ~15
//! allocations per reported event (a sorted-neighbour vector per member
//! node while ranking, a rebuilt keyword list per tracker update) went
//! unnoticed until a workload reported 244 events per quantum.  This gate
//! reports 48 events per steady-state quantum and budgets what the
//! pipeline may spend **per event**: the keyword list of the
//! `DetectedEvent` handed to the caller, plus the amortised growth of the
//! event's rank history.  Ranking, the noun-free report filter, the
//! tracker update and sink dispatch must otherwise run out of retained
//! capacity.
//!
//! The binary contains exactly one test so no concurrent test thread can
//! pollute the counter.

use dengraph_core::{DetectorBuilder, DetectorConfig};
use dengraph_stream::Message;

#[path = "support/alloc_gate.rs"]
mod alloc_gate;
use alloc_gate::{count_allocations, steady_quantum};

const GROUPS: u32 = 48;
const QUANTUM_SIZE: usize = 240;

#[test]
fn event_dense_quanta_allocate_a_constant_plus_two_per_event() {
    let config = DetectorConfig {
        quantum_size: QUANTUM_SIZE,
        high_state_threshold: 3,
        window_quanta: 8,
        ..DetectorConfig::nominal()
    };
    let mut session = DetectorBuilder::from_config(config)
        .build()
        .expect("gate config is valid");

    // Pre-build every quantum so message construction never counts.
    let quanta: Vec<Vec<Message>> = (0..40)
        .map(|q| steady_quantum(q, GROUPS, QUANTUM_SIZE))
        .collect();
    let (warmup, measured) = quanta.split_at(24);
    for quantum in warmup {
        session.process_quantum(quantum);
    }

    // Every event was first reported in the same quantum, so all 48 rank
    // histories outgrow their buffers in the same measured quantum (the
    // 33rd report): the worst quantum really pays two per event.
    let (mut worst, mut worst_events) = (0u64, 0usize);
    for quantum in measured {
        let (summary, count) = count_allocations(|| session.process_quantum(quantum));
        let events = summary.events.len();
        assert!(
            events >= 40,
            "quantum {}: the gate needs an event-dense stream, got {events} events",
            summary.quantum
        );
        // Debug builds re-check the cluster registry's invariants after
        // every quantum (a `debug_assert!` in the maintainer), which
        // allocates per live cluster; that is the checker's cost, not the
        // pipeline's, so it is measured and set aside.
        let debug_checks = if cfg!(debug_assertions) {
            let registry = session.detector().clusters().registry();
            count_allocations(|| registry.check_invariants()).1
        } else {
            0
        };
        // The constant is `allocation_gate.rs`'s release budget.
        let budget = 48 + 2 * events as u64 + debug_checks;
        assert!(
            count <= budget,
            "quantum {} performed {count} heap allocations reporting {events} events \
             (budget {budget} = constant + 2 per event) — the rank/report path allocates \
             per event again",
            summary.quantum
        );
        if count > worst {
            (worst, worst_events) = (count, events);
        }
    }
    eprintln!("worst event-dense quantum: {worst} allocations for {worst_events} events");
}
