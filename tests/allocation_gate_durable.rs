//! Allocation gate for the durable journal's append path.
//!
//! A journaled session pays for its journal inside every quantum's
//! latency, so the journal owns its buffers: a delta frame's window
//! record is encoded once into a ring of at most `window_quanta` reused
//! slots (the slot that falls out lends its buffer) and copied from
//! there into a reused frame buffer behind the reserved header bytes,
//! followed by the rest of the delta record; a rebase snapshot goes
//! state → reused body buffer (the window records the ring holds are
//! copied, not re-encoded) → block codec (reused table), packed in slices
//! over the following quanta → a reused snapshot frame buffer; and each
//! frame is one write.  This test pins that with a
//! counting global allocator.  The journal's share of a quantum is
//! measured as *durable minus plain*: two sessions over the same stream,
//! one with a durable journal, count their allocations quantum by
//! quantum.  Once the journal is warm (past two rebases) the difference
//! must be
//!
//! * **0** for a quantum that appends a delta frame, whether or not it
//!   also packs a slice of a snapshot or writes its frame, and
//! * **at most [`REBASE_BUDGET`]** for a quantum that rebases (encodes a
//!   snapshot body) — the sorted columns the state encoders collect,
//!   never a buffer growing from empty.
//!
//! Before the journal owned its buffers every one of them grew from
//! empty on every frame: ~10 `Vec` growths for a 2.7 KB delta payload,
//! and for a rebase the body, the packed copy, the compressor's two
//! tables and the document copy on top.
//!
//! The binary contains exactly one test so no concurrent test thread can
//! pollute the counter.

use dengraph_core::{DetectorBuilder, DetectorConfig, DurableJournalConfig, FsyncPolicy};
use dengraph_stream::Message;

#[path = "support/alloc_gate.rs"]
mod alloc_gate;
use alloc_gate::{count_allocations, steady_quantum};
#[path = "support/temp_dir.rs"]
mod temp_dir;

/// Allocations a warmed rebase may make beyond the plain quantum: the two
/// sorted columns the state encoders build over hash maps — the cluster
/// registry's ids and the event tracker's records.  Measured: 2, in debug
/// and release.  The journal's own buffers (body, frame, codec table)
/// contribute nothing; any one of them growing from empty again costs
/// more.
const REBASE_BUDGET: u64 = 2;

const REBASE_EVERY: u32 = 8;

#[test]
fn a_warm_journal_appends_without_allocating() {
    let config = DetectorConfig {
        quantum_size: 48,
        high_state_threshold: 3,
        window_quanta: 8,
        ..DetectorConfig::nominal()
    };
    let dir = temp_dir::scratch_dir("allocation-gate-durable");
    let mut plain = DetectorBuilder::from_config(config.clone())
        .build()
        .expect("gate config is valid");
    let mut durable = DetectorBuilder::from_config(config)
        .durable_journal(
            &dir,
            DurableJournalConfig {
                rebase_every: REBASE_EVERY,
                fsync: FsyncPolicy::Never,
                ..DurableJournalConfig::default()
            },
        )
        .build()
        .expect("gate config is valid and the scratch directory writable");

    // Pre-build every quantum so message construction never counts.
    let quanta: Vec<Vec<Message>> = (0..48).map(|q| steady_quantum(q, 3, 48)).collect();
    // Warm-up: the window fills, every pool and scratch buffer reaches
    // its steady-state capacity, and the journal rebases twice (quanta 8
    // and 17 — every ninth quantum — writing their frames four quanta
    // later).
    let (warmup, measured) = quanta.split_at(24);
    for quantum in warmup {
        plain.process_quantum(quantum);
        durable.process_quantum(quantum);
    }
    let journal = durable.journal().expect("journal enabled");
    assert_eq!(
        journal.snapshot_frames(),
        3,
        "initial snapshot + two rebases"
    );

    let (mut deltas, mut rebases, mut worst_rebase) = (0, 0, 0);
    for quantum in measured {
        let (plain_summary, plain_count) = count_allocations(|| plain.process_quantum(quantum));
        let (durable_summary, durable_count) =
            count_allocations(|| durable.process_quantum(quantum));
        assert_eq!(plain_summary.events, durable_summary.events);
        assert!(!durable_summary.events.is_empty());
        let journal = durable.journal().expect("journal enabled");
        let share = durable_count.saturating_sub(plain_count);
        // A rebase encodes its snapshot after every ninth delta frame.
        if journal
            .delta_frames()
            .is_multiple_of(REBASE_EVERY as usize + 1)
        {
            rebases += 1;
            worst_rebase = worst_rebase.max(share);
            assert!(
                share <= REBASE_BUDGET,
                "quantum {}: the rebase allocated {share} times beyond the plain quantum's \
                 {plain_count} (budget {REBASE_BUDGET}) — a journal buffer is growing again",
                durable_summary.quantum
            );
        } else {
            deltas += 1;
            assert_eq!(
                share, 0,
                "quantum {}: the delta append or snapshot slice allocated ({durable_count} \
                 against the plain quantum's {plain_count})",
                durable_summary.quantum
            );
        }
    }
    eprintln!("worst warmed rebase: {worst_rebase} allocations beyond the plain quantum");
    assert!(durable.journal_io_error().is_none());
    assert!(
        rebases >= 2 && deltas >= 16,
        "{rebases} rebases, {deltas} deltas"
    );
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}
