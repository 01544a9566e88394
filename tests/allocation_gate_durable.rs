//! Allocation gate for the durable journal's append path.
//!
//! A journaled session pays for its journal inside every quantum's
//! latency, so the journal owns its buffers: a delta record is encoded
//! straight into a reused frame buffer behind the reserved header bytes,
//! a rebase snapshot goes state → reused body buffer → block codec
//! (reused table) → the same frame buffer, and each frame is one write.
//! This test pins that with a counting global allocator.  The journal's
//! share of a quantum is measured as *durable minus plain*: two sessions
//! over the same stream, one with a durable journal, count their
//! allocations quantum by quantum.  Once the journal is warm (past two
//! rebases) the difference must be
//!
//! * **0** for a quantum that appends a delta frame, and
//! * **at most [`REBASE_BUDGET`]** for a quantum that rebases — the
//!   sorted id columns the state encoders collect (a few per live
//!   cluster), never a buffer growing from empty.
//!
//! Before the journal owned its buffers every one of them grew from
//! empty on every frame: ~10 `Vec` growths for a 2.7 KB delta payload,
//! and for a rebase the body, the packed copy, the compressor's two
//! tables and the document copy on top.
//!
//! The binary contains exactly one test so no concurrent test thread can
//! pollute the counter.

use dengraph_core::{
    CheckpointMode, DetectorBuilder, DetectorConfig, DurableJournalConfig, FsyncPolicy,
    Parallelism, WindowIndexMode,
};
use dengraph_stream::Quantum;

#[path = "support/alloc_gate.rs"]
mod alloc_gate;
use alloc_gate::{count_allocations, steady_quantum};

/// Allocations a warmed rebase may make beyond the plain quantum: the
/// sorted columns the state encoders build — tracker records, High
/// keywords, the graph's nodes and edges, and per live cluster (three
/// here) its nodes, its edges and its component's members.  Measured:
/// 18.  The journal's own buffers (body, frame, codec table) contribute
/// nothing; any one of them growing from empty again costs ≥ 10 more.
const REBASE_BUDGET: u64 = 24;

const REBASE_EVERY: u32 = 8;

#[test]
fn a_warm_journal_appends_without_allocating() {
    let config = DetectorConfig {
        quantum_size: 48,
        high_state_threshold: 3,
        window_quanta: 8,
        parallelism: Parallelism::Serial,
        window_index_mode: WindowIndexMode::Incremental,
        ..DetectorConfig::nominal()
    };
    let dir = std::env::temp_dir().join(format!(
        "dengraph-allocation-gate-durable-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut plain = DetectorBuilder::from_config(config.clone())
        .build()
        .expect("gate config is valid");
    let mut durable = DetectorBuilder::from_config(config)
        .durable_journal(
            &dir,
            DurableJournalConfig {
                mode: CheckpointMode::Delta {
                    every: REBASE_EVERY,
                },
                fsync: FsyncPolicy::Never,
                ..DurableJournalConfig::default()
            },
        )
        .build()
        .expect("gate config is valid and the scratch directory writable");

    // Pre-build every quantum so message construction never counts.
    let quanta: Vec<Quantum> = (0..48).map(|q| steady_quantum(q, 3, 48)).collect();
    // Warm-up: the window fills, every pool and scratch buffer reaches
    // its steady-state capacity, and the journal rebases twice (quanta 9
    // and 18 — the initial snapshot, then every ninth frame).
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
        let snapshots_before = durable
            .journal()
            .expect("journal enabled")
            .snapshot_frames();
        let (plain_summary, plain_count) = count_allocations(|| plain.process_quantum(quantum));
        let (durable_summary, durable_count) =
            count_allocations(|| durable.process_quantum(quantum));
        assert_eq!(plain_summary.events, durable_summary.events);
        assert!(!durable_summary.events.is_empty());
        let journal = durable.journal().expect("journal enabled");
        let share = durable_count.saturating_sub(plain_count);
        if journal.snapshot_frames() > snapshots_before {
            rebases += 1;
            worst_rebase = worst_rebase.max(share);
            assert!(
                share <= REBASE_BUDGET,
                "quantum {}: the rebase allocated {share} times beyond the plain quantum's \
                 {plain_count} (budget {REBASE_BUDGET}) — a journal buffer is growing again",
                quantum.index
            );
        } else {
            deltas += 1;
            assert_eq!(
                share, 0,
                "quantum {}: the delta append allocated ({durable_count} against the plain \
                 quantum's {plain_count})",
                quantum.index
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
