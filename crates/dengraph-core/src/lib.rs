//! # dengraph-core — real-time dense-cluster discovery in dynamic graphs
//!
//! This crate implements the system described in *"Real Time Discovery of
//! Dense Clusters in Highly Dynamic Graphs: Identifying Real World Events in
//! Highly Dynamic Environments"* (Agarwal, Ramamritham, Bhide — VLDB 2012):
//! discovering emerging events in a microblog stream by maintaining
//! approximate ½-quasi cliques (clusters with the *short-cycle property*) in
//! a highly dynamic keyword graph, using only local computation.
//!
//! ## Crate layout
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`config`] | Table 2 | tunable parameters and nominal values |
//! | [`keyword_state`] | §3.1–3.2 | sliding window, per-keyword user sets and window sketches |
//! | [`akg`] | §3.1–3.2 | AKG node admission (the two-state automaton), min-hash edge correlation, lazy removal |
//! | [`cluster`] | §4–5 | short-cycle clusters, local addition/deletion maintenance |
//! | [`ranking`] | §6 | local cluster ranking |
//! | [`event`] | §7.2.2 | event records, evolution and post-hoc spuriousness |
//! | [`detector`] | all | the end-to-end streaming [`EventDetector`] |
//! | [`session`] | service surface | [`DetectorBuilder`], push-based [`EventSink`]s, checkpoint bytes and restore |
//! | [`checkpoint`] | durability | checkpoint documents, per-quantum [`DeltaRecord`]s, the [`CheckpointJournal`] |
//! | [`wal`] | durability | segmented on-disk write-ahead log: [`FsyncPolicy`], rotation, compaction, torn-write recovery |
//! | [`evaluation`] | §7 | ground-truth matching and precision/recall (what the repo benchmark scores with) |
//!
//! ## Quick start
//!
//! ```
//! use dengraph_core::DetectorBuilder;
//! use dengraph_stream::{Message, UserId};
//! use dengraph_text::KeywordId;
//!
//! // Five users tweet about the same breaking story within one quantum.
//! let mut session = DetectorBuilder::new()
//!     .quantum_size(8)
//!     .high_state_threshold(3)
//!     .build()
//!     .expect("valid configuration");
//! let mut summaries = Vec::new();
//! for u in 0..8u64 {
//!     let keywords = if u < 5 {
//!         vec![KeywordId(1), KeywordId(2), KeywordId(3)] // earthquake struck turkey
//!     } else {
//!         vec![KeywordId(100 + u as u32)] // unrelated chatter
//!     };
//!     if let Some(summary) = session.push_message(Message::new(UserId(u), u, keywords)) {
//!         summaries.push(summary);
//!     }
//! }
//! assert_eq!(summaries.len(), 1);
//! assert_eq!(summaries[0].events.len(), 1);
//! assert_eq!(summaries[0].events[0].keywords.len(), 3);
//! ```
//!
//! For push-based delivery and checkpoint/restore, see [`session`].
//!
//! The paper's reference and evaluation code — the offline biconnected
//! baseline, the full-CKG bookkeeping, the Table 3 scheme comparison and
//! the Section 7 run reports — is not part of the engine; it lives in the
//! `dengraph-tests` library beside the tests that use it.

// Module docs live as `//!` inner docs in each module's own file;
// adding outer `///` docs here would merge with them and re-scope
// their intra-doc links into this file, breaking `cargo doc`.
pub mod akg;
pub mod checkpoint;
pub mod cluster;
pub mod config;
pub mod detector;
pub mod evaluation;
pub mod event;
pub mod keyword_state;
pub mod ranking;
pub(crate) mod scratch;
pub mod session;
pub mod wal;

pub use akg::{AkgMaintainer, GraphDelta};
pub use checkpoint::{CheckpointJournal, DeltaRecord};
pub use cluster::{Cluster, ClusterId, ClusterMaintainer, ClusterRegistry};
pub use config::{ConfigError, DetectorConfig, Parallelism};
pub use dengraph_json::WireFormat;
pub use detector::{EventDetector, QuantumSummary};
pub use event::{DetectedEvent, EventRecord, EventTracker};
pub use keyword_state::WindowIndexMode;
pub use ranking::cluster_rank;
pub use session::{
    DetectorBuilder, DetectorSession, EventLineError, EventLineReader, EventSink, FnSink,
    JsonLinesSink, QuantumNotifications, RestoreError, VecSink,
};
pub use wal::{
    DurableJournalConfig, FsyncPolicy, JournalFrameEvent, JournalReader, RecoveryReport, TornWrite,
    TornWriteReason,
};
