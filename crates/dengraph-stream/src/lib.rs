//! Microblog stream model and synthetic workload generator for `dengraph`.
//!
//! The paper evaluates its event-detection technique on real Twitter traces
//! (a geo-filtered ground-truth trace plus the "Time Window" and "Event
//! Specific" traces of Section 7.2) and on Google News headlines as ground
//! truth.  Those artefacts cannot be redistributed, so this crate provides
//! the closest synthetic equivalent:
//!
//! * [`message`] — the `(user, time, keyword set)` message model consumed by
//!   the detector; everything downstream is agnostic about where messages
//!   come from.
//! * [`quantum`] — batching a message stream into quanta of Δ messages (the
//!   unit at which the sliding window advances).
//! * [`generator`] — the synthetic workload generator: Zipfian background
//!   chatter, injected real-world events with build-up / peak / wind-down
//!   phases and evolving keyword sets, spurious bursts, and the TW / ES /
//!   ground-truth profiles used by the benchmark harness.
//! * [`ground_truth`] — the registry of injected events that the evaluation
//!   harness matches discovered clusters against.
//! * [`trace`] — an in-memory trace (messages + ground truth + interner)
//!   with summary statistics and JSON (de)serialisation.

pub mod generator;
pub mod ground_truth;
pub mod json;
pub mod message;
pub mod quantum;
pub mod trace;

pub use generator::{EventScenario, StreamGenerator, StreamProfile};
pub use ground_truth::{GroundTruth, GroundTruthEvent, GroundTruthEventKind};
pub use message::{Message, UserId};
pub use quantum::{Quantum, QuantumBatcher};
pub use trace::{Trace, TraceStats};
