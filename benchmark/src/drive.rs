//! Driving a `DetectorSession` over a workload's inputs: the closed loop
//! every number in the benchmark comes from.
//!
//! **Load model.**  Closed loop, one client, one thread.  The detector is
//! a single-writer state machine whose `push_message` returns when the
//! quantum's summary has reached the sinks (and the journal, if any), so
//! the saturation throughput *is* the sustainable rate and the
//! distribution of the quantum-closing `push_message` *is* the report
//! delay.  An open-loop generator would only add a queue in front of that
//! one call.
//!
//! A *pass* is one fresh session fed the whole main stream.  The first
//! [`WARMUP_QUANTA`] quanta of every pass are untimed.  Pre-interned
//! messages are cloned one quantum at a time *outside* the timed region;
//! raw lines are parsed and tokenised *inside* it, because that is the
//! work a deployment does per post.

use std::cell::Cell;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use dengraph_core::evaluation::matching::match_records;
use dengraph_core::evaluation::precision_recall::precision_recall;
use dengraph_core::{
    DetectorBuilder, DetectorSession, DurableJournalConfig, FnSink, FsyncPolicy, JsonLinesSink,
    Parallelism, QuantumSummary,
};
use dengraph_stream::{Message, UserId};
use dengraph_text::KeywordPipeline;

use crate::digest::Digest;
use crate::workload::{Entry, Prepared, Workload, WARMUP_QUANTA};

/// What one pass measured.
#[derive(Debug, Clone, Default)]
pub struct PassStats {
    /// Wall time of each timed quantum's whole chunk of inputs (for raw
    /// text: parse, tokenise and push), nanoseconds.
    pub chunk_ns: Vec<u64>,
    /// Messages fed during the timed quanta.
    pub timed_messages: u64,
    /// Duration of each timed quantum-closing `push_message`, nanoseconds.
    pub closing_ns: Vec<u64>,
    /// Digest of each quantum's reported events, warm-up included.
    pub quantum_digests: Vec<u64>,
    /// Events reported over the whole pass.
    pub events: u64,
    /// Inputs fed over the whole pass (lines or messages).
    pub attempted: u64,
    /// Lines that failed to parse.
    pub parse_failures: u64,
    /// Allocation calls inside the timed region (0 unless the binary
    /// installs [`crate::alloc::CountingAllocator`]).
    pub allocations: u64,
}

impl PassStats {
    /// Digest of every quantum's events, in order.
    pub fn events_digest(&self) -> u64 {
        let mut d = Digest::new();
        self.quantum_digests.iter().for_each(|&q| d.u64(q));
        d.value()
    }

    /// Wall time of the timed quanta, nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.chunk_ns.iter().sum()
    }

    /// Timed messages per second.
    pub fn msgs_per_s(&self) -> f64 {
        self.timed_messages as f64 / (self.wall_ns() as f64 / 1e9)
    }
}

/// Digest of one quantum's report: quantum, then cluster id, rank bits,
/// support and keywords of every event, in report order.
pub fn summary_digest(summary: &QuantumSummary) -> u64 {
    let mut d = Digest::new();
    d.u64(summary.quantum);
    for event in &summary.events {
        d.u64(event.cluster_id.0);
        d.u64(event.rank.to_bits());
        d.u64(event.support as u64);
        d.u64(event.keywords.len() as u64);
        for k in &event.keywords {
            d.u64(u64::from(k.0));
        }
    }
    d.value()
}

/// A `Write` that counts bytes and lines and keeps nothing: the
/// `JsonLinesSink` does all its formatting and buffering, and no disk or
/// socket adds noise.
#[derive(Debug, Clone, Default)]
pub struct CountingWriter {
    bytes: Rc<Cell<u64>>,
    lines: Rc<Cell<u64>>,
}

impl CountingWriter {
    /// `(bytes, lines)` written so far.
    pub fn written(&self) -> (u64, u64) {
        (self.bytes.get(), self.lines.get())
    }
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.set(self.bytes.get() + buf.len() as u64);
        let newlines = buf.iter().filter(|&&b| b == b'\n').count();
        self.lines.set(self.lines.get() + newlines as u64);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A scratch directory under `benchmark/out/`, removed when dropped — on
/// normal return and on unwinding alike.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `benchmark/out/<tag>-<pid>-<n>`.
    pub fn new(tag: &str) -> io::Result<Self> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = crate::out_dir()?.join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is reported by `git status`,
        // and panicking here would abort an unwinding process.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// How a pass's session is configured beyond the paper's nominal
/// parameters (Δ=160, σ=4, τ=0.2, w=30).
#[derive(Debug, Clone, Copy)]
pub struct PassConfig<'a> {
    /// Serial everywhere except the `parallel.*` per-layer probe.
    pub parallelism: Parallelism,
    /// WAL directory of a durable session.
    pub journal_dir: Option<&'a Path>,
}

impl PassConfig<'_> {
    /// Serial, no journal.
    pub const PLAIN: PassConfig<'static> = PassConfig {
        parallelism: Parallelism::Serial,
        journal_dir: None,
    };
}

/// Builds a nominal session for `input`, with the stream's vocabulary as
/// its interner so the noun filter is live.
pub fn build_session(input: &Prepared, config: PassConfig<'_>) -> Result<DetectorSession, String> {
    let mut builder = DetectorBuilder::new()
        .parallelism(config.parallelism)
        .interner(input.vocabulary.clone());
    if let Some(dir) = config.journal_dir {
        builder = builder.durable_journal(
            dir,
            DurableJournalConfig {
                fsync: FsyncPolicy::Never,
                ..Default::default()
            },
        );
    }
    builder
        .build()
        .map_err(|e| format!("building session: {e}"))
}

/// Runs one decoded post through the text pipeline.
pub fn value_to_message(
    pipeline: &mut KeywordPipeline,
    value: &dengraph_json::Value,
) -> Option<Message> {
    let author = value.get("user").ok()?.as_str().ok()?;
    let time = value.get("time").ok()?.as_u64().ok()?;
    let text = value.get("text").ok()?.as_str().ok()?;
    let (user, keywords) = pipeline.process_post(author, text);
    Some(Message::new(UserId(user.raw()), time, keywords))
}

/// Parses one raw line and runs it through the text pipeline.
pub fn post_to_message(pipeline: &mut KeywordPipeline, line: &str) -> Option<Message> {
    value_to_message(pipeline, &dengraph_json::parse(line).ok()?)
}

/// Runs one pass: a fresh session over the workload's main stream.
/// Returns what it measured and the session, still live, for the caller
/// to inspect, checkpoint or continue.
pub fn run_pass(
    workload: &Workload,
    input: &Prepared,
    config: PassConfig<'_>,
) -> Result<(PassStats, DetectorSession), String> {
    let mut session = build_session(input, config)?;
    let quantum = session.config().quantum_size;
    let events_seen = Rc::new(Cell::new(0u64));
    let writer = CountingWriter::default();
    match workload.entry {
        Entry::RawText => {
            session.attach_sink(Box::new(JsonLinesSink::new(writer.clone())));
        }
        Entry::Interned => {
            let events_seen = Rc::clone(&events_seen);
            session.attach_sink(Box::new(FnSink::new(move |s: &QuantumSummary| {
                events_seen.set(events_seen.get() + s.events.len() as u64);
            })));
        }
    }

    let mut stats = PassStats::default();
    let mut pipeline = KeywordPipeline::new();
    let mut staged: Vec<Message> = Vec::with_capacity(quantum);
    let chunks = input.main.div_ceil(quantum);
    stats.closing_ns.reserve(chunks);
    stats.chunk_ns.reserve(chunks);
    stats.quantum_digests.reserve(chunks);
    for chunk in 0..chunks {
        let range = chunk * quantum..((chunk + 1) * quantum).min(input.main);
        let timed = chunk >= WARMUP_QUANTA;
        let mut closed: Option<(u64, QuantumSummary)> = None;
        let mut failures = 0;
        let mut push = |session: &mut DetectorSession, message: Message| {
            if session.buffered_messages() + 1 == quantum {
                let start = Instant::now();
                let summary = session.push_message(message);
                let took = start.elapsed().as_nanos() as u64;
                closed = summary.map(|s| (took, s));
            } else {
                session.push_message(message);
            }
        };
        let (start, allocations);
        match workload.entry {
            Entry::RawText => {
                let lines = &input.lines[range.clone()];
                allocations = crate::alloc::allocations();
                start = Instant::now();
                for line in lines {
                    match post_to_message(&mut pipeline, line) {
                        Some(message) => push(&mut session, message),
                        None => failures += 1,
                    }
                }
            }
            Entry::Interned => {
                staged.extend(input.messages[range.clone()].iter().cloned());
                allocations = crate::alloc::allocations();
                start = Instant::now();
                for message in staged.drain(..) {
                    push(&mut session, message);
                }
            }
        }
        let wall = start.elapsed().as_nanos() as u64;
        let allocations = crate::alloc::allocations() - allocations;

        stats.attempted += range.len() as u64;
        stats.parse_failures += failures;
        if let Some((took, summary)) = closed {
            stats.quantum_digests.push(summary_digest(&summary));
            stats.events += summary.events.len() as u64;
            if timed {
                stats.closing_ns.push(took);
            }
        }
        if timed {
            stats.chunk_ns.push(wall);
            stats.allocations += allocations;
            stats.timed_messages += range.len() as u64;
        }
    }
    if workload.entry == Entry::Interned && events_seen.get() != stats.events {
        return Err(format!(
            "sink saw {} events, push_message returned {}",
            events_seen.get(),
            stats.events
        ));
    }
    Ok((stats, session))
}

/// Feeds `tail` to `session` and digests what it reports.
pub fn continue_session(session: &mut DetectorSession, tail: &[Message]) -> u64 {
    let mut d = Digest::new();
    for message in tail {
        if let Some(summary) = session.push_message(message.clone()) {
            d.u64(summary_digest(&summary));
        }
    }
    d.value()
}

/// `(recall %, precision %)` of the session's event records against the
/// planted ground truth.  Exact for a seed.
pub fn quality(session: &DetectorSession, input: &Prepared) -> (f64, f64) {
    let records = session.event_records();
    let report = match_records(&records, &input.truth);
    let pr = precision_recall(&report, &input.truth);
    (pr.recall * 100.0, pr.precision * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_writer_counts_bytes_and_lines() {
        let writer = CountingWriter::default();
        let mut handle = writer.clone();
        handle.write_all(b"one\ntwo\n").unwrap();
        handle.write_all(b"partial").unwrap();
        assert_eq!(writer.written(), (15, 2));
    }

    #[test]
    fn scratch_dirs_are_distinct_and_removed_on_drop_and_on_unwind() {
        let a = ScratchDir::new("test").unwrap();
        let b = ScratchDir::new("test").unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), b"12345").unwrap();
        let (pa, pb) = (a.path().to_path_buf(), b.path().to_path_buf());
        drop(a);
        assert!(!pa.exists());
        let unwound = std::panic::catch_unwind(move || {
            let _guard = b;
            panic!("simulated failure mid-pass");
        });
        assert!(unwound.is_err());
        assert!(!pb.exists(), "unwinding must remove the directory too");
    }

    #[test]
    fn summary_digest_sees_every_reported_field() {
        use dengraph_core::{ClusterId, DetectedEvent};
        use dengraph_text::KeywordId;
        let base = QuantumSummary {
            quantum: 4,
            messages: 160,
            events: vec![DetectedEvent {
                cluster_id: ClusterId(9),
                quantum: 4,
                keywords: vec![KeywordId(1), KeywordId(2)],
                rank: 12.5,
                support: 30,
            }],
            akg_stats: Default::default(),
            maintenance_stats: Default::default(),
            live_clusters: 1,
            akg_nodes: 2,
            akg_edges: 1,
            evicted_quantum: None,
        };
        let mut variants = vec![base.clone(); 5];
        variants[0].quantum = 5;
        variants[1].events[0].cluster_id = ClusterId(8);
        variants[2].events[0].rank = 12.500000000000002;
        variants[3].events[0].support = 31;
        variants[4].events[0].keywords[1] = KeywordId(3);
        for v in &variants {
            assert_ne!(summary_digest(v), summary_digest(&base));
        }
        assert_eq!(summary_digest(&base.clone()), summary_digest(&base));
    }
}
