//! `bench_traced` — the traced run: per-layer metrics for one workload.
//!
//! Runs under the counting allocator and alternates an untraced session
//! pass with a pass through the re-composed, span-recording pipeline
//! ([`dengraph_benchmark::staged`]) until `--seconds` have gone by; a
//! reported time is the median over those rounds.  The difference between
//! the two kinds of pass is the tracing overhead, and the spans of the last
//! traced pass go to `benchmark/out/trace-<workload>.jsonl`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use dengraph_benchmark::alloc::{self, CountingAllocator};
use dengraph_benchmark::cli::{self, Command, Outcome, RunArgs};
use dengraph_benchmark::drive::{self, CountingWriter, PassConfig, PassStats, ScratchDir};
use dengraph_benchmark::gen::Rng;
use dengraph_benchmark::metrics::PER_LAYER;
use dengraph_benchmark::staged::{Counters, Staged};
use dengraph_benchmark::stats;
use dengraph_benchmark::trace::Recorder;
use dengraph_benchmark::workload::{self, Entry, Prepared, Workload, QUANTUM, WARMUP_QUANTA};
use dengraph_core::{DetectorConfig, DetectorSession, Parallelism, RecoveryReport, WireFormat};
use dengraph_minhash::kernel::{self, SketchLanes};
use dengraph_minhash::UserHasher;
use dengraph_stream::Message;
use dengraph_text::KeywordPipeline;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Repetitions of each one-shot measurement (codec, recovery); the median
/// is reported.
const REPEATS: usize = 5;

/// Batch size of the min-hash kernel probes.
const KERNEL_BATCH: usize = 4096;

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(Command::Run(args)) if args.trace => args,
        Ok(_) => {
            eprintln!("bench_traced serves --trace 1 only; use bench for the rest");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => match cli::report(&args, &outcome) {
            Ok(()) => ExitCode::from(u8::from(!outcome.correct)),
            Err(e) => {
                eprintln!("writing the result: {e}");
                ExitCode::from(2)
            }
        },
        Err(e) => {
            eprintln!("bench_traced: {e}");
            ExitCode::from(2)
        }
    }
}

/// One pass through the staged pipeline.
struct TracedPass {
    recorder: Recorder,
    counters: Counters,
    quantum_digests: Vec<u64>,
    /// Keyword occurrences and distinct keywords the text layer produced
    /// over the timed quanta.
    keywords: u64,
    vocabulary: u64,
    /// `(bytes, lines)` the sink wrote over the timed quanta.
    sink: (u64, u64),
    input_bytes: u64,
    shadow_matches: bool,
}

fn timed(quantum: u64) -> bool {
    quantum >= WARMUP_QUANTA as u64
}

fn traced_pass(workload: &Workload, input: &Prepared) -> TracedPass {
    let quanta = input.main / QUANTUM;
    let writer = CountingWriter::default();
    let sink = (workload.entry == Entry::RawText).then(|| writer.clone());
    let mut staged = Staged::new(&input.vocabulary, sink);
    let mut recorder = Recorder::with_capacity(quanta * 12);
    let mut pipeline = KeywordPipeline::new();
    let mut values = Vec::with_capacity(QUANTUM);
    let mut messages: Vec<Message> = Vec::with_capacity(QUANTUM);
    let mut quantum_digests = Vec::with_capacity(quanta);
    let (mut keywords, mut input_bytes, mut sink_written) = (0, 0, (0, 0));
    let mut vocabulary_at_warmup = 0;
    for q in 0..quanta {
        let range = q * QUANTUM..(q + 1) * QUANTUM;
        let quantum = q as u64;
        let written_before = writer.written();
        if q == WARMUP_QUANTA {
            vocabulary_at_warmup = pipeline.interner().len() as u64;
        }
        messages.clear();
        if workload.entry == Entry::Interned {
            messages.extend(input.messages[range.clone()].iter().cloned());
        }
        recorder.enter("quantum", quantum);
        if workload.entry == Entry::RawText {
            let lines = &input.lines[range];
            recorder.enter("stream.parse", quantum);
            values.clear();
            values.extend(lines.iter().map(|line| dengraph_json::parse(line)));
            recorder.exit();
            recorder.enter("text.process", quantum);
            messages.extend(
                values
                    .iter()
                    .flatten()
                    .filter_map(|value| drive::value_to_message(&mut pipeline, value)),
            );
            recorder.exit();
            if timed(quantum) {
                keywords += messages
                    .iter()
                    .map(|m| m.keywords.len() as u64)
                    .sum::<u64>();
                input_bytes += lines.iter().map(|l| l.len() as u64).sum::<u64>();
            }
        }
        let summary = staged.quantum(quantum, &messages, timed(quantum), &mut recorder);
        recorder.exit();
        staged.replay_shadow(quantum, &mut recorder);
        quantum_digests.push(drive::summary_digest(&summary));
        if timed(quantum) {
            let written = writer.written();
            sink_written.0 += written.0 - written_before.0;
            sink_written.1 += written.1 - written_before.1;
        }
    }
    TracedPass {
        recorder,
        counters: staged.counters,
        quantum_digests,
        keywords,
        vocabulary: pipeline.interner().len() as u64 - vocabulary_at_warmup,
        sink: sink_written,
        input_bytes,
        shadow_matches: staged.shadow_matches(),
    }
}

/// Everything one round (an untraced pass, a traced pass, a two-thread
/// pass and — for a durable workload — a journaled pass) measured.  Times
/// are per timed quantum, so that across rounds each quantum's quietest
/// observation can be taken ([`stats::quietest`]).
struct Round {
    plain: PassStats,
    /// Allocation calls per timed quantum of the untraced pass (the
    /// harness clones pre-interned messages outside the timed region).
    allocs_per_quantum: f64,
    heap_mb: f64,
    /// Self time per span name, nanoseconds.
    layer_ns: BTreeMap<&'static str, Vec<u64>>,
    /// Duration of the enclosing `quantum` span, nanoseconds.
    traced_ns: Vec<u64>,
    replay_match_pct: f64,
    threads2_ns: Vec<u64>,
    journaled_ns: Vec<u64>,
}

/// Σ over the timed quanta of the quietest round's time; 0 when a round
/// has no such series (a layer the workload bypasses).
fn quiet_total<'a>(rounds: &'a [Round], f: impl Fn(&'a Round) -> Option<&'a Vec<u64>>) -> f64 {
    let columns: Option<Vec<&[u64]>> = rounds.iter().map(|r| f(r).map(Vec::as_slice)).collect();
    columns.map_or(0.0, |c| stats::quietest(&c).iter().sum::<u64>() as f64)
}

fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    stats::median(&rounds.iter().map(f).collect::<Vec<f64>>())
}

/// Median milliseconds of `REPEATS` calls of `f`, and the last result.
fn time_ms<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(REPEATS);
    let mut last = None;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let value = black_box(f());
        times.push(start.elapsed().as_secs_f64() * 1e3);
        last = Some(value);
    }
    (stats::median(&times), last.expect("REPEATS > 0"))
}

/// Nanoseconds per element of `REPEATS × 200` calls of `f` on
/// `elements`-element batches (median over the repeats).
fn kernel_ns(elements: usize, mut f: impl FnMut()) -> f64 {
    const CALLS: usize = 200;
    let per_repeat: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..CALLS {
                f();
            }
            start.elapsed().as_nanos() as f64 / (CALLS * elements) as f64
        })
        .collect();
    stats::median(&per_repeat)
}

/// The four batch kernels of `dengraph_minhash::kernel`, on
/// `KERNEL_BATCH`-element inputs shaped like the window stage's: user ids
/// to hash, hashes to fold into a sketch of the nominal size, two sketches
/// to merge, packed `(keyword, user)` pairs to sort.
fn kernel_probes(values: &mut BTreeMap<&'static str, f64>) {
    let mut rng = Rng::new(0x4B45_524E);
    let hasher = UserHasher::new(0x5EED_CAFE);
    let sketch = DetectorConfig::nominal().sketch_size();
    let ids: Vec<u64> = (0..KERNEL_BATCH).map(|_| rng.below(50_000)).collect();
    let mut hashes = Vec::new();
    values.insert(
        "minhash.hash_batch_ns_per_id",
        kernel_ns(KERNEL_BATCH, || {
            kernel::hash_batch(&hasher, black_box(&ids), |id| id, &mut hashes);
            black_box(&hashes);
        }),
    );

    let mut lanes = SketchLanes::new();
    let mut minima = Vec::new();
    values.insert(
        "minhash.fold_ns_per_id",
        kernel_ns(KERNEL_BATCH, || {
            minima.clear();
            lanes.load_hashes(black_box(&hashes));
            kernel::fold_lanes_into(&mut minima, sketch, &mut lanes);
            black_box(&minima);
        }),
    );

    let sorted_sketch = |rng: &mut Rng| {
        let mut s: Vec<u64> = (0..sketch).map(|_| rng.next_u64()).collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    let (a, b) = (sorted_sketch(&mut rng), sorted_sketch(&mut rng));
    let mut merged = vec![0u64; sketch];
    values.insert(
        "minhash.merge_ns_per_sketch",
        kernel_ns(1, || {
            black_box(kernel::merge_sorted_minima(
                black_box(&a),
                black_box(&b),
                sketch,
                &mut merged,
            ));
        }),
    );

    let pairs: Vec<u64> = (0..KERNEL_BATCH)
        .map(|_| (rng.below(12_000) << 32) | rng.below(50_000))
        .collect();
    let mut keys = Vec::new();
    let mut tmp = Vec::new();
    values.insert(
        "minhash.radix_ns_per_pair",
        kernel_ns(KERNEL_BATCH, || {
            keys.clear();
            keys.extend_from_slice(black_box(&pairs));
            kernel::radix_sort_u64(&mut keys, &mut tmp);
            black_box(&keys);
        }),
    );
}

/// Checkpoint encode and decode in both wire formats, on the state a
/// session holds at the end of the workload.
fn codec_probes(
    session: &DetectorSession,
    values: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    for (format, bytes_name, encode_name, decode_name) in [
        (
            WireFormat::Binary,
            "codec.checkpoint_bytes",
            "codec.encode_ms",
            "codec.decode_ms",
        ),
        (
            WireFormat::Json,
            "codec.json_bytes",
            "codec.json_encode_ms",
            "codec.json_decode_ms",
        ),
    ] {
        let (encode_ms, bytes) = time_ms(|| session.checkpoint_bytes(format));
        let (decode_ms, restored) = time_ms(|| DetectorSession::restore_bytes(&bytes));
        let restored = restored.map_err(|e| format!("restoring a {format} checkpoint: {e}"))?;
        if restored.quanta_processed() != session.quanta_processed() {
            return Err(format!("{format} checkpoint restored to the wrong quantum"));
        }
        values.insert(bytes_name, bytes.len() as f64);
        values.insert(encode_name, encode_ms);
        values.insert(decode_name, decode_ms);
    }
    Ok(())
}

/// A journaled pass, then `REPEATS` timed recoveries of its directory.
fn journaled_pass(
    workload: &Workload,
    input: &Prepared,
) -> Result<(PassStats, DetectorSession, f64, RecoveryReport), String> {
    let dir = ScratchDir::new("wal").map_err(|e| format!("scratch directory: {e}"))?;
    let config = PassConfig {
        journal_dir: Some(dir.path()),
        ..PassConfig::PLAIN
    };
    let (stats, session) = drive::run_pass(workload, input, config)?;
    if let Some(e) = session.journal_io_error() {
        return Err(format!("journal latched an I/O error: {e}"));
    }
    let (recovery_ms, recovered) =
        time_ms(|| DetectorSession::restore_from_dir_with_report(dir.path()));
    let (_, report) = recovered.map_err(|e| format!("recovery failed: {e}"))?;
    Ok((stats, session, recovery_ms, report))
}

fn run(args: &RunArgs) -> Result<Outcome, String> {
    let workload = args.workload;
    let input = workload::prepare(workload, args.seed);
    let quanta = (input.main / QUANTUM - WARMUP_QUANTA) as f64;
    let messages = quanta * QUANTUM as f64;
    let mut problems = Vec::new();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    let mut rounds: Vec<Round> = Vec::new();
    let mut last_traced = None;
    let mut last_session = None;
    let mut last_journaled = None;
    let started = Instant::now();
    while rounds.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        drop(last_session.take());
        let live_before = alloc::live_bytes();
        let (plain, session) = drive::run_pass(workload, &input, PassConfig::PLAIN)?;
        let heap_mb = alloc::live_bytes().saturating_sub(live_before) as f64 / (1 << 20) as f64;
        attempted += plain.attempted;
        failed += plain.parse_failures;

        let traced = traced_pass(workload, &input);
        let matching = traced
            .quantum_digests
            .iter()
            .zip(&plain.quantum_digests)
            .filter(|(a, b)| a == b)
            .count();
        let replay_match_pct = 100.0 * matching as f64
            / traced
                .quantum_digests
                .len()
                .max(plain.quantum_digests.len()) as f64;
        let timed_quanta = quanta as usize;
        let layer_ns = traced
            .recorder
            .self_times(WARMUP_QUANTA as u64, timed_quanta);
        let traced_ns = traced
            .recorder
            .durations("quantum", WARMUP_QUANTA as u64, timed_quanta);
        if !traced.shadow_matches {
            problems.push("the shadow graph diverged from the AKG".into());
        }

        // Parallel fan-out: the same session at two threads.
        let threads2 = PassConfig {
            parallelism: Parallelism::Threads(2),
            ..PassConfig::PLAIN
        };
        let (parallel, _) = drive::run_pass(workload, &input, threads2)?;
        attempted += parallel.attempted;
        if parallel.events_digest() != plain.events_digest() {
            problems.push("serial and two-thread sessions report different events".into());
        }

        let mut journaled_ns = Vec::new();
        if workload.durable {
            let mut journaled = journaled_pass(workload, &input)?;
            attempted += journaled.0.attempted + REPEATS as u64;
            if journaled.0.events_digest() != plain.events_digest() {
                problems.push("journaled and plain sessions report different events".into());
            }
            journaled_ns = std::mem::take(&mut journaled.0.chunk_ns);
            last_journaled = Some(journaled);
        }

        rounds.push(Round {
            allocs_per_quantum: plain.allocations as f64 / quanta,
            heap_mb,
            plain,
            layer_ns,
            traced_ns,
            replay_match_pct,
            threads2_ns: parallel.chunk_ns,
            journaled_ns,
        });
        last_traced = Some(traced);
        last_session = Some(session);
    }
    let traced = last_traced.expect("at least one round");
    let session = last_session.expect("at least one round");

    // Spans → per-layer times: per quantum, the quietest round.
    let layer_ns = |names: &[&'static str]| -> f64 {
        names
            .iter()
            .map(|&name| quiet_total(&rounds, |r| r.layer_ns.get(name)))
            .sum()
    };
    let per_quantum_us = |names: &[&'static str]| layer_ns(names) / quanta / 1e3;
    values.insert("text.ns_per_msg", layer_ns(&["text.process"]) / messages);
    values.insert(
        "stream.parse_ns_per_msg",
        layer_ns(&["stream.parse"]) / messages,
    );
    values.insert("sink.us_per_quantum", per_quantum_us(&["sink.deliver"]));
    values.insert(
        "window.aggregate_us_per_quantum",
        per_quantum_us(&["window.aggregate"]),
    );
    values.insert(
        "window.slide_us_per_quantum",
        per_quantum_us(&["window.slide"]),
    );
    values.insert("akg.us_per_quantum", per_quantum_us(&["akg.process"]));
    values.insert(
        "graph.apply_us_per_quantum",
        per_quantum_us(&["graph.apply"]),
    );
    values.insert("cluster.us_per_quantum", per_quantum_us(&["cluster.apply"]));
    values.insert(
        "ranking.support_us_per_quantum",
        per_quantum_us(&["ranking.support"]),
    );
    values.insert(
        "ranking.rank_us_per_quantum",
        per_quantum_us(&["ranking.rank"]),
    );

    const PIPELINE: [&str; 9] = [
        "stream.parse",
        "text.process",
        "window.aggregate",
        "window.slide",
        "akg.process",
        "cluster.apply",
        "ranking.support",
        "ranking.rank",
        "sink.deliver",
    ];
    let traced_wall = quiet_total(&rounds, |r| Some(&r.traced_ns));
    let plain_wall = quiet_total(&rounds, |r| Some(&r.plain.chunk_ns));
    let share = |names: &[&'static str]| 100.0 * layer_ns(names) / traced_wall;
    values.insert(
        "share.text_stream_sink_pct",
        share(&["stream.parse", "text.process", "sink.deliver"]),
    );
    values.insert(
        "share.window_pct",
        share(&["window.aggregate", "window.slide"]),
    );
    values.insert(
        "share.akg_ranking_pct",
        share(&["akg.process", "ranking.support", "ranking.rank"]),
    );
    values.insert("share.cluster_pct", share(&["cluster.apply"]));
    values.insert(
        "trace.coverage_pct",
        100.0 * layer_ns(&PIPELINE) / plain_wall,
    );
    values.insert(
        "trace.overhead_pct",
        100.0 * (traced_wall / plain_wall - 1.0),
    );
    values.insert(
        "trace.replay_match_pct",
        rounds
            .iter()
            .map(|r| r.replay_match_pct)
            .fold(f64::INFINITY, f64::min),
    );
    if values["trace.replay_match_pct"] < 100.0 {
        problems.push("the staged pipeline and the session report different events".into());
    }

    // Work counters of the traced pass: exact for a seed.
    let c = traced.counters;
    let per_quantum = |total: u64| total as f64 / c.quanta as f64;
    let pct = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            100.0 * part as f64 / whole as f64
        }
    };
    values.insert("text.keywords_per_msg", traced.keywords as f64 / messages);
    values.insert("text.vocab_size", traced.vocabulary as f64);
    values.insert(
        "text.intern_miss_pct",
        pct(traced.vocabulary, traced.keywords),
    );
    values.insert("stream.bytes_per_msg", traced.input_bytes as f64 / messages);
    values.insert("sink.bytes_per_quantum", traced.sink.0 as f64 / quanta);
    values.insert("sink.lines_per_quantum", traced.sink.1 as f64 / quanta);
    values.insert("window.pairs_per_quantum", per_quantum(c.window_pairs));
    values.insert(
        "window.keywords_per_quantum",
        per_quantum(c.window_keywords),
    );
    values.insert("akg.pairs_scored_per_quantum", per_quantum(c.pairs_scored));
    values.insert("akg.bursty_per_quantum", per_quantum(c.bursty));
    values.insert("akg.edge_yield_pct", pct(c.edge_deltas, c.pairs_scored));
    values.insert("akg.deltas_per_quantum", per_quantum(c.deltas));
    values.insert("akg.nodes_resident", per_quantum(c.akg_nodes));
    values.insert("akg.edges_resident", per_quantum(c.akg_edges));
    values.insert("cluster.ops_per_quantum", per_quantum(c.cluster_ops));
    values.insert("cluster.live_clusters", per_quantum(c.clusters));
    values.insert(
        "ranking.clusters_ranked_per_quantum",
        per_quantum(c.clusters),
    );
    values.insert("ranking.events_per_quantum", per_quantum(c.events));
    values.insert("ranking.report_yield_pct", pct(c.events, c.clusters));

    // The session as a whole.
    values.insert(
        "session.push_us_per_quantum",
        quiet_total(&rounds, |r| Some(&r.plain.closing_ns)) / quanta / 1e3,
    );
    values.insert(
        "session.allocs_per_quantum",
        median_of(&rounds, |r| r.allocs_per_quantum),
    );
    values.insert("session.heap_mb", median_of(&rounds, |r| r.heap_mb));
    codec_probes(&session, &mut values)?;
    kernel_probes(&mut values);

    // The WAL, by difference: the append sits inside `push_message`.
    if let Some((_, journaled, recovery_ms, report)) = &last_journaled {
        let journaled_wall = quiet_total(&rounds, |r| Some(&r.journaled_ns));
        values.insert(
            "wal.overhead_pct",
            100.0 * (journaled_wall / plain_wall - 1.0),
        );
        values.insert(
            "wal.append_us_per_quantum",
            (journaled_wall - plain_wall) / quanta / 1e3,
        );
        let journal = journaled
            .journal()
            .ok_or("the durable session has no journal")?;
        let all_quanta = journaled.quanta_processed() as f64;
        let bytes = journal.mean_delta_bytes() * journal.delta_frames() as f64
            + (journal.snapshot_frames() * journal.last_snapshot_bytes()) as f64;
        values.insert("wal.bytes_per_quantum", bytes / all_quanta);
        values.insert(
            "wal.journal_bytes_per_msg",
            bytes / all_quanta / QUANTUM as f64,
        );
        values.insert("wal.delta_bytes_mean", journal.mean_delta_bytes());
        values.insert("wal.snapshot_bytes", journal.last_snapshot_bytes() as f64);
        values.insert("wal.recovery_ms", *recovery_ms);
        values.insert("wal.frames_recovered", report.frames_recovered as f64);
        values.insert("wal.deltas_replayed", report.deltas_replayed as f64);
        values.insert("wal.segments_scanned", report.segments_scanned as f64);
        if report.torn.is_some() || report.recovered_quantum != journaled.quanta_processed() {
            failed += 1;
            problems.push(format!(
                "recovered {} of {} quanta; torn: {:?}",
                report.recovered_quantum,
                journaled.quanta_processed(),
                report.torn
            ));
        }
    }

    drop(session);
    values.insert(
        "parallel.hardware_threads",
        std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
    );
    values.insert(
        "parallel.threads2_speedup_x",
        plain_wall / quiet_total(&rounds, |r| Some(&r.threads2_ns)),
    );

    let trace_path = dengraph_benchmark::out_dir()
        .map_err(|e| e.to_string())?
        .join(format!("trace-{}.jsonl", workload.name));
    traced
        .recorder
        .write_jsonl(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    eprintln!(
        "{}: {} round(s); {} spans written to {}",
        workload.name,
        rounds.len(),
        traced.recorder.spans().len(),
        trace_path.display()
    );

    let metrics = PER_LAYER
        .iter()
        .map(|metric| (metric, values.get(metric.name).copied().unwrap_or(0.0)))
        .collect();
    Ok(Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        counters: vec![
            ("input_digest", input.input_digest),
            ("events_digest", rounds[0].plain.events_digest()),
        ],
        problems,
    })
}
