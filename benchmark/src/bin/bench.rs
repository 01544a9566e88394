//! `bench` — the timed run: end-to-end metrics and correctness checks for
//! one workload, with no spans and the system allocator.  Also
//! `bench --compare baseline.jsonl candidate.jsonl`.

use std::process::ExitCode;
use std::time::Instant;

use dengraph_benchmark::cli::{self, Command, Outcome, RunArgs};
use dengraph_benchmark::compare;
use dengraph_benchmark::drive::{self, PassConfig, PassStats, ScratchDir};
use dengraph_benchmark::metrics::END_TO_END;
use dengraph_benchmark::stats;
use dengraph_benchmark::workload::{self, Entry, Prepared, DEFAULT_SEED, QUANTUM};
use dengraph_core::DetectorSession;
use dengraph_text::KeywordPipeline;

/// Set-up is repeated so `setup_s` is a median, not one sample: at least
/// `SETUP_REPEATS` times, and — a 30 ms set-up is mostly page faults and
/// noise — until a second has gone by or `SETUP_REPEATS_MAX` is reached.
const SETUP_REPEATS: usize = 7;
const SETUP_REPEATS_MAX: usize = 31;

/// Fewest passes a run measures: each quantum's time is the fastest of
/// its repetitions, and five give interference little room.
const MIN_PASSES: usize = 5;

fn main() -> ExitCode {
    match cli::parse(std::env::args().skip(1)) {
        Err(e) => {
            eprintln!("{e}\n{}", cli::USAGE);
            ExitCode::from(2)
        }
        Ok(Command::Compare(a, b)) => match (compare::load(&a), compare::load(&b)) {
            (Ok(a), Ok(b)) => {
                let comparison = compare::compare_runs(&a, &b);
                print!("{}", compare::render(&comparison));
                ExitCode::from(u8::from(!comparison.failures.is_empty()))
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
        Ok(Command::Run(args)) if args.trace => {
            eprintln!("--trace 1 is served by bench_traced; benchmark/run.sh picks the binary");
            ExitCode::from(2)
        }
        Ok(Command::Run(args)) => match run(&args) {
            Ok(outcome) => match cli::report(&args, &outcome) {
                Ok(()) => ExitCode::from(u8::from(!outcome.correct)),
                Err(e) => {
                    eprintln!("writing the result: {e}");
                    ExitCode::from(2)
                }
            },
            Err(e) => {
                eprintln!("bench: {e}");
                ExitCode::from(2)
            }
        },
    }
}

/// Set-up, repeated: generate, render, pre-intern, build a session.
/// Returns the last set of inputs and every repetition's duration.
fn set_up(args: &RunArgs) -> Result<(Prepared, Vec<f64>), String> {
    let mut seconds: Vec<f64> = Vec::with_capacity(SETUP_REPEATS_MAX);
    let mut input = None;
    while seconds.len() < SETUP_REPEATS
        || (seconds.len() < SETUP_REPEATS_MAX && seconds.iter().sum::<f64>() < 1.0)
    {
        // Free the previous repetition first: two copies of a workload's
        // inputs would double the resident set for nothing.
        drop(input.take());
        let start = Instant::now();
        let prepared = workload::prepare(args.workload, args.seed);
        drop(drive::build_session(&prepared, PassConfig::PLAIN)?);
        seconds.push(start.elapsed().as_secs_f64());
        input = Some(prepared);
    }
    Ok((input.expect("at least one repetition"), seconds))
}

/// The text layer must be lossless on the rendered posts: every line
/// yields exactly the author, time and keyword ids planted in it.
fn verify_text_layer(input: &Prepared, problems: &mut Vec<String>) -> u64 {
    let mut pipeline = KeywordPipeline::new();
    let mut mismatches = 0u64;
    for (line, planted) in input.lines.iter().zip(&input.messages) {
        if drive::post_to_message(&mut pipeline, line).as_ref() != Some(planted) {
            if mismatches == 0 {
                problems.push(format!("text layer is not lossless on: {line}"));
            }
            mismatches += 1;
        }
    }
    mismatches
}

/// Recovers the session journaled under `dir` and checks it against the
/// live one: no torn tail, recovered to the last quantum, and a
/// continuation of both reports identical events.
fn verify_recovery(
    dir: &ScratchDir,
    live: &mut DetectorSession,
    input: &Prepared,
    problems: &mut Vec<String>,
) -> u64 {
    if let Some(e) = live.journal_io_error() {
        problems.push(format!("journal latched an I/O error: {e}"));
        return 1;
    }
    match DetectorSession::restore_from_dir_with_report(dir.path()) {
        Err(e) => {
            problems.push(format!("recovery failed: {e}"));
            1
        }
        Ok((mut recovered, report)) => {
            let live_at = live.quanta_processed();
            if report.torn.is_some() || report.recovered_quantum != live_at {
                problems.push(format!(
                    "recovered {} quanta, the live session processed {live_at}; torn: {:?}",
                    report.recovered_quantum, report.torn
                ));
            }
            let tail = &input.messages[input.main..];
            if drive::continue_session(live, tail) != drive::continue_session(&mut recovered, tail)
            {
                problems.push("live and recovered continuations report different events".into());
            }
            0
        }
    }
}

fn pass_config<'a>(args: &RunArgs, dir: &'a ScratchDir) -> PassConfig<'a> {
    PassConfig {
        journal_dir: args.workload.durable.then(|| dir.path()),
        ..PassConfig::PLAIN
    }
}

fn run(args: &RunArgs) -> Result<Outcome, String> {
    let io = |e: std::io::Error| format!("scratch directory: {e}");
    let mut problems = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;

    let (input, setup_seconds) = set_up(args)?;
    let expected = args.workload.default_seed_digest;
    if args.seed == DEFAULT_SEED && input.input_digest != expected {
        problems.push(format!(
            "input_digest {:016x} at the default seed, recorded {expected:016x}: the generator drifted",
            input.input_digest
        ));
    }
    if args.workload.entry == Entry::RawText {
        attempted += input.lines.len() as u64;
        failed += verify_text_layer(&input, &mut problems);
    }

    // Passes: a fresh session each, until `--seconds` have gone by.  The
    // first also fixes the reference digest, scores quality and — for a
    // durable workload — exercises recovery.
    let mut passes: Vec<PassStats> = Vec::new();
    let mut quality = (0.0, 0.0);
    let started = Instant::now();
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        let dir = ScratchDir::new("wal").map_err(io)?;
        let (stats, mut session) = drive::run_pass(args.workload, &input, pass_config(args, &dir))?;
        attempted += stats.attempted;
        failed += stats.parse_failures;
        match passes.first() {
            None => {
                quality = drive::quality(&session, &input);
                if args.workload.durable {
                    attempted += 1;
                    failed += verify_recovery(&dir, &mut session, &input, &mut problems);
                }
            }
            Some(first) => {
                if session.journal_io_error().is_some() {
                    failed += 1;
                    problems.push("journal latched an I/O error during a pass".into());
                }
                if stats.events_digest() != first.events_digest() {
                    problems.push(format!(
                        "pass {} reported events_digest {:016x}, the first pass {:016x}",
                        passes.len() + 1,
                        stats.events_digest(),
                        first.events_digest()
                    ));
                }
            }
        }
        passes.push(stats);
    }

    let timed_quanta = input.main / QUANTUM - workload::WARMUP_QUANTA;
    if passes.iter().any(|p| p.closing_ns.len() != timed_quanta) {
        return Err(format!(
            "a pass did not close exactly {timed_quanta} timed quanta"
        ));
    }
    let chunks: Vec<&[u64]> = passes.iter().map(|p| p.chunk_ns.as_slice()).collect();
    let closings: Vec<&[u64]> = passes.iter().map(|p| p.closing_ns.as_slice()).collect();
    let wall_ns: u64 = stats::quietest(&chunks).iter().sum();
    let closing = stats::quietest(&closings);
    let value_of = |name: &str| match name {
        "msgs_per_s" => passes[0].timed_messages as f64 / (wall_ns as f64 / 1e9),
        "quantum_p50_ms" => stats::percentile(&mut closing.clone(), 50.0) as f64 / 1e6,
        "quantum_p99_ms" => stats::percentile(&mut closing.clone(), 99.0) as f64 / 1e6,
        "recall_pct" => quality.0,
        "precision_pct" => quality.1,
        "setup_s" => stats::median(&setup_seconds),
        other => unreachable!("no value for the end-to-end metric {other}"),
    };
    let metrics = END_TO_END.iter().map(|m| (m, value_of(m.name))).collect();

    // For the reader: what the passes looked like before de-noising.
    let per_pass: Vec<f64> = passes.iter().map(PassStats::msgs_per_s).collect();
    let (q1, q3) = stats::quartiles(&per_pass);
    eprintln!(
        "{}: {} passes x {timed_quanta} timed quanta; per-pass msgs_per_s median {:.0}, \
         quartiles [{q1:.0}, {q3:.0}]; set-up x{} quartiles {:?} s",
        args.workload.name,
        passes.len(),
        stats::median(&per_pass),
        setup_seconds.len(),
        stats::quartiles(&setup_seconds),
    );

    Ok(Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        counters: vec![
            ("input_digest", input.input_digest),
            ("events_digest", passes[0].events_digest()),
        ],
        problems,
    })
}
