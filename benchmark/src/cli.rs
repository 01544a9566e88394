//! Argument parsing and result printing shared by `bench` and
//! `bench_traced`.
//!
//! Both binaries take
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]`
//! and end their standard output with one JSON object holding exactly
//! `correct`, `attempted`, `failed` and `metrics`.  With `--out` the same
//! result — plus workload, seed and the digests — is appended to a
//! JSON-lines file that `bench --compare` reads.

use std::io::Write;
use std::path::{Path, PathBuf};

use dengraph_json::Value;

use crate::metrics::Metric;
use crate::workload::{self, Workload, DEFAULT_SEED};

/// One measurement run's arguments.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload to run.
    pub workload: &'static Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// How long to measure, seconds.
    pub seconds: f64,
    /// `--trace 1`: per-layer metrics from the traced run.
    pub trace: bool,
    /// JSON-lines file to append the result to.
    pub out: Option<PathBuf>,
}

/// What the command line asked for.
#[derive(Debug, Clone)]
pub enum Command {
    /// Measure one workload.
    Run(RunArgs),
    /// Compare two result files.
    Compare(PathBuf, PathBuf),
}

/// The usage text printed on a malformed command line.
pub const USAGE: &str = "usage: bench --workload <tw-text|tw-ids|dense-ids|es-durable> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <file.jsonl>]\n       \
bench --compare <baseline.jsonl> <candidate.jsonl>";

/// Parses the arguments after the program name.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut args = args.into_iter();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 12.0;
    let mut trace = false;
    let mut out = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--compare" => return Ok(Command::Compare(value()?.into(), value()?.into())),
            "--workload" => {
                let name = value()?;
                workload = Some(workload::find(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Command::Run(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    }))
}

/// A finished run, ready to print.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted: inputs fed, plus recoveries.
    pub attempted: u64,
    /// Operations failed: unparsable lines, a latched journal error,
    /// failed recoveries.
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Exact values that must repeat for a seed (`input_digest`,
    /// `events_digest`), hex-encoded.
    pub counters: Vec<(&'static str, u64)>,
    /// One line per failed check.
    pub problems: Vec<String>,
}

fn metrics_value(outcome: &Outcome) -> Value {
    Value::obj(outcome.metrics.iter().map(|(metric, value)| {
        (
            metric.name,
            Value::obj([
                ("value", Value::Float(*value)),
                ("unit", Value::str(metric.unit)),
            ]),
        )
    }))
}

/// Prints the run: one line per metric with its unit, any failed checks,
/// and as the last line the result object.  Appends to `args.out` first.
pub fn report(args: &RunArgs, outcome: &Outcome) -> std::io::Result<()> {
    if let Some(path) = &args.out {
        append_result(path, args, outcome)?;
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(
        out,
        "# {} seed {} ({})",
        args.workload.name,
        args.seed,
        if args.trace { "traced" } else { "timed" }
    )?;
    for (metric, value) in &outcome.metrics {
        writeln!(out, "{:<36} {:>16.4} {}", metric.name, value, metric.unit)?;
    }
    for (name, value) in &outcome.counters {
        writeln!(out, "{name:<36} {value:>16x}")?;
    }
    for problem in &outcome.problems {
        writeln!(out, "CHECK FAILED: {problem}")?;
    }
    let result = Value::obj([
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::from(outcome.attempted)),
        ("failed", Value::from(outcome.failed)),
        ("metrics", metrics_value(outcome)),
    ]);
    writeln!(out, "{}", dengraph_json::to_string(&result))
}

fn append_result(path: &Path, args: &RunArgs, outcome: &Outcome) -> std::io::Result<()> {
    let record = Value::obj([
        ("workload", Value::str(args.workload.name)),
        ("seed", Value::from(args.seed)),
        ("trace", Value::Bool(args.trace)),
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::from(outcome.attempted)),
        ("failed", Value::from(outcome.failed)),
        ("metrics", metrics_value(outcome)),
        (
            "counters",
            Value::obj(
                outcome
                    .counters
                    .iter()
                    .map(|(name, value)| (*name, Value::str(format!("{value:016x}")))),
            ),
        ),
    ]);
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", dengraph_json::to_string(&record))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Command, String> {
        parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let Command::Run(args) =
            parse_str("--workload dense-ids --seed 7 --seconds 12 --trace 1").unwrap()
        else {
            panic!("expected a run");
        };
        assert_eq!(args.workload.name, "dense-ids");
        assert_eq!((args.seed, args.seconds, args.trace), (7, 12.0, true));
        assert!(args.out.is_none());
    }

    #[test]
    fn defaults_and_compare() {
        let Command::Run(args) = parse_str("--workload tw-text").unwrap() else {
            panic!("expected a run");
        };
        assert_eq!((args.seed, args.trace), (DEFAULT_SEED, false));
        assert!(matches!(
            parse_str("--compare a.jsonl b.jsonl").unwrap(),
            Command::Compare(a, b) if a.ends_with("a.jsonl") && b.ends_with("b.jsonl")
        ));
    }

    #[test]
    fn malformed_command_lines_are_rejected() {
        for bad in [
            "",
            "--workload nope",
            "--workload tw-ids --trace 2",
            "--workload tw-ids --seconds 0",
            "--workload tw-ids --seed",
            "--workload tw-ids --frobnicate",
            "--compare only-one",
        ] {
            assert!(parse_str(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
