//! `bench --compare baseline.jsonl candidate.jsonl`.
//!
//! Each file holds the `--out` records of a set of runs.  For every
//! workload and end-to-end metric the two sets share, the comparison
//! prints both medians with their quartiles and applies the metric's
//! bound by the rule in [`crate::stats::compare`].  It fails — naming the
//! workload and metric — on a regression, on a run that was not correct,
//! and on any exact counter (digests, failures) that differs between runs
//! of the same workload and seed.  Per-layer metrics are printed for
//! attribution and never gated.

use std::collections::BTreeMap;
use std::path::Path;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{self, Verdict};

/// One `--out` record.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Traced (per-layer) or timed (end-to-end) run.
    pub trace: bool,
    /// Every check passed.
    pub correct: bool,
    /// Failed operations.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Exact counters by name.
    pub counters: BTreeMap<String, String>,
}

/// Parses one record line.
pub fn parse_run(line: &str) -> Result<Run, String> {
    use dengraph_json::Value;
    let text = |e: dengraph_json::JsonError| e.to_string();
    let value = dengraph_json::parse(line).map_err(text)?;
    let field = |key: &str| value.get(key).map_err(text);
    let mut metrics = BTreeMap::new();
    if let Value::Obj(map) = field("metrics")? {
        for (name, entry) in map {
            let number = entry
                .get("value")
                .and_then(Value::as_f64)
                .map_err(|e| format!("metric {name}: {e}"))?;
            metrics.insert(name.clone(), number);
        }
    }
    let mut counters = BTreeMap::new();
    if let Value::Obj(map) = field("counters")? {
        for (name, entry) in map {
            counters.insert(name.clone(), entry.as_str().map_err(text)?.to_string());
        }
    }
    Ok(Run {
        workload: field("workload")?.as_str().map_err(text)?.to_string(),
        seed: field("seed")?.as_u64().map_err(text)?,
        trace: field("trace")?.as_bool().map_err(text)?,
        correct: field("correct")?.as_bool().map_err(text)?,
        failed: field("failed")?.as_u64().map_err(text)?,
        metrics,
        counters,
    })
}

/// Loads every record of a result file.
pub fn load(path: &Path) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| parse_run(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1)))
        .collect()
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `(median, q1, q3, runs)` of the baseline.
    pub a: (f64, f64, f64, usize),
    /// `(median, q1, q3, runs)` of the candidate.
    pub b: (f64, f64, f64, usize),
    /// Share by which the candidate is worse (negative: better).
    pub worse_by: f64,
    /// The metric's bound; `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// The verdict; `None` for per-layer metrics.
    pub verdict: Option<Verdict>,
}

/// The comparison's full result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// One row per (workload, metric) both sets measured.
    pub rows: Vec<Row>,
    /// Why the comparison fails, one line each; empty means success.
    pub failures: Vec<String>,
}

fn values(runs: &[Run], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

fn summary(values: &[f64]) -> (f64, f64, f64, usize) {
    let (q1, q3) = stats::quartiles(values);
    (stats::median(values), q1, q3, values.len())
}

/// Checks one set on its own: every run correct and without failures, and
/// the raw-text and pre-interned runs of one seed report the same events.
fn check_set(label: &str, runs: &[Run], failures: &mut Vec<String>) {
    for run in runs {
        if !run.correct || run.failed > 0 {
            failures.push(format!(
                "{label}: {} seed {}: correct={} failed={}",
                run.workload, run.seed, run.correct, run.failed
            ));
        }
    }
    let digest = |workload: &str, seed: u64| {
        runs.iter()
            .find(|r| r.workload == workload && r.seed == seed)
            .and_then(|r| r.counters.get("events_digest"))
    };
    for run in runs.iter().filter(|r| r.workload == "tw-text") {
        if let (Some(text), Some(ids)) = (digest("tw-text", run.seed), digest("tw-ids", run.seed)) {
            if text != ids {
                failures.push(format!(
                    "{label}: seed {}: tw-text events_digest {text} != tw-ids {ids}",
                    run.seed
                ));
            }
        }
    }
}

/// Compares a candidate set of runs against a baseline set.
pub fn compare_runs(a: &[Run], b: &[Run]) -> Comparison {
    let mut out = Comparison::default();
    check_set("baseline", a, &mut out.failures);
    check_set("candidate", b, &mut out.failures);

    // Exact counters: same workload, seed and mode must agree.
    for run_b in b {
        let twin = a
            .iter()
            .find(|r| (&r.workload, r.seed, r.trace) == (&run_b.workload, run_b.seed, run_b.trace));
        if let Some(run_a) = twin {
            for (name, value_b) in &run_b.counters {
                if let Some(value_a) = run_a.counters.get(name) {
                    if value_a != value_b {
                        out.failures.push(format!(
                            "{} seed {}: counter {name} differs: {value_a} vs {value_b}",
                            run_b.workload, run_b.seed
                        ));
                    }
                }
            }
        }
    }

    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    for workload in workloads {
        for (table, trace) in [(&END_TO_END[..], false), (&PER_LAYER[..], true)] {
            for metric in table {
                let va = values(a, workload, trace, metric.name);
                let vb = values(b, workload, trace, metric.name);
                if va.is_empty() || vb.is_empty() {
                    continue;
                }
                let gated = !trace;
                let worse_by = if stats::median(&va) == 0.0 {
                    0.0
                } else {
                    stats::worse_by(&va, &vb, metric.better)
                };
                let verdict = gated.then(|| stats::compare(&va, &vb, metric.better, metric.bound));
                if verdict == Some(Verdict::Regression) {
                    out.failures.push(format!(
                        "{workload}: {} regressed by {:.2} % (bound {:.2} %)",
                        metric.name,
                        worse_by * 100.0,
                        metric.bound * 100.0
                    ));
                }
                out.rows.push(Row {
                    workload: workload.to_string(),
                    metric: metric.name,
                    unit: metric.unit,
                    a: summary(&va),
                    b: summary(&vb),
                    worse_by,
                    bound: gated.then_some(metric.bound),
                    verdict,
                });
            }
        }
    }
    out
}

/// Renders the comparison as a table followed by the failures.
pub fn render(comparison: &Comparison) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<11} {:<34} {:>6} | {:>13} {:>27} {:>3} | {:>13} {:>27} {:>3} | {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "base median",
        "[q1, q3]",
        "n",
        "cand median",
        "[q1, q3]",
        "n",
        "worse %",
        "bound"
    );
    for row in &comparison.rows {
        let side = |(median, q1, q3, n): (f64, f64, f64, usize)| {
            format!(
                "{median:>13.4} {:>27} {n:>3}",
                format!("[{q1:.4}, {q3:.4}]")
            )
        };
        let verdict = match row.verdict {
            Some(Verdict::Within) => "within bound",
            Some(Verdict::Better) => "better",
            Some(Verdict::Unresolved) => "UNRESOLVED (spread wider than bound)",
            Some(Verdict::Regression) => "REGRESSION",
            None => "",
        };
        let bound = row
            .bound
            .map_or_else(String::new, |b| format!("{:.1}", b * 100.0));
        let _ = writeln!(
            text,
            "{:<11} {:<34} {:>6} | {} | {} | {:>8.2} {:>6}  {}",
            row.workload,
            row.metric,
            row.unit,
            side(row.a),
            side(row.b),
            row.worse_by * 100.0,
            bound,
            verdict
        );
    }
    for failure in &comparison.failures {
        let _ = writeln!(text, "FAIL: {failure}");
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, seed: u64, msgs_per_s: f64, digest: &str) -> Run {
        Run {
            workload: workload.into(),
            seed,
            trace: false,
            correct: true,
            failed: 0,
            metrics: [
                ("msgs_per_s".to_string(), msgs_per_s),
                ("recall_pct".to_string(), 95.0),
            ]
            .into(),
            counters: [("events_digest".to_string(), digest.to_string())].into(),
        }
    }

    fn set(workload: &str, rates: [f64; 5]) -> Vec<Run> {
        rates
            .iter()
            .enumerate()
            .map(|(i, &r)| run(workload, i as u64, r, &format!("d{i}")))
            .collect()
    }

    #[test]
    fn records_round_trip_through_parse_run() {
        let line = r#"{"attempted":10,"correct":true,"counters":{"events_digest":"00ff"},"failed":0,"metrics":{"msgs_per_s":{"unit":"1/s","value":123.5}},"seed":7,"trace":false,"workload":"tw-ids"}"#;
        let parsed = parse_run(line).unwrap();
        assert_eq!(parsed.workload, "tw-ids");
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.metrics["msgs_per_s"], 123.5);
        assert_eq!(parsed.counters["events_digest"], "00ff");
        assert!(parse_run("{}").is_err());
    }

    #[test]
    fn same_numbers_pass() {
        let a = set("tw-ids", [100.0, 101.0, 99.0, 100.5, 99.5]);
        let c = compare_runs(&a, &a);
        assert!(c.failures.is_empty(), "{:?}", c.failures);
        assert_eq!(c.rows.len(), 2);
        assert!(c.rows.iter().all(|r| r.verdict == Some(Verdict::Within)));
    }

    #[test]
    fn a_regression_fails_naming_metric_and_workload() {
        let a = set("dense-ids", [100.0, 101.0, 99.0, 100.5, 99.5]);
        let b = set("dense-ids", [60.0, 61.0, 59.0, 60.5, 59.5]);
        let c = compare_runs(&a, &b);
        assert_eq!(c.failures.len(), 1);
        assert!(c.failures[0].contains("dense-ids") && c.failures[0].contains("msgs_per_s"));
        // The other direction is an improvement, not a failure.
        let back = compare_runs(&b, &a);
        assert!(back.failures.is_empty());
        assert_eq!(back.rows[0].verdict, Some(Verdict::Better));
    }

    #[test]
    fn a_noisy_metric_is_unresolved_and_does_not_fail() {
        let a = set("tw-ids", [100.0, 120.0, 80.0, 110.0, 90.0]);
        let b = set("tw-ids", [99.0, 119.0, 79.0, 109.0, 89.0]);
        let c = compare_runs(&a, &b);
        assert!(c.failures.is_empty());
        assert_eq!(c.rows[0].verdict, Some(Verdict::Unresolved));
        assert!(render(&c).contains("UNRESOLVED"));
    }

    #[test]
    fn counter_mismatches_and_incorrect_runs_fail() {
        let a = set("tw-ids", [100.0; 5]);
        let mut b = a.clone();
        b[2].counters
            .insert("events_digest".into(), "different".into());
        b[4].correct = false;
        let c = compare_runs(&a, &b);
        assert_eq!(c.failures.len(), 2, "{:?}", c.failures);
        assert!(c
            .failures
            .iter()
            .any(|f| f.contains("seed 2") && f.contains("events_digest")));
        assert!(c
            .failures
            .iter()
            .any(|f| f.contains("seed 4") && f.contains("correct=false")));
    }

    #[test]
    fn text_and_ids_digests_of_one_seed_must_agree() {
        let mut a = vec![
            run("tw-text", 1, 50.0, "same"),
            run("tw-ids", 1, 100.0, "same"),
        ];
        assert!(compare_runs(&a, &a).failures.is_empty());
        a[1].counters.insert("events_digest".into(), "other".into());
        let c = compare_runs(&a, &a);
        assert!(c
            .failures
            .iter()
            .any(|f| f.contains("tw-text") && f.contains("tw-ids")));
    }
}
