//! Shared helpers for the paper-table binaries.
//!
//! Each table and figure of the paper's evaluation (Section 7) is
//! regenerated by one binary in `src/bin/`.  This library holds the pieces
//! they share: standard trace construction, table formatting and report
//! output.  Performance is measured by the repo benchmark (`benchmark/`),
//! not here.
//!
//! | paper artefact | binary |
//! |---|---|
//! | Table 1 / §7.1 (ground truth)            | `table1_ground_truth` |
//! | Figures 7–10 + §7.2.4 (precision/recall) | `fig7_10_precision_recall` |
//! | Table 3 / §7.3 (clustering schemes)      | `table3_clustering_schemes` |
//! | Table 4 (throughput)                     | `table4_throughput` |
//! | §7.4 (AKG vs CKG reduction)              | `table5_akg_reduction` |
//! | design-choice ablations                  | `ablation_scp` |

use std::io::Write;
use std::path::Path;

use dengraph_stream::generator::profiles::{
    es_profile, ground_truth_profile, tw_profile, ProfileScale,
};
use dengraph_stream::{StreamGenerator, Trace};

/// Seed used by every benchmark binary so results are reproducible run to run.
pub const BENCH_SEED: u64 = 2012;

/// Which of the paper's traces to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// The Time-Window trace analogue (general chatter).
    TimeWindow,
    /// The Event-Specific trace analogue (≈3× the event density).
    EventSpecific,
    /// The Section 7.1 ground-truth study trace.
    GroundTruth,
}

impl TraceKind {
    /// Human-readable name used in table headers.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::TimeWindow => "Time Window Based Trace",
            TraceKind::EventSpecific => "Event Specific Trace",
            TraceKind::GroundTruth => "Ground Truth Trace",
        }
    }
}

/// Generates one of the standard benchmark traces at the given scale.
pub fn build_trace(kind: TraceKind, scale: ProfileScale) -> Trace {
    let profile = match kind {
        TraceKind::TimeWindow => tw_profile(BENCH_SEED, scale),
        TraceKind::EventSpecific => es_profile(BENCH_SEED + 1, scale),
        TraceKind::GroundTruth => ground_truth_profile(BENCH_SEED + 2, scale),
    };
    StreamGenerator::new(profile).generate()
}

/// Reads the benchmark scale from the `DENGRAPH_BENCH_SCALE` environment
/// variable (`small`, `medium`, `large`), defaulting to `medium`.
pub fn scale_from_env() -> ProfileScale {
    match std::env::var("DENGRAPH_BENCH_SCALE")
        .unwrap_or_default()
        .to_lowercase()
        .as_str()
    {
        "small" => ProfileScale::Small,
        "large" => ProfileScale::Large,
        _ => ProfileScale::Medium,
    }
}

/// A minimal fixed-width table printer for the report binaries.
#[derive(Debug, Default)]
pub struct TablePrinter {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let columns = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(columns) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    format!(
                        "{:>width$}",
                        c,
                        width = widths.get(i).copied().unwrap_or(c.len())
                    )
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Writes a report string both to stdout and to `reports/<name>.txt` under
/// the workspace target directory, so bench outputs survive the run.
pub fn emit_report(name: &str, contents: &str) {
    println!("{contents}");
    let dir = Path::new("target").join("reports");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.txt"));
        if let Ok(mut f) = std::fs::File::create(&path) {
            let _ = f.write_all(contents.as_bytes());
            eprintln!("(report written to {})", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_printer_aligns_columns() {
        let mut t = TablePrinter::new(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["longer-name", "22"]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with('1'));
        assert!(lines[3].ends_with("22"));
    }

    #[test]
    fn traces_are_reproducible() {
        let a = build_trace(TraceKind::TimeWindow, ProfileScale::Small);
        let b = build_trace(TraceKind::TimeWindow, ProfileScale::Small);
        assert_eq!(a.messages.len(), b.messages.len());
        assert_eq!(a.messages[0], b.messages[0]);
    }

    #[test]
    fn trace_kinds_have_labels() {
        assert!(TraceKind::TimeWindow.label().contains("Time"));
        assert!(TraceKind::EventSpecific.label().contains("Event"));
        assert!(TraceKind::GroundTruth.label().contains("Ground"));
    }
}
