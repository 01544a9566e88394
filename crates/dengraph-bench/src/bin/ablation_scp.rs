//! Ablations of the detector's design choices.
//!
//! Four detector variants run over the same Time-Window trace:
//!
//! 1. the full system (incremental SCP, min-hash EC, hysteresis),
//! 2. exact Jaccard edge correlation instead of min-hash sketches,
//! 3. hysteresis disabled (keywords leave the AKG as soon as they stop
//!    being bursty), and
//! 4. a stricter rank-threshold filter.
//!
//! For each variant the binary reports precision, recall, event quality and
//! wall-clock time, isolating what each mechanism buys.
//!
//! Run with: `cargo run -p dengraph-bench --release --bin ablation_scp`

use dengraph_bench::{build_trace, emit_report, scale_from_env, TablePrinter, TraceKind};
use dengraph_core::evaluation::run_detector_on_trace;
use dengraph_core::DetectorConfig;

fn main() {
    let scale = scale_from_env();
    let trace = build_trace(TraceKind::TimeWindow, scale);

    let variants: Vec<(&str, DetectorConfig)> = vec![
        (
            "full system (min-hash EC, hysteresis)",
            DetectorConfig::nominal(),
        ),
        (
            "exact Jaccard EC",
            DetectorConfig {
                exact_edge_correlation: true,
                ..DetectorConfig::nominal()
            },
        ),
        (
            "no hysteresis",
            DetectorConfig {
                hysteresis: false,
                ..DetectorConfig::nominal()
            },
        ),
        (
            "strict rank threshold (x3)",
            DetectorConfig {
                rank_threshold_factor: 3.0,
                ..DetectorConfig::nominal()
            },
        ),
        (
            "paper sketch size (p = min(sigma/2, 1/tau))",
            DetectorConfig {
                min_sketch_size: 1,
                ..DetectorConfig::nominal()
            },
        ),
    ];

    let mut out = String::new();
    out.push_str("== Ablation study: contribution of individual design choices ==\n\n");
    out.push_str(&format!(
        "trace: {} ({} messages)\n\n",
        TraceKind::TimeWindow.label(),
        trace.messages.len()
    ));

    let mut table = TablePrinter::new([
        "variant",
        "precision",
        "recall",
        "events",
        "avg size",
        "avg rank",
        "secs",
    ]);
    for (name, config) in variants {
        let report = run_detector_on_trace(&trace, &config);
        table.row([
            name.to_string(),
            format!("{:.3}", report.scores.precision),
            format!("{:.3}", report.scores.recall),
            report.scores.reported_events.to_string(),
            format!("{:.2}", report.quality.avg_cluster_size),
            format!("{:.1}", report.quality.avg_rank),
            format!("{:.2}", report.elapsed_secs),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\n(the incremental-vs-offline clustering ablation is part of table3_clustering_schemes)\n",
    );

    emit_report("ablation_scp", &out);
}
