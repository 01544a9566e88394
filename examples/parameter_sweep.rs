//! Mini parameter sweep: precision and recall vs quantum size Δ and edge
//! correlation threshold τ, on a small Time-Window trace.
//!
//! This is a fast, console-sized version of Figures 7–10 (the full sweep
//! is a paper-table binary: `cargo run -p dengraph-bench --release --bin
//! fig7_10_precision_recall`).
//!
//! Run with: `cargo run -p dengraph-examples --release --example parameter_sweep`

use dengraph_core::evaluation::run_detector_on_trace;
use dengraph_core::{DetectorConfig, Parallelism};
use dengraph_stream::generator::profiles::{tw_profile, ProfileScale};
use dengraph_stream::StreamGenerator;

fn main() {
    let trace = StreamGenerator::new(tw_profile(42, ProfileScale::Small)).generate();
    let stats = trace.stats();
    println!(
        "trace: {} messages, {} users, {} keywords, {} detectable events",
        stats.messages, stats.distinct_users, stats.distinct_keywords, stats.detectable_events
    );
    // Scores are identical either way (the sharded pipeline is
    // deterministic); the extra cores just make the sweep finish sooner.
    let parallelism = Parallelism::auto();
    println!("pipeline parallelism: {parallelism}");

    println!(
        "\n{:>6} {:>6} | {:>9} {:>7} | {:>7} {:>7}",
        "Δ", "τ", "reported", "found", "prec", "recall"
    );
    println!("{}", "-".repeat(58));
    for &delta in &[80usize, 160, 240] {
        for &tau in &[0.10f64, 0.20, 0.25] {
            let config = DetectorConfig::nominal()
                .with_quantum_size(delta)
                .with_edge_correlation_threshold(tau)
                .with_window_quanta(20)
                .with_parallelism(parallelism);
            let report = run_detector_on_trace(&trace, &config);
            println!(
                "{:>6} {:>6.2} | {:>9} {:>7} | {:>7.3} {:>7.3}",
                delta,
                tau,
                report.scores.reported_events,
                report.scores.truth_events_found,
                report.scores.precision,
                report.scores.recall
            );
        }
    }
    println!("\n(expected shape: recall rises with larger Δ and smaller τ; precision stays high)");
}
