//! The paper's Section 7 evaluation, run through the real session.
//!
//! * [`quality`] — average cluster size and rank (Section 7.2.4).
//! * [`comparison`] — SCP vs offline biconnected clustering (Table 3, §7.3).
//!
//! Matching and precision/recall are the engine's own
//! [`dengraph_core::evaluation`], which the repo benchmark scores with.
//!
//! The top-level entry points are [`run_detector_on_trace`], which runs the
//! streaming detector over a generated trace, times it (Table 4) and scores
//! it against the trace's ground truth, and [`ground_truth_report`], which
//! reproduces the counts of the Section 7.1 / Table 1 study.  The tests in
//! `tests/end_to_end.rs` assert the paper's Section 7 shapes through them.

pub mod comparison;
pub mod quality;

use dengraph_core::evaluation::matching::{best_match, match_records};
use dengraph_core::evaluation::precision_recall::{precision_recall, PrecisionRecall};
use dengraph_core::{DetectorBuilder, DetectorConfig};
use dengraph_stream::ground_truth::GroundTruthEventKind;
use dengraph_stream::Trace;

use quality::{quality_stats, QualityStats};

pub use comparison::{compare_schemes, SchemeComparison, SchemeReport};

/// The scored result of running the detector over one trace with one
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorRunReport {
    /// Name of the trace profile.
    pub trace_name: String,
    /// Quantum size Δ used.
    pub quantum_size: usize,
    /// Edge-correlation threshold τ used.
    pub edge_correlation_threshold: f64,
    /// Messages processed.
    pub messages: usize,
    /// Quanta processed.
    pub quanta: u64,
    /// Precision / recall against the trace's ground truth.
    pub scores: PrecisionRecall,
    /// Cluster-quality statistics over discovered events.
    pub quality: QualityStats,
    /// Mean AKG node count across quanta.
    pub avg_akg_nodes: f64,
    /// Mean AKG edge count across quanta.
    pub avg_akg_edges: f64,
    /// Mean live clusters across quanta.
    pub avg_live_clusters: f64,
    /// Wall-clock seconds spent in the detector.
    pub elapsed_secs: f64,
}

/// Runs the streaming detector over `trace` and scores it.
pub fn run_detector_on_trace(trace: &Trace, config: &DetectorConfig) -> DetectorRunReport {
    let mut detector = DetectorBuilder::from_config(config.clone())
        .interner(trace.interner.clone())
        .build()
        .expect("evaluation configs are validated upstream");
    let start = std::time::Instant::now();
    let summaries = detector.run(&trace.messages);
    let elapsed_secs = start.elapsed().as_secs_f64();

    let records = detector.event_records();
    let report = match_records(&records, &trace.ground_truth);
    let scores = precision_recall(&report, &trace.ground_truth);
    let quality = quality_stats(&records);

    let n = summaries.len().max(1) as f64;
    DetectorRunReport {
        trace_name: trace.profile_name.clone(),
        quantum_size: config.quantum_size,
        edge_correlation_threshold: config.edge_correlation_threshold,
        messages: trace.messages.len(),
        quanta: detector.quanta_processed(),
        scores,
        quality,
        avg_akg_nodes: summaries.iter().map(|s| s.akg_nodes as f64).sum::<f64>() / n,
        avg_akg_edges: summaries.iter().map(|s| s.akg_edges as f64).sum::<f64>() / n,
        avg_live_clusters: summaries
            .iter()
            .map(|s| s.live_clusters as f64)
            .sum::<f64>()
            / n,
        elapsed_secs,
    }
}

/// The Section 7.1 ground-truth study result.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruthReport {
    /// Total injected "headline" events (the paper's 60).
    pub headline_events_total: usize,
    /// Headline events with too few messages to ever detect (the paper's 27).
    pub headline_events_too_weak: usize,
    /// Headline events that were detectable (the paper's 33).
    pub headline_events_detectable: usize,
    /// Detectable headline events actually discovered (the paper's 31).
    pub headline_events_discovered: usize,
    /// Discovered events that match local-only ground truth (the paper's
    /// "6× additional events").
    pub additional_local_events_discovered: usize,
    /// Reported events that matched nothing real.
    pub unmatched_reported_events: usize,
    /// The underlying precision/recall scores.
    pub scores: PrecisionRecall,
}

/// Runs the detector over a ground-truth style trace and reproduces the
/// structure of the Section 7.1 study.
pub fn ground_truth_report(trace: &Trace, config: &DetectorConfig) -> GroundTruthReport {
    let mut detector = DetectorBuilder::from_config(config.clone())
        .interner(trace.interner.clone())
        .build()
        .expect("evaluation configs are validated upstream");
    detector.run(&trace.messages);
    let records = detector.event_records();
    let match_report = match_records(&records, &trace.ground_truth);
    let scores = precision_recall(&match_report, &trace.ground_truth);

    // Ground-truth events of `kind` that some reported event best matches.
    // Headline events injected "too weak" are stored with kind TooWeak, so
    // the Headline kind is exactly the detectable set.
    let discovered = |kind: GroundTruthEventKind| {
        trace
            .ground_truth
            .of_kind(kind)
            .filter(|truth| {
                records.iter().any(|r| {
                    best_match(&r.all_keywords, &trace.ground_truth)
                        .is_some_and(|(t, _)| t.id == truth.id)
                })
            })
            .count()
    };

    let unmatched_reported_events = match_report
        .matches
        .iter()
        .filter(|m| m.matched_event.is_none())
        .count();

    GroundTruthReport {
        headline_events_total: trace.ground_truth.headline_count()
            + trace
                .ground_truth
                .of_kind(GroundTruthEventKind::TooWeak)
                .count(),
        headline_events_too_weak: trace
            .ground_truth
            .of_kind(GroundTruthEventKind::TooWeak)
            .count(),
        headline_events_detectable: trace.ground_truth.headline_count(),
        headline_events_discovered: discovered(GroundTruthEventKind::Headline),
        additional_local_events_discovered: discovered(GroundTruthEventKind::LocalOnly),
        unmatched_reported_events,
        scores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dengraph_stream::generator::profiles::{tw_profile, ProfileScale};
    use dengraph_stream::StreamGenerator;

    #[test]
    fn detector_run_report_on_small_tw_trace() {
        let trace = StreamGenerator::new(tw_profile(21, ProfileScale::Small)).generate();
        let config = DetectorConfig {
            quantum_size: 160,
            window_quanta: 20,
            ..Default::default()
        };
        let report = run_detector_on_trace(&trace, &config);
        assert_eq!(report.messages, trace.messages.len());
        assert!(report.quanta > 10);
        // The detector must find a substantial fraction of the injected events.
        assert!(
            report.scores.recall >= 0.5,
            "recall too low: {:?}",
            report.scores
        );
        assert!(
            report.scores.precision >= 0.5,
            "precision too low: {:?}",
            report.scores
        );
        // AKG stays small relative to the keyword universe (thousands).
        assert!(report.avg_akg_nodes < 500.0);
        assert!(report.quality.avg_cluster_size >= 3.0);
    }
}
