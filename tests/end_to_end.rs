//! End-to-end integration tests: generator → detector → evaluation.
//!
//! Each artefact of the paper's Section 7 is one test here.  A test asserts
//! the *shape* the paper reports, as an inequality with margin that held on
//! every probe seed, and prints what it measured on one `eprintln!` line.
//! The README's claims ledger quotes those lines; regenerate them with
//!
//! ```sh
//! cargo test --release -p dengraph-tests --test end_to_end -- --nocapture
//! ```
//!
//! The paper-artefact traces are seeded with [`SEED`] (Time-Window),
//! `SEED + 1` (Event-Specific) and `SEED + 2` (the ground-truth study).

use dengraph_core::{DetectorBuilder, DetectorConfig};
use dengraph_graph::fxhash::FxHashSet;
use dengraph_graph::NodeId;
use dengraph_stream::generator::profiles::{
    es_profile, ground_truth_profile, tw_profile, ProfileScale,
};
use dengraph_stream::{StreamGenerator, Trace};
use dengraph_tests::ckg::CkgTracker;
use dengraph_tests::evaluation::quality::quality_stats;
use dengraph_tests::evaluation::{
    compare_schemes, ground_truth_report, run_detector_on_trace, DetectorRunReport,
};
use dengraph_tests::quasi_clique::{density, is_mqc};

/// Seed of the Time-Window paper-artefact trace; the Event-Specific and
/// ground-truth traces take the next two.
const SEED: u64 = 2012;

fn tw(scale: ProfileScale) -> Trace {
    StreamGenerator::new(tw_profile(SEED, scale)).generate()
}

fn es(scale: ProfileScale) -> Trace {
    StreamGenerator::new(es_profile(SEED + 1, scale)).generate()
}

fn ground_truth() -> Trace {
    StreamGenerator::new(ground_truth_profile(SEED + 2, ProfileScale::Medium)).generate()
}

fn small_tw() -> Trace {
    StreamGenerator::new(tw_profile(101, ProfileScale::Small)).generate()
}

fn small_es() -> Trace {
    StreamGenerator::new(es_profile(102, ProfileScale::Small)).generate()
}

fn test_config() -> DetectorConfig {
    DetectorConfig::nominal().with_window_quanta(20)
}

fn msgs_per_sec(report: &DetectorRunReport) -> f64 {
    report.messages as f64 / report.elapsed_secs
}

#[test]
fn tw_trace_precision_and_recall_are_high() {
    let report = run_detector_on_trace(&small_tw(), &test_config());
    assert!(
        report.scores.recall >= 0.6,
        "recall too low: {:?}",
        report.scores
    );
    assert!(
        report.scores.precision >= 0.6,
        "precision too low: {:?}",
        report.scores
    );
    assert!(report.scores.reported_events >= report.scores.truth_events_found);
}

#[test]
fn es_trace_precision_and_recall_are_high() {
    let report = run_detector_on_trace(&small_es(), &test_config());
    assert!(
        report.scores.recall >= 0.6,
        "recall too low: {:?}",
        report.scores
    );
    assert!(
        report.scores.precision >= 0.6,
        "precision too low: {:?}",
        report.scores
    );
}

/// Table 1 / §7.1: of 60 headline events, 27 too weak to detect, the paper
/// found 31 of the 33 detectable ones, plus about six times as many
/// local-only events.
#[test]
fn ground_truth_study_finds_the_detectable_headlines() {
    let report = ground_truth_report(&ground_truth(), &DetectorConfig::ground_truth_study());
    eprintln!(
        "table1: headlines {} too_weak {} found {}/{} local_found {} unmatched {} \
         precision {:.3} recall {:.3}",
        report.headline_events_total,
        report.headline_events_too_weak,
        report.headline_events_discovered,
        report.headline_events_detectable,
        report.additional_local_events_discovered,
        report.unmatched_reported_events,
        report.scores.precision,
        report.scores.recall
    );
    assert_eq!(report.headline_events_total, 60);
    assert_eq!(report.headline_events_too_weak, 27);
    assert_eq!(report.headline_events_detectable, 33);
    assert!(report.headline_events_discovered >= 31);
    assert!(report.additional_local_events_discovered >= 2 * report.headline_events_discovered);
}

/// Figures 7–10: recall (Figures 7/8) grows with the quantum Δ and as τ is
/// relaxed.  Precision (Figures 9/10) is printed, not asserted: here it
/// rises with τ, where the paper has it improve as τ relaxes.
#[test]
fn relaxing_tau_does_not_reduce_recall() {
    const DELTAS: [usize; 3] = [80, 160, 240];
    const TAUS: [f64; 2] = [0.10, 0.25];
    for (name, trace) in [
        ("tw", tw(ProfileScale::Small)),
        ("es", es(ProfileScale::Small)),
    ] {
        let grid = DELTAS.map(|delta| {
            TAUS.map(|tau| {
                let config = DetectorConfig::nominal()
                    .with_quantum_size(delta)
                    .with_edge_correlation_threshold(tau);
                let scores = run_detector_on_trace(&trace, &config).scores;
                (scores.recall, scores.precision)
            })
        });
        eprintln!(
            "fig7-10 {name}: (recall, precision) for delta {DELTAS:?} (rows) x tau {TAUS:?}: {grid:.3?}"
        );
        for (t, tau) in TAUS.iter().enumerate() {
            assert!(grid[2][t].0 >= grid[0][t].0, "{name}: tau {tau}");
        }
        for (row, delta) in grid.iter().zip(DELTAS) {
            assert!(row[0].0 >= row[1].0, "{name}: delta {delta}");
        }
    }
}

#[test]
fn discovered_clusters_stay_small_and_focused() {
    let report = run_detector_on_trace(&small_es(), &test_config());
    // Paper: average cluster size between ~4.5 and ~10 keywords depending on
    // parameters; it must never balloon to the size of the AKG.
    assert!(report.quality.avg_cluster_size >= 3.0);
    assert!(
        report.quality.avg_cluster_size <= 12.0,
        "avg cluster size {}",
        report.quality.avg_cluster_size
    );
}

/// §7.4: the AKG carries under 2 % of the CKG's edges and under 5 % of its
/// nodes, its mean degree stays below 6 and events below 7 keywords.  Means
/// are over the quanta after the window has filled.
#[test]
fn akg_is_orders_of_magnitude_smaller_than_ckg() {
    for (name, trace) in [
        ("tw", tw(ProfileScale::Medium)),
        ("es", es(ProfileScale::Medium)),
    ] {
        let config = DetectorConfig::nominal();
        let mut detector = DetectorBuilder::from_config(config.clone())
            .interner(trace.interner.clone())
            .build()
            .expect("valid config");
        let mut ckg = CkgTracker::new(config.window_quanta);
        let (mut samples, mut max_edge_ratio) = (0usize, 0f64);
        let (mut ckg_nodes, mut ckg_edges, mut akg_nodes, mut akg_edges, mut degree) =
            (0f64, 0f64, 0f64, 0f64, 0f64);
        for quantum in trace.messages.chunks(config.quantum_size) {
            ckg.push_quantum(quantum);
            let summary = detector.process_quantum(quantum);
            if summary.quantum < config.window_quanta as u64 {
                continue;
            }
            samples += 1;
            ckg_nodes += ckg.node_count() as f64;
            ckg_edges += ckg.edge_count() as f64;
            akg_nodes += summary.akg_nodes as f64;
            akg_edges += summary.akg_edges as f64;
            if summary.akg_nodes > 0 {
                degree += 2.0 * summary.akg_edges as f64 / summary.akg_nodes as f64;
            }
            max_edge_ratio =
                max_edge_ratio.max(summary.akg_edges as f64 / ckg.edge_count().max(1) as f64);
        }
        let node_pct = 100.0 * akg_nodes / ckg_nodes;
        let edge_pct = 100.0 * akg_edges / ckg_edges;
        let mean_degree = degree / samples as f64;
        let event_size = quality_stats(&detector.event_records()).avg_cluster_size;
        eprintln!(
            "section7.4 {name}: akg/ckg nodes {node_pct:.2}% edges {edge_pct:.2}% \
             mean degree {mean_degree:.2} mean event size {event_size:.2} \
             max per-quantum edge ratio {max_edge_ratio:.4}"
        );
        assert!(node_pct < 5.0, "{name}");
        assert!(edge_pct < 2.0, "{name}");
        assert!(mean_degree < 6.0, "{name}");
        assert!(event_size < 7.0, "{name}");
        assert!(max_edge_ratio < 0.10, "{name}");
    }
}

/// The paper's title claim: short-cycle clusters approximate majority
/// quasi-cliques (Section 1.1, γ ≥ ½).  Every live cluster is checked
/// against the AKG after every quantum.
#[test]
fn live_clusters_are_mostly_majority_quasi_cliques() {
    for (name, trace) in [
        ("tw", tw(ProfileScale::Small)),
        ("es", es(ProfileScale::Small)),
    ] {
        let mut session = DetectorBuilder::from_config(DetectorConfig::nominal())
            .interner(trace.interner.clone())
            .build()
            .expect("valid config");
        let (mut clusters, mut mqcs, mut density_sum) = (0usize, 0usize, 0f64);
        for quantum in trace.messages.chunks(session.config().quantum_size) {
            session.process_quantum(quantum);
            for cluster in session.clusters().clusters() {
                clusters += 1;
                let nodes: FxHashSet<NodeId> = cluster.nodes.iter().copied().collect();
                mqcs += usize::from(is_mqc(session.akg(), &nodes));
                density_sum += density(session.akg(), &nodes);
            }
        }
        let mqc_pct = 100.0 * mqcs as f64 / clusters as f64;
        let mean_density = density_sum / clusters as f64;
        eprintln!(
            "mqc {name}: {mqcs} of {clusters} live cluster-quanta are MQCs ({mqc_pct:.1}%), \
             mean density {mean_density:.3}"
        );
        assert!(clusters > 0, "{name}");
        assert!(mqc_pct >= 85.0, "{name}");
        assert!(mean_density >= 0.85, "{name}");
    }
}

/// Design-choice ablations.  Exact Jaccard correlation — a sketch as wide
/// as the window can hold users, Δ·w, so every sketch is a whole user set
/// — is more precise than the min-hash estimate at no cost in recall; the
/// paper's sketch size
/// `p = min(σ/2, 1/τ)` (`min_sketch_size = 1`) costs precision, which is why
/// `DetectorConfig::min_sketch_size` deviates from it.  Turning hysteresis
/// off is printed only.
#[test]
fn ablations_pin_exact_correlation_and_the_sketch_size_floor() {
    for (name, trace) in [
        ("tw", tw(ProfileScale::Small)),
        ("es", es(ProfileScale::Small)),
    ] {
        let run = |config: DetectorConfig| run_detector_on_trace(&trace, &config).scores;
        let minhash = run(DetectorConfig::nominal());
        let nominal = DetectorConfig::nominal();
        let exact = run(DetectorConfig {
            min_sketch_size: nominal.quantum_size * nominal.window_quanta,
            ..DetectorConfig::nominal()
        });
        let paper_p = run(DetectorConfig {
            min_sketch_size: 1,
            ..DetectorConfig::nominal()
        });
        let no_hysteresis = run(DetectorConfig {
            hysteresis: false,
            ..DetectorConfig::nominal()
        });
        eprintln!(
            "ablation {name}: (precision, recall) min-hash ({:.3}, {:.3}) exact ({:.3}, {:.3}) \
             p=1 ({:.3}, {:.3}) no hysteresis ({:.3}, {:.3})",
            minhash.precision,
            minhash.recall,
            exact.precision,
            exact.recall,
            paper_p.precision,
            paper_p.recall,
            no_hysteresis.precision,
            no_hysteresis.recall
        );
        assert!(exact.precision > minhash.precision, "{name}");
        assert!(exact.recall >= minhash.recall, "{name}");
        assert!(minhash.precision - paper_p.precision >= 0.15, "{name}");
    }
}

#[test]
fn throughput_exceeds_stream_rates_by_a_wide_margin() {
    let rate = msgs_per_sec(&run_detector_on_trace(&small_tw(), &test_config()));
    // The paper's 2012 machine managed >4000 msgs/sec on the TW trace; even
    // a debug build on current hardware should beat Twitter's 2012 rate of
    // ~2300 msgs/sec.  Keep the bound loose so CI boxes do not flake.
    assert!(rate > 500.0, "throughput {rate:.0} msgs/sec");
}

/// Table 4: the paper's TW trace ran several times faster per message than
/// the event-dense ES trace, and both slowed as Δ grew.  Only "TW is faster
/// over the three quantum sizes together" is asserted.  Each (Δ, trace)
/// cell is the fastest of three runs, the TW and ES runs interleaved
/// within each Δ, so one stall of a shared machine cannot decide it.
#[test]
fn es_trace_is_slower_per_message_than_tw_trace() {
    const DELTAS: [usize; 3] = [120, 160, 200];
    let traces = [tw(ProfileScale::Small), es(ProfileScale::Small)];
    let runs = DELTAS.map(|delta| {
        let config = DetectorConfig::nominal().with_quantum_size(delta);
        let mut fastest = traces
            .each_ref()
            .map(|trace| run_detector_on_trace(trace, &config));
        for _ in 1..3 {
            for (best, trace) in fastest.iter_mut().zip(&traces) {
                let run = run_detector_on_trace(trace, &config);
                if run.elapsed_secs < best.elapsed_secs {
                    *best = run;
                }
            }
        }
        fastest
    });
    let rates = |i: usize| runs.each_ref().map(|pair| msgs_per_sec(&pair[i]));
    let overall = |i: usize| {
        let messages: usize = runs.iter().map(|pair| pair[i].messages).sum();
        let secs: f64 = runs.iter().map(|pair| pair[i].elapsed_secs).sum();
        messages as f64 / secs
    };
    let (tw_rate, es_rate) = (overall(0), overall(1));
    eprintln!(
        "table4: msgs/s for delta {DELTAS:?}: tw {:.0?} es {:.0?}; overall tw/es {:.2}x",
        rates(0),
        rates(1),
        tw_rate / es_rate
    );
    assert!(tw_rate > es_rate);
}

#[test]
fn scheme_comparison_favours_scp_clusters() {
    // Table 3 / §7.3 on the ground-truth trace at nominal parameters: the
    // offline biconnected baseline (+ size-2 edge clusters) reports more
    // cluster snapshots (paper: Ac +276 %), most BC(≥3) clusters coincide
    // exactly with an SCP cluster (paper: 74.5 %), and SCP recall is at
    // least the plain BC baseline's.
    let cmp = compare_schemes(&ground_truth(), &DetectorConfig::nominal());
    eprintln!(
        "table3: Ac {:+.1}% AE {:+.1}% exact overlap {:.1}% \
         (precision, recall) scp ({:.3}, {:.3}) bc ({:.3}, {:.3}) bc+edges ({:.3}, {:.3})",
        cmp.additional_clusters_pct,
        cmp.additional_events_pct,
        cmp.exact_overlap_pct,
        cmp.scp.precision,
        cmp.scp.recall,
        cmp.biconnected.precision,
        cmp.biconnected.recall,
        cmp.biconnected_plus_edges.precision,
        cmp.biconnected_plus_edges.recall
    );
    assert!(cmp.additional_clusters_pct > 0.0);
    assert!(cmp.exact_overlap_pct >= 74.5);
    assert!(cmp.scp.recall + 1e-9 >= cmp.biconnected.recall);
    // The +edges baseline's lower precision does not hold on every
    // ground-truth seed; it is pinned on this Time-Window trace.
    let tw = compare_schemes(&small_tw(), &test_config());
    assert!(tw.biconnected_plus_edges.precision < tw.scp.precision);
}

#[test]
fn detector_is_deterministic_for_a_given_trace_and_config() {
    let trace = small_tw();
    let a = run_detector_on_trace(&trace, &test_config());
    let b = run_detector_on_trace(&trace, &test_config());
    assert_eq!(a.scores, b.scores);
    assert_eq!(a.quality.events, b.quality.events);
}
