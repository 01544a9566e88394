//! The metric tables: every metric the benchmark prints, with its unit,
//! the direction that is an improvement and — for end-to-end metrics — the
//! share of the baseline median by which it may worsen before a change is
//! a regression.  `BENCHMARK.json` repeats these tables for the driver;
//! `tests/contract.rs` keeps the two in step.

use crate::stats::Better::{self, Higher, Lower};

/// One metric's declaration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name as printed and as compared.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Regression bound as a share of the baseline median; 0 for
    /// per-layer metrics, which explain a result and are never gated.
    pub bound: f64,
}

const fn end_to_end(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees, on every workload.
///
/// * `msgs_per_s` — timed messages ÷ timed wall over the workload's whole
///   path (for `tw-text`: parse, tokenise, detect, serialise).
/// * `quantum_p50_ms`, `quantum_p99_ms` — the `push_message` call that
///   closes a quantum, journal append and sink delivery included: the
///   delay between the last post of a quantum and its report.
/// * `recall_pct`, `precision_pct` — the session's event records against
///   the generator's planted ground truth; exact for a seed.
/// * `setup_s` — generate, render, pre-intern, build a session.
///
/// The bounds follow the noise floor of the 2-core shared box the
/// benchmark was defined on, not a wish: over ten seeds the spread
/// (interquartile range ÷ median) of the timed metrics was 1–4 % in a quiet
/// hour and 6–15 % (p99: up to 26 %) in a busy one, because the host's
/// speed itself shifts for minutes at a time.  A bound inside that band
/// would call noise a regression.  Recall and precision are exact for a
/// seed; their spread (≈ 2 %) is the difference between seeds.
pub const END_TO_END: [Metric; 6] = [
    end_to_end("msgs_per_s", "1/s", Higher, 0.20),
    end_to_end("quantum_p50_ms", "ms", Lower, 0.20),
    end_to_end("quantum_p99_ms", "ms", Lower, 0.25),
    end_to_end("recall_pct", "%", Higher, 0.10),
    end_to_end("precision_pct", "%", Higher, 0.10),
    end_to_end("setup_s", "s", Lower, 0.25),
];

/// One number per layer boundary (layer = crate module).  A layer a
/// workload bypasses reports 0.
pub const PER_LAYER: [Metric; 61] = [
    // dengraph-text: tokenise, stem, stop-word filter, intern.
    layer("text.ns_per_msg", "ns", Lower),
    layer("text.keywords_per_msg", "count", Lower),
    layer("text.vocab_size", "count", Lower),
    layer("text.intern_miss_pct", "%", Lower),
    // dengraph-json as the stream decoder.
    layer("stream.parse_ns_per_msg", "ns", Lower),
    layer("stream.bytes_per_msg", "B", Lower),
    // JsonLinesSink::on_quantum_batch.
    layer("sink.us_per_quantum", "us", Lower),
    layer("sink.bytes_per_quantum", "B", Lower),
    layer("sink.lines_per_quantum", "count", Lower),
    // keyword_state: quantum aggregation and window slide.
    layer("window.aggregate_us_per_quantum", "us", Lower),
    layer("window.slide_us_per_quantum", "us", Lower),
    layer("window.pairs_per_quantum", "count", Lower),
    layer("window.keywords_per_quantum", "count", Lower),
    // dengraph-minhash kernels on 4096-element batches.
    layer("minhash.hash_batch_ns_per_id", "ns", Lower),
    layer("minhash.fold_ns_per_id", "ns", Lower),
    layer("minhash.merge_ns_per_sketch", "ns", Lower),
    layer("minhash.radix_ns_per_pair", "ns", Lower),
    // akg: candidate pairs, correlation scoring, graph mutation.
    layer("akg.us_per_quantum", "us", Lower),
    layer("akg.pairs_scored_per_quantum", "count", Lower),
    layer("akg.bursty_per_quantum", "count", Lower),
    layer("akg.edge_yield_pct", "%", Higher),
    layer("akg.deltas_per_quantum", "count", Lower),
    layer("akg.nodes_resident", "count", Lower),
    layer("akg.edges_resident", "count", Lower),
    // dengraph-graph: the delta log replayed onto a shadow graph + index.
    layer("graph.apply_us_per_quantum", "us", Lower),
    // cluster maintenance.
    layer("cluster.us_per_quantum", "us", Lower),
    layer("cluster.ops_per_quantum", "count", Lower),
    layer("cluster.live_clusters", "count", Lower),
    // ranking and report.
    layer("ranking.support_us_per_quantum", "us", Lower),
    layer("ranking.rank_us_per_quantum", "us", Lower),
    layer("ranking.clusters_ranked_per_quantum", "count", Lower),
    layer("ranking.events_per_quantum", "count", Lower),
    layer("ranking.report_yield_pct", "%", Higher),
    // the session as a whole.
    layer("session.push_us_per_quantum", "us", Lower),
    layer("session.allocs_per_quantum", "count", Lower),
    layer("session.heap_mb", "MB", Lower),
    // checkpoint codec, both wire formats.
    layer("codec.checkpoint_bytes", "B", Lower),
    layer("codec.encode_ms", "ms", Lower),
    layer("codec.decode_ms", "ms", Lower),
    layer("codec.json_bytes", "B", Lower),
    layer("codec.json_encode_ms", "ms", Lower),
    layer("codec.json_decode_ms", "ms", Lower),
    // durable WAL: writes beside reads.
    layer("wal.overhead_pct", "%", Lower),
    layer("wal.append_us_per_quantum", "us", Lower),
    layer("wal.bytes_per_quantum", "B", Lower),
    layer("wal.journal_bytes_per_msg", "B", Lower),
    layer("wal.delta_bytes_mean", "B", Lower),
    layer("wal.snapshot_bytes", "B", Lower),
    layer("wal.recovery_ms", "ms", Lower),
    layer("wal.frames_recovered", "count", Lower),
    layer("wal.deltas_replayed", "count", Lower),
    layer("wal.segments_scanned", "count", Lower),
    // parallel fan-out; informational on a shared small box.
    layer("parallel.hardware_threads", "count", Higher),
    layer("parallel.threads2_speedup_x", "x", Higher),
    // how far the traced run can be trusted.
    layer("trace.coverage_pct", "%", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.replay_match_pct", "%", Higher),
    // each layer group's share of the traced quantum time.
    layer("share.text_stream_sink_pct", "%", Lower),
    layer("share.window_pct", "%", Lower),
    layer("share.akg_ranking_pct", "%", Lower),
    layer("share.cluster_pct", "%", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128);
    }
}
