//! Table 4 — message processing rate.
//!
//! The paper reports messages/second on a modest 2012 machine for the
//! Time-Window and Event-Specific traces at quantum sizes 120/160/200:
//! the TW trace processes several times faster than the event-dense ES
//! trace, and throughput falls as the quantum grows.  Absolute numbers on
//! current hardware are much higher; the shape is what this binary checks.
//!
//! Run with: `cargo run -p dengraph-bench --release --bin table4_throughput`

use dengraph_bench::{build_trace, emit_report, scale_from_env, TablePrinter, TraceKind};
use dengraph_core::evaluation::measure_throughput;
use dengraph_core::DetectorConfig;

const DELTAS: &[usize] = &[120, 160, 200];

fn main() {
    let scale = scale_from_env();
    let mut out = String::new();
    out.push_str("== Table 4: message processing rate (messages/second) ==\n");
    out.push_str("(paper, 2012 hardware: TW 5185/4420/4160 and ES 1410/1400/1160 msgs/s at delta 120/160/200)\n\n");

    let mut table = TablePrinter::new([
        "trace type",
        "delta=120",
        "delta=160",
        "delta=200",
        "messages",
    ]);
    for kind in [TraceKind::TimeWindow, TraceKind::EventSpecific] {
        let trace = build_trace(kind, scale);
        let mut cells = vec![kind.label().to_string()];
        for &delta in DELTAS {
            let config = DetectorConfig::nominal().with_quantum_size(delta);
            let report = measure_throughput(&trace, &config);
            cells.push(format!("{:.0}", report.messages_per_sec));
        }
        cells.push(trace.messages.len().to_string());
        table.row(cells);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nexpected shape: the event-specific trace is several times slower per message,\n",
    );
    out.push_str("and throughput decreases slightly as the quantum size grows.\n");

    emit_report("table4_throughput", &out);
}
