//! `BENCHMARK.json` is what the driver reads; the tables in
//! `dengraph_benchmark::{metrics, workload}` are what the binaries print.
//! This test keeps the two in step.

use dengraph_benchmark::metrics::{Metric, END_TO_END, PER_LAYER};
use dengraph_benchmark::stats::Better;
use dengraph_benchmark::workload::WORKLOADS;
use dengraph_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside benchmark/");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    dengraph_json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn keys(value: &Value) -> Vec<&str> {
    match value {
        Value::Obj(map) => map.keys().map(String::as_str).collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

fn text<'a>(value: &'a Value, key: &str) -> &'a str {
    value.get(key).unwrap().as_str().unwrap()
}

fn assert_metric(entry: &Value, metric: &Metric, bounded: bool) {
    assert_eq!(text(entry, "name"), metric.name);
    assert_eq!(text(entry, "unit"), metric.unit, "{}", metric.name);
    let better = match metric.better {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    assert_eq!(text(entry, "better"), better, "{}", metric.name);
    if bounded {
        assert_eq!(keys(entry), ["better", "bound", "name", "unit"]);
        let bound = entry.get("bound").unwrap().as_f64().unwrap();
        assert_eq!(bound, metric.bound, "{}", metric.name);
    } else {
        assert_eq!(keys(entry), ["better", "name", "unit"]);
    }
}

#[test]
fn benchmark_json_has_exactly_the_contract_keys() {
    let json = benchmark_json();
    assert_eq!(
        keys(&json),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let strings = |key: &str| -> Vec<String> {
        json.get(key)
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(strings("paths"), ["benchmark"]);
    assert_eq!(strings("command"), ["bash", "benchmark/run.sh"]);
    let seconds = json.get("run_seconds").unwrap().as_u64().unwrap();
    assert!((1..=60).contains(&seconds));
}

#[test]
fn workloads_match_the_workload_table() {
    let json = benchmark_json();
    let listed = json.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(listed.len(), WORKLOADS.len());
    for (entry, workload) in listed.iter().zip(&WORKLOADS) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(text(entry, "name"), workload.name);
        assert_eq!(text(entry, "why"), workload.why);
        assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
    }
}

#[test]
fn metrics_match_the_metric_tables() {
    let json = benchmark_json();
    let end_to_end = json.get("end_to_end").unwrap().as_arr().unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, metric) in end_to_end.iter().zip(&END_TO_END) {
        assert_metric(entry, metric, true);
    }
    let per_layer = json.get("per_layer").unwrap().as_arr().unwrap();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, metric) in per_layer.iter().zip(&PER_LAYER) {
        assert_metric(entry, metric, false);
    }
}
