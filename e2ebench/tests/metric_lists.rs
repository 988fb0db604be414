//! The binary prints exactly the workloads and metrics `BENCHMARK.json`
//! declares, in its order and with its units.

use oppsla_e2ebench::{END_TO_END, PER_LAYER, WORKLOADS};

#[derive(serde::Deserialize)]
struct Metric {
    name: String,
    unit: String,
}

#[derive(serde::Deserialize)]
struct Workload {
    name: String,
}

#[derive(serde::Deserialize)]
struct Benchmark {
    workloads: Vec<Workload>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn pairs(metrics: &[Metric]) -> Vec<(&str, &str)> {
    metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_binary() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let bench: Benchmark = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = bench.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(pairs(&bench.end_to_end), END_TO_END);
    assert_eq!(pairs(&bench.per_layer), PER_LAYER);
}
