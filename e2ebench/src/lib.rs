//! Building blocks of the end-to-end benchmark: the percentile rule, the
//! classifier decorator that times the `nn` layer from outside, the
//! oracle figures derived from its counts, and host readers.
//!
//! The benchmark binary (`src/main.rs`) drives the library's public entry
//! points; everything here is measurement, never part of the measured
//! system.

pub mod host;
pub mod route;

/// The workloads, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["attack_vgg", "synth_mlp", "serve_mlp", "serve_vgg"];

/// End-to-end metrics `(name, unit)`, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("candidates_per_s", "1/s"),
    ("avg_queries", "count"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, as `BENCHMARK.json` lists them.
/// Every traced run prints all of them; a layer the workload does not
/// reach reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("zoo.load_s", "s"),
    ("zoo.compile_s", "s"),
    ("server.start_s", "s"),
    ("server.shard_s", "s"),
    ("nn.full.calls", "count"),
    ("nn.full.ms", "ms"),
    ("nn.delta_seq.cands", "count"),
    ("nn.delta_seq.ms", "ms"),
    ("nn.delta_seq.us_per_cand", "us"),
    ("nn.delta_batch.calls", "count"),
    ("nn.delta_batch.cands", "count"),
    ("nn.delta_batch.ms", "ms"),
    ("nn.delta_batch.us_per_cand", "us"),
    ("nn.busy_share", "ratio"),
    ("oracle.queries", "count"),
    ("oracle.batch_coverage", "ratio"),
    ("oracle.spec_waste", "ratio"),
    ("core.self_ms", "ms"),
    ("core.self_us_per_query", "us"),
    ("synth.programs", "count"),
    ("synth.accept_ratio", "ratio"),
    ("synth.prefilter_query_share", "ratio"),
    ("protocol.request_kb", "KiB"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("scheduler.grouped_calls", "count"),
    ("scheduler.solo_calls", "count"),
    ("scheduler.full_calls", "count"),
    ("scheduler.merged_submissions", "count"),
    ("scheduler.merge_depth", "ratio"),
    ("scheduler.batch_mean", "ratio"),
    ("scheduler.coalesce_waits", "count"),
    ("session.lru_hits", "count"),
    ("session.lru_rebases", "count"),
    ("session.lru_colds", "count"),
    ("server.jobs_waited", "count"),
    ("server.jobs_rejected", "count"),
    ("server.isolated_ms_p50", "ms"),
    ("server.tax", "ratio"),
    ("host.cpu_s", "s"),
    ("host.steal_s", "s"),
    ("host.slowdown", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.item_share", "ratio"),
];

/// Tail percentiles, in per mille, that a report may quote: highest first.
const TAIL_LADDER_PER_MILLE: [u64; 4] = [999, 990, 900, 500];

/// The samples a percentile needs beyond it before a report quotes it.
pub const MIN_BEYOND: u64 = 10;

/// 1-based nearest rank of the `per_mille` percentile among `n` samples.
fn rank(n: u64, per_mille: u64) -> u64 {
    (n * per_mille).div_ceil(1000).max(1)
}

/// The highest percentile (in per mille) of `n` samples that has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median has
/// fewer. 100 samples support p90; 1000 support p99.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<u64> {
    let n = n as u64;
    TAIL_LADDER_PER_MILLE
        .into_iter()
        .find(|&pm| n >= rank(n, pm) + MIN_BEYOND)
}

/// The nearest-rank `per_mille` percentile of `values` (any order).
/// `None` for an empty slice.
#[must_use]
pub fn percentile(values: &[f64], per_mille: u64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let r = rank(sorted.len() as u64, per_mille) as usize;
    Some(sorted[r.min(sorted.len()) - 1])
}

/// The nearest-rank median of `values`; 0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 500).unwrap_or(0.0)
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload
/// does not exercise).
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
