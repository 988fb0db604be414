//! Rendering for `server_top`: a refreshing console view over `Stats`
//! snapshots.
//!
//! The binary is a thin poll loop; everything that decides what the
//! screen says lives here as pure functions over [`StatsReport`] values,
//! so the layout is unit-testable without a server. Rates (queries/s)
//! come from differencing two consecutive snapshots — the server only
//! ever exports monotone counters, never rates.

use crate::protocol::{StatsMetric, StatsReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Splits a flattened metric key into `(name, label_value)` when it
/// carries exactly one label, e.g.
/// `tenant_queries{tenant="t3"}` → `("tenant_queries", "t3")`.
fn split_labelled(key: &str) -> Option<(&str, &str)> {
    let open = key.find('{')?;
    let eq = key[open..].find("=\"")? + open;
    let close = key.rfind("\"}")?;
    if close <= eq + 2 {
        return None;
    }
    Some((&key[..open], &key[eq + 2..close]))
}

/// The value of an unlabelled sample, or 0 when absent.
fn value(report: &StatsReport, key: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|s| s.key == key)
        .map_or(0.0, |s| s.value)
}

/// Collects `name{label="<id>"} -> value` rows into per-id maps:
/// `id -> (name -> value)`, for every sample whose single label has key
/// `label_key`.
fn rows_by_label(report: &StatsReport, label_key: &str) -> BTreeMap<String, BTreeMap<String, f64>> {
    let prefix = format!("{{{label_key}=\"");
    let mut rows: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    for StatsMetric { key, value } in &report.metrics {
        let Some((name, id)) = split_labelled(key) else {
            continue;
        };
        if !key[name.len()..].starts_with(&prefix) {
            continue;
        }
        rows.entry(id.to_string())
            .or_default()
            .insert(name.to_string(), *value);
    }
    rows
}

/// Tenant ids sort numerically (`t2` before `t10`), `overflow` last.
fn tenant_order(id: &str) -> (u64, String) {
    match id.strip_prefix('t').and_then(|n| n.parse::<u64>().ok()) {
        Some(n) => (n, String::new()),
        None => (u64::MAX, id.to_string()),
    }
}

fn fmt_duration_ms(ms: u64) -> String {
    if ms >= 60_000 {
        format!("{}m{:02}s", ms / 60_000, (ms % 60_000) / 1000)
    } else {
        format!("{:.1}s", ms as f64 / 1000.0)
    }
}

/// Queries-per-second between two snapshots, when both exist and time
/// actually advanced.
fn rate(report: &StatsReport, prev: Option<&StatsReport>, key: &str) -> Option<f64> {
    let prev = prev?;
    let dt_ms = report.uptime_ms.checked_sub(prev.uptime_ms)?;
    if dt_ms == 0 {
        return None;
    }
    let delta = value(report, key) - value(prev, key);
    Some(delta * 1000.0 / dt_ms as f64)
}

/// Renders one full console frame: header, per-tenant table, and the
/// slow-request log with each job's admission and compute time. `prev` (the previous poll's report)
/// adds rate columns when available.
#[must_use]
pub fn render(report: &StatsReport, prev: Option<&StatsReport>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "oppsla server_top  uptime {}  conns {}  jobs {} done / {} err / {} active / {} waiting",
        fmt_duration_ms(report.uptime_ms),
        value(report, "connections"),
        value(report, "jobs_done"),
        value(report, "jobs_errored"),
        value(report, "jobs_active"),
        value(report, "jobs_waiting"),
    );
    let qps = match rate(report, prev, "queries_total") {
        Some(r) => format!("  ({r:.0}/s)"),
        None => String::new(),
    };
    let _ = writeln!(
        out,
        "queries {}{}  job p50/p99 {}us/{}us  shard trains {}",
        value(report, "queries_total"),
        qps,
        value(report, "job_latency_us_p50"),
        value(report, "job_latency_us_p99"),
        value(report, "zoo_shard_trains"),
    );

    let tenants = rows_by_label(report, "tenant");
    if !tenants.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<10} {:>6} {:>5} {:>5} {:>5} {:>10} {:>12}",
            "TENANT", "DONE", "ERR", "REJ", "WAIT", "QUERIES", "BUDGET-LEFT"
        );
        let mut ids: Vec<&String> = tenants.keys().collect();
        ids.sort_by_key(|id| tenant_order(id));
        for id in ids {
            let row = &tenants[id];
            let get = |name: &str| row.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(
                out,
                "{:<10} {:>6} {:>5} {:>5} {:>5} {:>10} {:>12}",
                id,
                get("tenant_jobs_done"),
                get("tenant_jobs_errored"),
                get("tenant_jobs_rejected"),
                get("tenant_jobs_waited"),
                get("tenant_queries"),
                get("tenant_budget_unspent"),
            );
        }
    }

    if !report.slow_jobs.is_empty() {
        let _ = writeln!(
            out,
            "\nslowest jobs\n{:<10} {:<22} {:<22} {:>10} {:>12} {:>10} {:>10} {:>10} {:>8}",
            "TENANT",
            "SHARD",
            "STATUS",
            "QUERIES",
            "FULL/DELTA",
            "ADMISSION",
            "COMPUTE",
            "WALL",
            "BUDGET"
        );
        for j in &report.slow_jobs {
            let _ = writeln!(
                out,
                "{:<10} {:<22} {:<22} {:>10} {:>12} {:>8}us {:>8}us {:>8}us {:>8}",
                j.tenant,
                format!("{}/{}", j.arch, j.scale),
                j.status,
                j.queries,
                format!("{}/{}", j.full_queries, j.delta_queries),
                j.admission_us,
                j.compute_us,
                j.wall_us,
                j.budget,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SlowJob;

    fn sample(key: &str, value: f64) -> StatsMetric {
        StatsMetric {
            key: key.into(),
            value,
        }
    }

    fn report() -> StatsReport {
        StatsReport {
            uptime_ms: 2500,
            metrics: vec![
                sample("connections", 3.0),
                sample("jobs_done", 12.0),
                sample("queries_total", 5000.0),
                sample("tenant_jobs_done{tenant=\"t0\"}", 5.0),
                sample("tenant_queries{tenant=\"t0\"}", 2100.0),
                sample("tenant_jobs_done{tenant=\"t10\"}", 3.0),
                sample("tenant_jobs_done{tenant=\"t2\"}", 4.0),
                sample("tenant_jobs_done{tenant=\"overflow\"}", 1.0),
            ],
            slow_jobs: vec![SlowJob {
                tenant: "t2".into(),
                arch: "mlp".into(),
                scale: "shapes32".into(),
                status: "success".into(),
                queries: 321,
                full_queries: 1,
                delta_queries: 320,
                decode_us: 900,
                admission_us: 4,
                compute_us: 86_000,
                wall_us: 88_000,
                budget: 600,
            }],
        }
    }

    #[test]
    fn splits_single_labelled_keys() {
        assert_eq!(
            split_labelled("tenant_queries{tenant=\"t3\"}"),
            Some(("tenant_queries", "t3"))
        );
        assert_eq!(split_labelled("queries_total"), None);
    }

    #[test]
    fn renders_tenants_in_numeric_order_with_overflow_last() {
        let page = render(&report(), None);
        let t0 = page.find("t0 ").expect("t0 row");
        let t2 = page.find("t2 ").expect("t2 row");
        let t10 = page.find("t10 ").expect("t10 row");
        let over = page.find("overflow").expect("overflow row");
        assert!(t0 < t2 && t2 < t10 && t10 < over, "{page}");
    }

    #[test]
    fn renders_header_and_slow_log() {
        let page = render(&report(), None);
        assert!(page.contains("uptime 2.5s"), "{page}");
        assert!(page.contains("queries 5000"), "{page}");
        assert!(page.contains("mlp/shapes32"), "{page}");
        assert!(page.contains("86000us"), "compute stage shown: {page}");
        assert!(page.contains("slowest jobs"), "{page}");
        assert!(page.contains("1/320"), "full/delta split shown: {page}");
    }

    #[test]
    fn rates_come_from_differencing_snapshots() {
        let mut prev = report();
        prev.uptime_ms = 1500;
        prev.metrics = vec![sample("queries_total", 3000.0)];
        let page = render(&report(), Some(&prev));
        // 2000 queries over 1000 ms = 2000/s.
        assert!(page.contains("(2000/s)"), "{page}");
        let no_prev = render(&report(), None);
        assert!(!no_prev.contains("/s)"), "no rate without a baseline");
    }
}
