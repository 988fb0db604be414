//! Telemetry plumbing for experiment harnesses: snapshot-delta scopes
//! that attribute recorded counters to a named phase of a run and emit
//! them to a [`MetricsSink`], plus a human-readable summary table.
//!
//! While the recorder is disarmed the snapshots are all-zero and
//! [`with_phase`] still emits one event, carrying only its labels.

use crate::report::Table;
use oppsla_core::telemetry::{self, emit_snapshot, FieldValue, MetricsSink, Snapshot};

/// Runs `f`, then emits the telemetry recorded during it (the snapshot
/// delta) as one `event` on `sink`, tagged with `labels`.
///
/// Counter merges are commutative sums flushed at thread joins, so the
/// delta — and therefore the emitted event — is identical for any worker
/// thread count used inside `f`.
pub fn with_phase<T>(
    sink: &mut dyn MetricsSink,
    event: &str,
    labels: &[(&str, FieldValue)],
    f: impl FnOnce() -> T,
) -> T {
    let before = telemetry::snapshot();
    let out = f();
    let delta = telemetry::snapshot().since(&before);
    emit_snapshot(sink, event, labels, &delta);
    out
}

/// Renders a snapshot as a two-column report table: one row per non-zero
/// counter (wire name, value), then the delta-cache hit rate and the
/// per-image query histogram when present. Deterministic: rows follow the
/// fixed counter declaration order.
pub fn telemetry_table(title: &str, snap: &Snapshot) -> Table {
    let mut table = Table::new(title, vec!["metric".into(), "value".into()]);
    for c in telemetry::Counter::ALL {
        if snap.get(c) != 0 {
            table.push_row(vec![c.name().to_owned(), snap.get(c).to_string()]);
        }
    }
    if let Some(rate) = snap.delta_cache_hit_rate() {
        table.push_row(vec!["delta_cache_hit_rate".into(), format!("{:.4}", rate)]);
    }
    for (bucket, &n) in snap.query_hist.iter().enumerate() {
        if n != 0 {
            let (lo, hi) = telemetry::query_hist_bounds(bucket);
            let range = if hi == u64::MAX {
                format!("queries [{lo}, inf)")
            } else {
                format!("queries [{lo}, {hi})")
            };
            table.push_row(vec![range, n.to_string()]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use oppsla_core::telemetry::JsonlSink;

    #[test]
    fn with_phase_emits_exactly_one_event_with_labels() {
        let mut sink = JsonlSink::from_writer(Vec::new());
        let value = with_phase(
            &mut sink,
            "unit_phase",
            &[("attack", FieldValue::Str("oppsla".into()))],
            || 42,
        );
        assert_eq!(value, 42);
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("{\"event\":\"unit_phase\""), "{text}");
        assert!(text.contains("\"attack\":\"oppsla\""), "{text}");
    }

    #[test]
    fn telemetry_table_is_well_formed_for_zero_and_nonzero_snapshots() {
        let table = telemetry_table("Telemetry", &Snapshot::zero());
        assert!(table.rows.is_empty(), "zero snapshot has no rows");

        let mut snap = Snapshot::zero();
        snap.counters[telemetry::Counter::QueryBaseline as usize] = 7;
        snap.query_hist[3] = 2;
        let table = telemetry_table("Telemetry", &snap);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.rows[0], vec!["query_baseline".to_owned(), "7".into()]);
        assert_eq!(table.rows[1][0], "queries [4, 8)");
    }
}
