//! The server's live metrics plane.
//!
//! One [`ServerMetrics`] instance per daemon aggregates everything the
//! observability surfaces expose: the Prometheus-style `/metrics` page,
//! the machine-readable [`StatsReport`] frame, and `server_top`'s
//! console view all read from the same [`Registry`].
//!
//! Three rules keep this plane cheap and harmless:
//!
//! 1. **Atomics only on the hot path.** Every per-query and per-batch
//!    update goes through a pre-registered [`Counter`]/[`Gauge`]/
//!    [`Histogram`] handle — a handful of relaxed atomic adds, no locks,
//!    no allocation. The registry's mutex is touched only at
//!    registration (once per tenant) and at readout.
//! 2. **Passive by construction.** Nothing on the serving path ever
//!    *reads* a metric to make a decision, so enabling metrics
//!    cannot change job outcomes: the `log_fnv` determinism witness is
//!    byte-identical metrics-on vs metrics-off (CI A/B-tests this).
//! 3. **Bounded cardinality.** Tenants are server-assigned sequential
//!    ids; past [`MAX_TENANT_SERIES`] distinct tenants, further ones
//!    share one `tenant="overflow"` series so a reconnect storm cannot
//!    grow the registry without bound.

use crate::protocol::{SlowJob, StatsMetric, StatsReport};
use oppsla_obs::metrics::{Counter, Gauge, Histogram, Registry};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Distinct per-tenant label values kept before new tenants fold into
/// the shared `tenant="overflow"` series.
pub const MAX_TENANT_SERIES: u64 = 64;

/// Completed jobs remembered by the slow-request log (the N worst by
/// wall time since the server started).
pub const SLOW_LOG_CAPACITY: usize = 8;

/// The stages of a served attack job, in order, as the `stage` label of
/// `job_stage_us`: JSON request decode, the admission wait, the attack
/// itself (validation, model work and query log), and reply encode plus
/// write. A job's stage times add up to its `job_latency_us` wall time.
pub const JOB_STAGES: [&str; 4] = ["decode", "admission", "compute", "reply"];

/// Pre-registered handles for one tenant (a connection), labelled
/// `tenant="t<seq>"` in connection-accept order.
pub struct TenantMetrics {
    /// The label value these handles carry (`"t3"`, or `"overflow"`).
    pub id: String,
    /// Jobs past admission (includes those that waited for a slot).
    pub jobs_admitted: Arc<Counter>,
    /// Jobs that had to wait in the admission queue before running.
    pub jobs_waited: Arc<Counter>,
    /// Jobs rejected because the waiting room was full.
    pub jobs_rejected: Arc<Counter>,
    /// Jobs that completed with an outcome.
    pub jobs_done: Arc<Counter>,
    /// Jobs that failed validation or errored.
    pub jobs_errored: Arc<Counter>,
    /// Counted oracle queries spent across this tenant's jobs.
    pub queries: Arc<Counter>,
    /// Sum of the query budgets of admitted jobs.
    pub budget_granted: Arc<Counter>,
    /// Budget remaining at completion, summed over finished jobs
    /// (`budget - queries` per job: how much headroom the tenant left).
    pub budget_unspent: Arc<Counter>,
}

/// Ring of the worst-latency completed jobs, kept sorted slowest-first.
struct SlowLog {
    worst: Vec<SlowJob>,
}

impl SlowLog {
    fn push(&mut self, job: SlowJob) {
        let pos = self
            .worst
            .iter()
            .position(|j| j.wall_us < job.wall_us)
            .unwrap_or(self.worst.len());
        if pos < SLOW_LOG_CAPACITY {
            self.worst.insert(pos, job);
            self.worst.truncate(SLOW_LOG_CAPACITY);
        }
    }
}

/// The daemon's metric registry plus its server-wide handles and the
/// slow-request log. Shared (`Arc`) between the accept loop, connection
/// threads, the `/metrics` listener, and the zoo.
pub struct ServerMetrics {
    registry: Registry,
    started: Instant,
    /// Open client connections right now.
    pub connections: Arc<Gauge>,
    /// Jobs running right now (admission slots held).
    pub jobs_active: Arc<Gauge>,
    /// Jobs parked in the admission waiting room right now.
    pub jobs_waiting: Arc<Gauge>,
    /// Jobs past admission, across all tenants.
    pub jobs_admitted: Arc<Counter>,
    /// Jobs rejected at admission, across all tenants.
    pub jobs_rejected: Arc<Counter>,
    /// Jobs completed with an outcome, across all tenants.
    pub jobs_done: Arc<Counter>,
    /// Jobs that failed validation or errored, across all tenants.
    pub jobs_errored: Arc<Counter>,
    /// Counted oracle queries across all completed jobs. CI cross-checks
    /// this against ground-truth client-side counts after a loadtest.
    pub queries_total: Arc<Counter>,
    /// End-to-end job wall time (request decode to reply written),
    /// microseconds.
    pub job_latency_us: Arc<Histogram>,
    /// Per-stage job wall time, microseconds, one histogram per entry of
    /// [`JOB_STAGES`] (label `stage`).
    pub job_stage_us: [Arc<Histogram>; 4],
    /// Zoo train-once latches fired (cold shards trained or loaded).
    pub zoo_shard_trains: Arc<Counter>,
    tenant_series: Mutex<u64>,
    slow: Mutex<SlowLog>,
}

impl ServerMetrics {
    /// A fresh plane with the server-wide instruments registered.
    #[must_use]
    pub fn new() -> Self {
        let registry = Registry::new();
        ServerMetrics {
            connections: registry.gauge("connections", &[]),
            jobs_active: registry.gauge("jobs_active", &[]),
            jobs_waiting: registry.gauge("jobs_waiting", &[]),
            jobs_admitted: registry.counter("jobs_admitted", &[]),
            jobs_rejected: registry.counter("jobs_rejected", &[]),
            jobs_done: registry.counter("jobs_done", &[]),
            jobs_errored: registry.counter("jobs_errored", &[]),
            queries_total: registry.counter("queries_total", &[]),
            job_latency_us: registry.histogram("job_latency_us", &[]),
            job_stage_us: JOB_STAGES
                .map(|stage| registry.histogram("job_stage_us", &[("stage", stage)])),
            zoo_shard_trains: registry.counter("zoo_shard_trains", &[]),
            tenant_series: Mutex::new(0),
            slow: Mutex::new(SlowLog { worst: Vec::new() }),
            started: Instant::now(),
            registry,
        }
    }

    /// Handles for the next tenant, labelled `t<seq>` in registration
    /// order — or `overflow` once [`MAX_TENANT_SERIES`] distinct tenants
    /// exist (the overflow series is shared, keeping cardinality
    /// bounded under reconnect storms).
    pub fn tenant(&self) -> TenantMetrics {
        let seq = {
            let mut next = self
                .tenant_series
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            let seq = *next;
            *next += 1;
            seq
        };
        let id = if seq < MAX_TENANT_SERIES {
            format!("t{seq}")
        } else {
            "overflow".to_string()
        };
        let labels: &[(&str, &str)] = &[("tenant", &id)];
        TenantMetrics {
            jobs_admitted: self.registry.counter("tenant_jobs_admitted", labels),
            jobs_waited: self.registry.counter("tenant_jobs_waited", labels),
            jobs_rejected: self.registry.counter("tenant_jobs_rejected", labels),
            jobs_done: self.registry.counter("tenant_jobs_done", labels),
            jobs_errored: self.registry.counter("tenant_jobs_errored", labels),
            queries: self.registry.counter("tenant_queries", labels),
            budget_granted: self.registry.counter("tenant_budget_granted", labels),
            budget_unspent: self.registry.counter("tenant_budget_unspent", labels),
            id,
        }
    }

    /// Offers a completed job to the slow-request log; it is kept only
    /// while it ranks among the [`SLOW_LOG_CAPACITY`] worst by wall time.
    pub fn record_slow(&self, job: SlowJob) {
        self.slow
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(job);
    }

    /// The machine-readable snapshot answered to a `Stats` frame: every
    /// registered metric (sorted by key) plus the slow-request log.
    #[must_use]
    pub fn snapshot(&self) -> StatsReport {
        let metrics = self
            .registry
            .samples()
            .into_iter()
            .map(|s| StatsMetric {
                key: s.key,
                value: s.value,
            })
            .collect();
        let slow_jobs = self
            .slow
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .worst
            .clone();
        StatsReport {
            uptime_ms: u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX),
            metrics,
            slow_jobs,
        }
    }

    /// The plaintext Prometheus exposition page for `/metrics`.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slow(tenant: &str, wall_us: u64) -> SlowJob {
        SlowJob {
            tenant: tenant.into(),
            arch: "mlp".into(),
            scale: "shapes32".into(),
            status: "success".into(),
            queries: 10,
            full_queries: 1,
            delta_queries: 9,
            decode_us: 0,
            admission_us: 0,
            compute_us: wall_us,
            wall_us,
            budget: 100,
        }
    }

    #[test]
    fn tenants_get_sequential_ids_then_overflow() {
        let m = ServerMetrics::new();
        assert_eq!(m.tenant().id, "t0");
        assert_eq!(m.tenant().id, "t1");
        for _ in 2..MAX_TENANT_SERIES {
            m.tenant();
        }
        let over = m.tenant();
        assert_eq!(over.id, "overflow");
        let over2 = m.tenant();
        assert!(
            Arc::ptr_eq(&over.queries, &over2.queries),
            "overflow tenants share one series"
        );
    }

    #[test]
    fn slow_log_keeps_the_worst_sorted() {
        let m = ServerMetrics::new();
        for (i, wall) in [50u64, 900, 10, 700, 30, 999, 40, 800, 20, 60]
            .iter()
            .enumerate()
        {
            m.record_slow(slow(&format!("t{i}"), *wall));
        }
        let report = m.snapshot();
        assert_eq!(report.slow_jobs.len(), SLOW_LOG_CAPACITY);
        let walls: Vec<u64> = report.slow_jobs.iter().map(|j| j.wall_us).collect();
        let mut sorted = walls.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(walls, sorted, "slowest first");
        assert_eq!(walls[0], 999);
        assert!(!walls.contains(&10), "the fastest fell off the ring");
        assert!(!walls.contains(&20));
    }

    #[test]
    fn snapshot_carries_the_global_instruments() {
        let m = ServerMetrics::new();
        m.queries_total.add(123);
        m.jobs_done.inc();
        m.job_latency_us.observe(1000);
        let report = m.snapshot();
        let get = |key: &str| {
            report
                .metrics
                .iter()
                .find(|s| s.key == key)
                .unwrap_or_else(|| panic!("missing {key}"))
                .value
        };
        assert!((get("queries_total") - 123.0).abs() < f64::EPSILON);
        assert!((get("jobs_done") - 1.0).abs() < f64::EPSILON);
        assert!((get("job_latency_us_count") - 1.0).abs() < f64::EPSILON);
        let page = m.render_prometheus();
        assert!(page.contains("queries_total 123"), "{page}");
        assert!(page.contains("jobs_done 1"), "{page}");
    }
}
