//! A lock-light live metrics registry for long-running processes.
//!
//! Unlike the feature-gated offline telemetry in the crate root (flushed
//! to JSONL after a run), these instruments are *always compiled* and
//! meant to be read while the process serves traffic: the attack server
//! threads them through its admission gate and job path, and exposes
//! the registry through a `Stats` protocol frame and a Prometheus-style
//! `/metrics` text page.
//!
//! # Design
//!
//! * **Atomics only on the hot path.** Recording through a [`Counter`],
//!   [`Gauge`], or [`Histogram`] handle is one or three relaxed atomic
//!   RMWs; no lock is taken and nothing allocates. The registry's mutex
//!   guards *registration* (creating or looking up an instrument) and
//!   *readout* only — both off the hot path by construction.
//! * **No allocation after registration.** Handles are `Arc`s into
//!   fixed-size atomic storage; callers clone the `Arc` once at startup
//!   and record through it for the life of the process.
//! * **Passive by construction.** Nothing ever reads an instrument to
//!   make a decision — recording is write-only, so enabling metrics
//!   cannot perturb scheduling, query counts, or any other observable
//!   behavior. (The attack server's CI A/B-diffs its determinism digest
//!   with metrics on vs off to enforce this.)
//! * **Racy-but-monotone readout.** A readout does not stop writers;
//!   each value is an atomic load, so a snapshot taken mid-traffic may
//!   mix values from slightly different instants. Every instrument is
//!   monotone (counters) or a point-in-time level (gauges), so the skew
//!   is bounded by in-flight work and never produces negative rates.
//!
//! # Histograms
//!
//! [`Histogram`] buckets are log2-spaced over the full `u64` range:
//! bucket 0 holds the value 0, bucket `b` (1..=63) holds
//! `[2^(b-1), 2^b)`, and bucket 64 holds `[2^63, u64::MAX]`. The bounds
//! partition `u64` with no gaps or overlaps (property-tested), so every
//! observation lands in exactly one bucket. Quantile readout returns the
//! upper bound of the bucket where the cumulative count crosses the
//! rank — a ≤-factor-2 overestimate, which is the right bias for latency
//! alerting.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of log2 buckets in a [`Histogram`] (value 0, one bucket per
/// power of two, and a top bucket absorbing `[2^63, u64::MAX]`).
pub const HIST_BUCKETS: usize = 65;

/// The bucket an observed value lands in: 0 for 0, `b` for
/// `[2^(b-1), 2^b)`, 64 for everything at or above `2^63`.
#[must_use]
pub fn hist_bucket(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// The half-open bounds `[lo, hi)` of a bucket. The last bucket is
/// closed at the top: its `hi` is returned as `u64::MAX` and the bucket
/// includes `u64::MAX` itself.
///
/// # Panics
///
/// Panics when `bucket >= HIST_BUCKETS`.
#[must_use]
pub fn hist_bounds(bucket: usize) -> (u64, u64) {
    assert!(bucket < HIST_BUCKETS, "bucket out of range");
    match bucket {
        0 => (0, 1),
        64 => (1 << 63, u64::MAX),
        b => (1 << (b - 1), 1 << b),
    }
}

/// A monotonically increasing counter. Handles are cheap `Arc` clones;
/// increments are single relaxed atomic adds.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Relaxed);
    }

    /// The current total.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

/// An instantaneous level that can move both ways (queue depths, live
/// connections). Signed so a transient release-before-acquire race in a
/// caller shows up as a visible negative level instead of wrapping.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the level outright.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Relaxed);
    }

    /// Adds `n` (negative to decrease).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// The current level.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Relaxed)
    }
}

/// A log2-bucketed rolling histogram with quantile readout. One
/// observation is three relaxed atomic adds (bucket, count, sum).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.buckets[hist_bucket(value)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
    }

    /// Observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of every observed value (for means; wraps only after
    /// `u64::MAX` total, which no realistic run reaches).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// A point-in-time copy of the per-bucket counts.
    #[must_use]
    pub fn bucket_counts(&self) -> [u64; HIST_BUCKETS] {
        let mut out = [0u64; HIST_BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Relaxed);
        }
        out
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`) as the upper bound of the
    /// bucket where the cumulative count reaches `ceil(q * count)` —
    /// an at-most-factor-2 overestimate. Returns 0 with no observations.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, &n) in counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, hi) = hist_bounds(b);
                return if hi == u64::MAX { lo } else { hi };
            }
        }
        unreachable!("cumulative count reaches the total")
    }
}

/// One instrument registered in a [`Registry`].
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

/// One flattened readout value: a Prometheus-style key (name plus an
/// optional `{label="value",…}` selector) and its value at read time.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// `name` or `name{l1="v1",…}`; histogram keys carry `_count`,
    /// `_sum`, `_p50`, `_p90`, `_p99` suffixes on the name.
    pub key: String,
    /// The value; counter and histogram-count values are exact for
    /// totals below 2^53.
    pub value: f64,
}

/// A registry of named instruments. Registration and readout lock a
/// mutex; recording through the returned handles never does.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

fn labels_of(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|&(k, v)| (k.to_owned(), v.to_owned()))
        .collect()
}

fn selector(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut s = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{k}=\"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    s.push('}');
    s
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Entry>> {
        self.entries
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn get_or_register<T>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        pick: impl Fn(&Instrument) -> Option<Arc<T>>,
        make: impl FnOnce() -> (Arc<T>, Instrument),
    ) -> Arc<T> {
        let labels = labels_of(labels);
        let mut entries = self.lock();
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            return pick(&e.instrument).unwrap_or_else(|| {
                panic!(
                    "metric {name}{} already registered as a {}",
                    selector(&labels),
                    e.instrument.kind()
                )
            });
        }
        let (handle, instrument) = make();
        entries.push(Entry {
            name: name.to_owned(),
            labels,
            instrument,
        });
        handle
    }

    /// The counter `name` with `labels`, registering it on first use.
    /// Re-registration with the same name and labels returns the same
    /// handle.
    ///
    /// # Panics
    ///
    /// Panics when the name/labels pair is already registered as a
    /// different instrument kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.get_or_register(
            name,
            labels,
            |i| match i {
                Instrument::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            || {
                let c = Arc::new(Counter::default());
                (Arc::clone(&c), Instrument::Counter(c))
            },
        )
    }

    /// The gauge `name` with `labels`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics when the name/labels pair is already registered as a
    /// different instrument kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.get_or_register(
            name,
            labels,
            |i| match i {
                Instrument::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            || {
                let g = Arc::new(Gauge::default());
                (Arc::clone(&g), Instrument::Gauge(g))
            },
        )
    }

    /// The histogram `name` with `labels`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics when the name/labels pair is already registered as a
    /// different instrument kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.get_or_register(
            name,
            labels,
            |i| match i {
                Instrument::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            || {
                let h = Arc::new(Histogram::default());
                (Arc::clone(&h), Instrument::Histogram(h))
            },
        )
    }

    /// Every registered value as flattened key/value samples, sorted by
    /// key (deterministic for a quiescent registry). Histograms flatten
    /// to `_count`, `_sum`, `_p50`, `_p90`, `_p99` keys.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn samples(&self) -> Vec<Sample> {
        let entries = self.lock();
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for e in entries.iter() {
            let sel = selector(&e.labels);
            match &e.instrument {
                Instrument::Counter(c) => {
                    out.insert(format!("{}{sel}", e.name), c.get() as f64);
                }
                Instrument::Gauge(g) => {
                    out.insert(format!("{}{sel}", e.name), g.get() as f64);
                }
                Instrument::Histogram(h) => {
                    out.insert(format!("{}_count{sel}", e.name), h.count() as f64);
                    out.insert(format!("{}_sum{sel}", e.name), h.sum() as f64);
                    for (q, tag) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
                        out.insert(format!("{}_{tag}{sel}", e.name), h.quantile(q) as f64);
                    }
                }
            }
        }
        out.into_iter()
            .map(|(key, value)| Sample { key, value })
            .collect()
    }

    /// The registry as a Prometheus text-exposition page: `# TYPE`
    /// comments, integer-rendered counters and histogram buckets
    /// (cumulative `_bucket{le="…"}` series ending in `+Inf`), and
    /// `_sum`/`_count` per histogram. Instruments are sorted by name
    /// then labels, so the page is deterministic for a quiescent
    /// registry.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let entries = self.lock();
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by(|&a, &b| {
            (&entries[a].name, &entries[a].labels).cmp(&(&entries[b].name, &entries[b].labels))
        });
        let mut page = String::new();
        let mut last_typed: Option<String> = None;
        for i in order {
            let e = &entries[i];
            if last_typed.as_deref() != Some(&e.name) {
                let _ = writeln!(page, "# TYPE {} {}", e.name, e.instrument.kind());
                last_typed = Some(e.name.clone());
            }
            let sel = selector(&e.labels);
            match &e.instrument {
                Instrument::Counter(c) => {
                    let _ = writeln!(page, "{}{sel} {}", e.name, c.get());
                }
                Instrument::Gauge(g) => {
                    let _ = writeln!(page, "{}{sel} {}", e.name, g.get());
                }
                Instrument::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut cumulative = 0u64;
                    for (b, &n) in counts.iter().enumerate() {
                        cumulative += n;
                        if n == 0 && b + 1 != HIST_BUCKETS {
                            continue; // keep the page small; `le` is cumulative anyway
                        }
                        let hi = hist_bounds(b).1;
                        let le = if hi == u64::MAX {
                            "+Inf".to_owned()
                        } else {
                            hi.to_string()
                        };
                        let mut labels = e.labels.clone();
                        labels.push(("le".into(), le));
                        let _ =
                            writeln!(page, "{}_bucket{} {cumulative}", e.name, selector(&labels));
                    }
                    let _ = writeln!(page, "{}_sum{sel} {}", e.name, h.sum());
                    let _ = writeln!(page, "{}_count{sel} {}", e.name, h.count());
                }
            }
        }
        page
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_place_boundary_values() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 1);
        assert_eq!(hist_bucket(2), 2);
        assert_eq!(hist_bucket(3), 2);
        assert_eq!(hist_bucket(4), 3);
        assert_eq!(hist_bucket(1 << 62), 63);
        assert_eq!(hist_bucket(1 << 63), 64);
        assert_eq!(hist_bucket(u64::MAX), 64);
    }

    #[test]
    fn bounds_tile_with_no_gaps() {
        assert_eq!(hist_bounds(0), (0, 1));
        for b in 1..HIST_BUCKETS - 1 {
            assert_eq!(hist_bounds(b).0, hist_bounds(b - 1).1, "bucket {b}");
        }
        let (lo, hi) = hist_bounds(HIST_BUCKETS - 1);
        assert_eq!(lo, 1 << 63);
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn quantiles_use_bucket_upper_bounds() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram reads 0");
        for v in [1u64, 1, 1, 1, 100, 100, 100, 100, 100, 4000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 4 + 500 + 4000);
        // Ranks 1-4 land in [1,2), 5-9 in [64,128), 10 in [2048,4096).
        assert_eq!(h.quantile(0.4), 2);
        assert_eq!(h.quantile(0.5), 128);
        assert_eq!(h.quantile(0.9), 128);
        assert_eq!(h.quantile(0.99), 4096);
        assert_eq!(h.quantile(1.0), 4096);
    }

    #[test]
    fn quantile_of_the_top_bucket_reports_its_lower_bound() {
        let h = Histogram::default();
        h.observe(u64::MAX);
        assert_eq!(h.quantile(0.5), 1 << 63);
    }

    #[test]
    fn registration_dedupes_and_readout_is_sorted() {
        let r = Registry::new();
        let a = r.counter("jobs_done", &[]);
        let b = r.counter("jobs_done", &[]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same name+labels share one cell");
        let t0 = r.counter("tenant_jobs", &[("tenant", "t0")]);
        let t1 = r.counter("tenant_jobs", &[("tenant", "t1")]);
        t0.inc();
        t1.add(5);
        r.gauge("queue_depth", &[("shard", "mlp-shapes32")]).set(4);
        let samples = r.samples();
        let keys: Vec<&str> = samples.iter().map(|s| s.key.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "samples are key-sorted");
        let get = |k: &str| {
            samples
                .iter()
                .find(|s| s.key == k)
                .unwrap_or_else(|| panic!("missing {k} in {keys:?}"))
                .value
        };
        assert_eq!(get("jobs_done"), 3.0);
        assert_eq!(get("tenant_jobs{tenant=\"t0\"}"), 1.0);
        assert_eq!(get("tenant_jobs{tenant=\"t1\"}"), 5.0);
        assert_eq!(get("queue_depth{shard=\"mlp-shapes32\"}"), 4.0);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x", &[]);
        let _ = r.gauge("x", &[]);
    }

    #[test]
    fn histogram_samples_flatten_quantiles() {
        let r = Registry::new();
        let h = r.histogram("job_latency_us", &[]);
        h.observe(3);
        h.observe(900);
        let samples = r.samples();
        let get = |k: &str| samples.iter().find(|s| s.key == k).unwrap().value;
        assert_eq!(get("job_latency_us_count"), 2.0);
        assert_eq!(get("job_latency_us_sum"), 903.0);
        assert_eq!(get("job_latency_us_p50"), 4.0);
        assert_eq!(get("job_latency_us_p99"), 1024.0);
    }

    #[test]
    fn prometheus_page_has_types_buckets_and_inf() {
        let r = Registry::new();
        r.counter("jobs_done", &[]).add(7);
        r.gauge("jobs_active", &[]).set(2);
        let h = r.histogram("lat_us", &[("shard", "mlp")]);
        h.observe(5);
        h.observe(5);
        h.observe(300);
        let page = r.render_prometheus();
        assert!(page.contains("# TYPE jobs_done counter"), "{page}");
        assert!(page.contains("jobs_done 7"), "{page}");
        assert!(page.contains("# TYPE jobs_active gauge"), "{page}");
        assert!(page.contains("jobs_active 2"), "{page}");
        assert!(page.contains("# TYPE lat_us histogram"), "{page}");
        assert!(
            page.contains("lat_us_bucket{shard=\"mlp\",le=\"8\"} 2"),
            "{page}"
        );
        assert!(
            page.contains("lat_us_bucket{shard=\"mlp\",le=\"512\"} 3"),
            "{page}"
        );
        assert!(
            page.contains("lat_us_bucket{shard=\"mlp\",le=\"+Inf\"} 3"),
            "{page}"
        );
        assert!(page.contains("lat_us_sum{shard=\"mlp\"} 310"), "{page}");
        assert!(page.contains("lat_us_count{shard=\"mlp\"} 3"), "{page}");
        assert_eq!(page, r.render_prometheus(), "page is deterministic");
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter("c", &[("who", "a\"b\\c")]).inc();
        let page = r.render_prometheus();
        assert!(page.contains("c{who=\"a\\\"b\\\\c\"} 1"), "{page}");
    }
}
