//! Telemetry for the OPPSLA query path.
//!
//! The paper's central cost metric is the classifier query count, so the
//! attack and synthesis loops are worth instrumenting: which phase of an
//! attack spends the queries (initial scan, refinement, re-prioritization),
//! how the per-image query counts distribute, how often the incremental
//! inference backend hits its cached base activations, and where a forward
//! pass spends its time per layer kind.
//!
//! # Design
//!
//! * **Feature-gated.** Everything records through free functions
//!   ([`count`], [`observe_image_queries`], [`op_timer`], …) that are inert
//!   inline no-ops unless the `telemetry` cargo feature is enabled. The
//!   query hot path therefore pays nothing — not even an `Instant::now()`
//!   — in a default build, which the counting-allocator and A/B-diff
//!   harnesses verify.
//! * **Lock-free thread-local recorder.** With `telemetry` on, increments
//!   go to plain thread-local cells (no atomics, no locks on the hot
//!   path). Each thread's cells are merged into global atomic totals when
//!   the thread exits — before a scoped-thread join returns — or on an
//!   explicit [`flush`]. Totals are sums of non-negative integers, so the
//!   merged [`Snapshot`] is identical for any thread count and schedule;
//!   only the (stderr/JSONL-only) wall-clock timings are nondeterministic.
//! * **Sinks.** A [`Snapshot`] can be rendered as a human summary or
//!   emitted as one JSONL event through a [`MetricsSink`] (the experiment
//!   binaries' `--telemetry out.jsonl`). [`Snapshot`] and the sinks exist
//!   in both builds, so binaries need no `cfg` at call sites: with the
//!   feature off they simply observe zeros and `telemetry_enabled: false`.

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

pub mod metrics;
pub mod trace;

/// Declares [`Counter`] with stable snake_case wire names.
macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// A monotonically increasing event counter.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        impl Counter {
            /// Number of counters.
            pub const COUNT: usize = [$($name),*].len();

            /// Every counter, in declaration (and wire) order.
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$variant),*];

            /// The stable snake_case name used in JSONL events and
            /// summaries.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)*
                }
            }
        }
    };
}

counters! {
    /// Baseline `N(x)` queries (one per attack run).
    QueryBaseline => "query_baseline",
    /// Queries spent scanning fresh candidates (the sketch's main queue
    /// loop; an attack's exploration proposals).
    QueryInitScan => "query_init_scan",
    /// Queries spent refining around earlier candidates (the sketch's
    /// eager B3/B4 checks; an attack's exploitation proposals).
    QueryRefine => "query_refine",
    /// B1 firings: location neighbours pushed to the back of the queue.
    ReprioritizeB1 => "reprioritize_b1",
    /// B2 firings: the next perturbation pushed to the back of the queue.
    ReprioritizeB2 => "reprioritize_b2",
    /// Full-image oracle queries (`Oracle::query_into`).
    OracleQueryFull => "oracle_query_full",
    /// Single-pixel-delta oracle queries
    /// (`Oracle::query_pixel_delta_into`).
    OracleQueryPixelDelta => "oracle_query_pixel_delta",
    /// Pixel-delta queries served from already-cached base activations.
    DeltaCacheHit => "delta_cache_hit",
    /// Pixel-delta queries that recaptured the cache for a new base image.
    DeltaCacheRebase => "delta_cache_rebase",
    /// Pixel-delta queries that populated a cold (empty) cache.
    DeltaCacheCold => "delta_cache_cold",
    /// Incremental forward passes executed by the delta engine.
    DeltaQueries => "delta_queries",
    /// Dirty regions promoted to a full-buffer recompute because the
    /// rectangle covered the whole spatial extent (excludes the
    /// unconditional GAP/Linear fallback).
    DeltaFullPromotions => "delta_full_promotions",
    /// Weight-cache files loaded successfully.
    WeightCacheHit => "weight_cache_hit",
    /// Weight-cache files absent (a plain miss; the model is trained).
    WeightCacheMiss => "weight_cache_miss",
    /// Weight-cache files present but unusable (truncated/corrupt); the
    /// model is retrained and the cache rewritten.
    WeightCacheCorrupt => "weight_cache_corrupt",
    /// Candidate programs scored by the synthesizer.
    SynthPrograms => "synth_programs",
    /// Metropolis–Hastings proposals accepted.
    SynthAccepted => "synth_accepted",
    /// Speculative candidate batches evaluated ahead of consumption by a
    /// prefetching oracle (one per batched classifier call).
    BatchPrefetch => "batch_prefetch",
    /// Candidates evaluated inside those batches. Mean batch size is
    /// `batch_prefetched / batch_prefetch`.
    BatchPrefetched => "batch_prefetched",
    /// Prefetched candidates actually consumed by a later sequential
    /// query (served from the batch). Batch occupancy — the fraction of
    /// speculative work that paid off — is `batch_hit / batch_prefetched`.
    BatchHit => "batch_hit",
    /// Sequential queries that found no matching candidate in the
    /// oracle's speculation pool (the caller diverged from its
    /// speculation); the query runs sequentially and the pool is kept
    /// for later hits.
    BatchMiss => "batch_miss",
    /// Speculation pools dropped before being fully consumed — a run
    /// began, the caller replaced stale speculation, or a query or
    /// prefetch arrived against a different base image — counted per
    /// drop.
    BatchFlush => "batch_flush",
}

/// Declares [`OpKind`] with stable wire names.
macro_rules! op_kinds {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// The kind of a compiled forward-pass op, for per-layer timing.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum OpKind {
            $($(#[$doc])* $variant,)*
        }

        impl OpKind {
            /// Number of op kinds.
            pub const COUNT: usize = [$($name),*].len();

            /// Every op kind, in declaration (and wire) order.
            pub const ALL: [OpKind; OpKind::COUNT] = [$(OpKind::$variant),*];

            /// The stable name used in JSONL events and summaries.
            pub fn name(self) -> &'static str {
                match self {
                    $(OpKind::$variant => $name,)*
                }
            }
        }
    };
}

op_kinds! {
    /// 2-D convolution (the channel-lane region kernel).
    Conv => "conv2d",
    /// Fully connected layer.
    Linear => "linear",
    /// Elementwise ReLU.
    Relu => "relu",
    /// Max pooling.
    MaxPool => "max_pool",
    /// Global average pooling.
    Gap => "global_avg_pool",
    /// Residual addition.
    Add => "add",
    /// Concatenation segment copy.
    CopySeg => "copy_seg",
}

/// Number of buckets in the per-image query histogram: bucket 0 counts
/// zero-query images, bucket `b ≥ 1` counts images with `2^(b−1) ≤ q <
/// 2^b` queries, and the last bucket absorbs everything above.
pub const QUERY_HIST_BUCKETS: usize = 22;

/// The histogram bucket for a per-image query count.
pub fn query_hist_bucket(queries: u64) -> usize {
    ((64 - queries.leading_zeros()) as usize).min(QUERY_HIST_BUCKETS - 1)
}

/// The inclusive-exclusive bounds `[lo, hi)` of a histogram bucket (the
/// last bucket's `hi` is `u64::MAX`).
pub fn query_hist_bounds(bucket: usize) -> (u64, u64) {
    assert!(bucket < QUERY_HIST_BUCKETS, "bucket out of range");
    match bucket {
        0 => (0, 1),
        b if b == QUERY_HIST_BUCKETS - 1 => (1 << (b - 1), u64::MAX),
        b => (1 << (b - 1), 1 << b),
    }
}

/// Whether this build records telemetry (`telemetry` cargo feature).
pub const fn enabled() -> bool {
    cfg!(feature = "telemetry")
}

#[cfg(feature = "telemetry")]
mod recorder {
    use super::{Counter, OpKind, Snapshot, QUERY_HIST_BUCKETS};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    /// Global totals, merged from per-thread recorders.
    struct Globals {
        counters: [AtomicU64; Counter::COUNT],
        op_ns: [AtomicU64; OpKind::COUNT],
        op_calls: [AtomicU64; OpKind::COUNT],
        hist: [AtomicU64; QUERY_HIST_BUCKETS],
    }

    static GLOBALS: Globals = Globals {
        counters: [const { AtomicU64::new(0) }; Counter::COUNT],
        op_ns: [const { AtomicU64::new(0) }; OpKind::COUNT],
        op_calls: [const { AtomicU64::new(0) }; OpKind::COUNT],
        hist: [const { AtomicU64::new(0) }; QUERY_HIST_BUCKETS],
    };

    /// Per-thread counter cells: plain (non-atomic) increments on the hot
    /// path, merged into [`GLOBALS`] on thread exit or explicit flush.
    struct TlsRecorder {
        counters: [Cell<u64>; Counter::COUNT],
        op_ns: [Cell<u64>; OpKind::COUNT],
        op_calls: [Cell<u64>; OpKind::COUNT],
        hist: [Cell<u64>; QUERY_HIST_BUCKETS],
    }

    impl TlsRecorder {
        fn flush_to_globals(&self) {
            fn drain<const N: usize>(cells: &[Cell<u64>; N], totals: &[AtomicU64; N]) {
                for (cell, total) in cells.iter().zip(totals) {
                    let v = cell.replace(0);
                    if v != 0 {
                        total.fetch_add(v, Relaxed);
                    }
                }
            }
            drain(&self.counters, &GLOBALS.counters);
            drain(&self.op_ns, &GLOBALS.op_ns);
            drain(&self.op_calls, &GLOBALS.op_calls);
            drain(&self.hist, &GLOBALS.hist);
        }
    }

    impl Drop for TlsRecorder {
        fn drop(&mut self) {
            // Thread exit: merge this thread's residue. Runs before a
            // scoped-thread join returns, so parents observe full totals.
            self.flush_to_globals();
        }
    }

    thread_local! {
        static TLS: TlsRecorder = const {
            TlsRecorder {
                counters: [const { Cell::new(0) }; Counter::COUNT],
                op_ns: [const { Cell::new(0) }; OpKind::COUNT],
                op_calls: [const { Cell::new(0) }; OpKind::COUNT],
                hist: [const { Cell::new(0) }; QUERY_HIST_BUCKETS],
            }
        };
    }

    #[inline]
    pub(super) fn count_n(c: Counter, n: u64) {
        TLS.with(|t| {
            let cell = &t.counters[c as usize];
            cell.set(cell.get() + n);
        });
    }

    #[inline]
    pub(super) fn record_op(kind: OpKind, ns: u64) {
        TLS.with(|t| {
            let sum = &t.op_ns[kind as usize];
            sum.set(sum.get() + ns);
            let calls = &t.op_calls[kind as usize];
            calls.set(calls.get() + 1);
        });
    }

    #[inline]
    pub(super) fn observe_hist(bucket: usize) {
        TLS.with(|t| {
            let cell = &t.hist[bucket];
            cell.set(cell.get() + 1);
        });
    }

    pub(super) fn flush() {
        TLS.with(|t| t.flush_to_globals());
    }

    pub(super) fn snapshot() -> Snapshot {
        flush();
        fn read<const N: usize>(totals: &[AtomicU64; N]) -> [u64; N] {
            let mut out = [0u64; N];
            for (o, t) in out.iter_mut().zip(totals) {
                *o = t.load(Relaxed);
            }
            out
        }
        Snapshot {
            counters: read(&GLOBALS.counters),
            op_ns: read(&GLOBALS.op_ns),
            op_calls: read(&GLOBALS.op_calls),
            query_hist: read(&GLOBALS.hist),
        }
    }

    pub(super) fn reset() {
        TLS.with(|t| {
            for c in &t.counters {
                c.set(0);
            }
            for c in &t.op_ns {
                c.set(0);
            }
            for c in &t.op_calls {
                c.set(0);
            }
            for c in &t.hist {
                c.set(0);
            }
        });
        for t in &GLOBALS.counters {
            t.store(0, Relaxed);
        }
        for t in &GLOBALS.op_ns {
            t.store(0, Relaxed);
        }
        for t in &GLOBALS.op_calls {
            t.store(0, Relaxed);
        }
        for t in &GLOBALS.hist {
            t.store(0, Relaxed);
        }
    }
}

/// Increments `c` by one.
#[inline(always)]
pub fn count(c: Counter) {
    count_n(c, 1);
}

/// Increments `c` by `n`.
#[inline(always)]
pub fn count_n(c: Counter, n: u64) {
    #[cfg(feature = "telemetry")]
    recorder::count_n(c, n);
    #[cfg(not(feature = "telemetry"))]
    let _ = (c, n);
}

/// Records one finished attack run's per-image query count into the
/// distribution histogram.
#[inline(always)]
pub fn observe_image_queries(queries: u64) {
    #[cfg(feature = "telemetry")]
    recorder::observe_hist(query_hist_bucket(queries));
    #[cfg(not(feature = "telemetry"))]
    let _ = queries;
}

/// A timing guard for one forward-pass op: records elapsed nanoseconds
/// (and one call) against its [`OpKind`] when dropped. With telemetry off
/// it is a zero-sized no-op — no clock is read.
#[must_use = "the timer records on drop; bind it for the op's duration"]
pub struct OpTimer {
    #[cfg(feature = "telemetry")]
    kind: OpKind,
    #[cfg(feature = "telemetry")]
    start: std::time::Instant,
}

/// Starts an [`OpTimer`] for `kind`.
#[inline(always)]
pub fn op_timer(kind: OpKind) -> OpTimer {
    #[cfg(not(feature = "telemetry"))]
    let _ = kind;
    OpTimer {
        #[cfg(feature = "telemetry")]
        kind,
        #[cfg(feature = "telemetry")]
        start: std::time::Instant::now(),
    }
}

impl Drop for OpTimer {
    #[inline(always)]
    fn drop(&mut self) {
        #[cfg(feature = "telemetry")]
        recorder::record_op(self.kind, self.start.elapsed().as_nanos() as u64);
    }
}

/// Merges the calling thread's buffered counts into the global totals.
/// Worker threads flush automatically on exit; call this on long-lived
/// threads before reading a [`snapshot`] elsewhere.
pub fn flush() {
    #[cfg(feature = "telemetry")]
    recorder::flush();
}

/// Flushes the calling thread and returns the current global totals.
/// All-zero when telemetry is off.
pub fn snapshot() -> Snapshot {
    #[cfg(feature = "telemetry")]
    return recorder::snapshot();
    #[cfg(not(feature = "telemetry"))]
    Snapshot::zero()
}

/// Zeroes the calling thread's buffers and the global totals. Meant for
/// single-threaded harnesses; concurrent recorders on other threads are
/// not reset. Prefer [`Snapshot::since`] deltas where possible.
pub fn reset() {
    #[cfg(feature = "telemetry")]
    recorder::reset();
}

/// A point-in-time copy of every telemetry total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter totals, indexed by `Counter as usize`.
    pub counters: [u64; Counter::COUNT],
    /// Summed nanoseconds per op kind (wall-clock; nondeterministic).
    pub op_ns: [u64; OpKind::COUNT],
    /// Op executions per kind.
    pub op_calls: [u64; OpKind::COUNT],
    /// Per-image query distribution (see [`query_hist_bucket`]).
    pub query_hist: [u64; QUERY_HIST_BUCKETS],
}

impl Snapshot {
    /// The all-zero snapshot.
    pub fn zero() -> Self {
        Snapshot {
            counters: [0; Counter::COUNT],
            op_ns: [0; OpKind::COUNT],
            op_calls: [0; OpKind::COUNT],
            query_hist: [0; QUERY_HIST_BUCKETS],
        }
    }

    /// The total of one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// The difference `self − earlier` (saturating), for per-section
    /// deltas around a unit of work.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Snapshot::zero();
        for (o, (a, b)) in out
            .counters
            .iter_mut()
            .zip(self.counters.iter().zip(&earlier.counters))
        {
            *o = a.saturating_sub(*b);
        }
        for (o, (a, b)) in out
            .op_ns
            .iter_mut()
            .zip(self.op_ns.iter().zip(&earlier.op_ns))
        {
            *o = a.saturating_sub(*b);
        }
        for (o, (a, b)) in out
            .op_calls
            .iter_mut()
            .zip(self.op_calls.iter().zip(&earlier.op_calls))
        {
            *o = a.saturating_sub(*b);
        }
        for (o, (a, b)) in out
            .query_hist
            .iter_mut()
            .zip(self.query_hist.iter().zip(&earlier.query_hist))
        {
            *o = a.saturating_sub(*b);
        }
        out
    }

    /// Sum of the per-phase attack query counters (baseline + init scan +
    /// refine).
    pub fn phase_queries(&self) -> u64 {
        self.get(Counter::QueryBaseline)
            + self.get(Counter::QueryInitScan)
            + self.get(Counter::QueryRefine)
    }

    /// Fraction of pixel-delta queries served from an already-cached base,
    /// or `None` when no pixel-delta query ran.
    pub fn delta_cache_hit_rate(&self) -> Option<f64> {
        let hit = self.get(Counter::DeltaCacheHit);
        let total = hit + self.get(Counter::DeltaCacheRebase) + self.get(Counter::DeltaCacheCold);
        (total > 0).then(|| hit as f64 / total as f64)
    }

    /// Number of images observed by the query histogram.
    pub fn images_observed(&self) -> u64 {
        self.query_hist.iter().sum()
    }

    /// True when nothing was recorded (e.g. telemetry is off).
    pub fn is_zero(&self) -> bool {
        *self == Snapshot::zero()
    }

    /// A deterministic multi-line human summary of the counters and the
    /// query histogram. Op timings are appended only when present (they
    /// are wall-clock and vary run to run — keep this off stdout).
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "telemetry (enabled: {})", enabled());
        for c in Counter::ALL {
            if self.get(c) != 0 {
                let _ = writeln!(s, "  {:<24} {}", c.name(), self.get(c));
            }
        }
        if let Some(rate) = self.delta_cache_hit_rate() {
            let _ = writeln!(s, "  {:<24} {:.4}", "delta_cache_hit_rate", rate);
        }
        if self.images_observed() > 0 {
            let _ = writeln!(s, "  per-image query histogram:");
            for (b, &n) in self.query_hist.iter().enumerate() {
                if n != 0 {
                    let (lo, hi) = query_hist_bounds(b);
                    if hi == u64::MAX {
                        let _ = writeln!(s, "    [{lo}, inf)  {n}");
                    } else {
                        let _ = writeln!(s, "    [{lo}, {hi})  {n}");
                    }
                }
            }
        }
        for (kind, (&ns, &calls)) in OpKind::ALL
            .iter()
            .zip(self.op_ns.iter().zip(&self.op_calls))
        {
            if calls != 0 {
                let _ = writeln!(
                    s,
                    "  op {:<17} {} calls, {} ns total, {:.0} ns/call",
                    kind.name(),
                    calls,
                    ns,
                    ns as f64 / calls as f64
                );
            }
        }
        s
    }
}

/// A value attached to a [`MetricsSink`] event field.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Floating point (serialized with full precision).
    F64(f64),
    /// String (JSON-escaped on emission).
    Str(String),
    /// Boolean.
    Bool(bool),
}

/// A receiver of telemetry events.
pub trait MetricsSink {
    /// Emits one event with its fields.
    fn emit(&mut self, event: &str, fields: &[(&str, FieldValue)]);
}

/// A sink that drops every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl MetricsSink for NoopSink {
    fn emit(&mut self, _event: &str, _fields: &[(&str, FieldValue)]) {}
}

/// A sink appending one JSON object per event to a writer (the experiment
/// binaries' `--telemetry out.jsonl`).
///
/// Event I/O failures never abort a run: failed writes are counted (see
/// [`JsonlSink::dropped_writes`]). The *first* failure warns on stderr
/// immediately — a long-lived daemon sink may never be consumed or
/// dropped, so deferring the only warning to that point would silently
/// discard events for the life of the process. A final summary with the
/// total count is printed once when the sink is consumed or dropped.
pub struct JsonlSink<W: Write = BufWriter<File>> {
    out: Option<W>,
    dropped: u64,
    /// First-drop stderr warning already printed.
    warned: bool,
    /// Final drop-count summary already printed (consume and drop must
    /// not both report).
    summarized: bool,
}

impl JsonlSink {
    /// Creates (truncating) the JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(JsonlSink::from_writer(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer (for tests).
    pub fn from_writer(out: W) -> Self {
        JsonlSink {
            out: Some(out),
            dropped: 0,
            warned: false,
            summarized: false,
        }
    }

    /// Events whose write (or flush) failed and were therefore dropped
    /// from the output.
    pub fn dropped_writes(&self) -> u64 {
        self.dropped
    }

    /// Counts a dropped event; the first drop warns on stderr right away
    /// so a daemon operator learns about a failing sink while it is
    /// failing, not at process exit.
    fn note_drop(&mut self) {
        self.dropped += 1;
        if !self.warned {
            self.warned = true;
            eprintln!(
                "warning: telemetry sink failed to write an event; \
                 further failures will be counted and summarized"
            );
        }
    }

    /// Prints the final dropped-event summary on stderr, at most once per
    /// sink. The count itself stays observable via
    /// [`JsonlSink::dropped_writes`].
    fn warn_if_dropped(&mut self) {
        if self.dropped > 0 && !self.summarized {
            self.summarized = true;
            eprintln!(
                "warning: telemetry sink dropped {} event write(s) due to I/O errors",
                self.dropped
            );
        }
    }

    /// The wrapped writer, flushing buffered events. Infallible: a flush
    /// failure is reported like a dropped event (use
    /// [`JsonlSink::try_into_inner`] to observe it).
    pub fn into_inner(mut self) -> W {
        if self
            .out
            .as_mut()
            .expect("writer present until consumed")
            .flush()
            .is_err()
        {
            self.note_drop();
        }
        self.warn_if_dropped();
        self.out.take().expect("writer present until consumed")
    }

    /// The wrapped writer, propagating the final flush error instead of
    /// swallowing it (the writer is lost on failure).
    ///
    /// # Errors
    ///
    /// Returns the flush error.
    pub fn try_into_inner(mut self) -> io::Result<W> {
        let result = self
            .out
            .as_mut()
            .expect("writer present until consumed")
            .flush();
        match result {
            Ok(()) => {
                self.warn_if_dropped();
                Ok(self.out.take().expect("writer present until consumed"))
            }
            Err(e) => {
                self.note_drop();
                self.warn_if_dropped();
                Err(e)
            }
        }
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        if self.out.as_mut().is_some_and(|out| out.flush().is_err()) {
            self.note_drop();
        }
        self.warn_if_dropped();
    }
}

fn push_json_str(buf: &mut String, s: &str) {
    buf.push('"');
    for ch in s.chars() {
        match ch {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

impl<W: Write> MetricsSink for JsonlSink<W> {
    fn emit(&mut self, event: &str, fields: &[(&str, FieldValue)]) {
        let mut line = String::from("{\"event\":");
        push_json_str(&mut line, event);
        for (key, value) in fields {
            line.push(',');
            push_json_str(&mut line, key);
            line.push(':');
            match value {
                FieldValue::U64(v) => {
                    let _ = write!(line, "{v}");
                }
                FieldValue::F64(v) if v.is_finite() => {
                    let _ = write!(line, "{v}");
                }
                FieldValue::F64(_) => line.push_str("null"),
                FieldValue::Str(s) => push_json_str(&mut line, s),
                FieldValue::Bool(b) => {
                    let _ = write!(line, "{b}");
                }
            }
        }
        line.push_str("}\n");
        // Sink I/O failures must never abort an experiment run; they are
        // counted and surfaced once when the sink is consumed or dropped.
        let out = self.out.as_mut().expect("writer present until consumed");
        if out
            .write_all(line.as_bytes())
            .and_then(|()| out.flush())
            .is_err()
        {
            self.note_drop();
        }
    }
}

/// Emits `snap` as one event: `labels` first, then `telemetry_enabled`,
/// every non-zero counter by name, the delta-cache hit rate, non-empty
/// histogram buckets (`qhist_<lo>`), and per-op timing sums.
pub fn emit_snapshot(
    sink: &mut dyn MetricsSink,
    event: &str,
    labels: &[(&str, FieldValue)],
    snap: &Snapshot,
) {
    let mut fields: Vec<(&str, FieldValue)> = labels.to_vec();
    fields.push(("telemetry_enabled", FieldValue::Bool(enabled())));
    for c in Counter::ALL {
        if snap.get(c) != 0 {
            fields.push((c.name(), FieldValue::U64(snap.get(c))));
        }
    }
    if let Some(rate) = snap.delta_cache_hit_rate() {
        fields.push(("delta_cache_hit_rate", FieldValue::F64(rate)));
    }
    let hist_names: [&str; QUERY_HIST_BUCKETS] = [
        "qhist_0",
        "qhist_1",
        "qhist_2",
        "qhist_4",
        "qhist_8",
        "qhist_16",
        "qhist_32",
        "qhist_64",
        "qhist_128",
        "qhist_256",
        "qhist_512",
        "qhist_1024",
        "qhist_2048",
        "qhist_4096",
        "qhist_8192",
        "qhist_16384",
        "qhist_32768",
        "qhist_65536",
        "qhist_131072",
        "qhist_262144",
        "qhist_524288",
        "qhist_1048576",
    ];
    for (name, &n) in hist_names.iter().zip(&snap.query_hist) {
        if n != 0 {
            fields.push((name, FieldValue::U64(n)));
        }
    }
    let op_ns_names: [&str; OpKind::COUNT] = [
        "op_ns_conv2d",
        "op_ns_linear",
        "op_ns_relu",
        "op_ns_max_pool",
        "op_ns_global_avg_pool",
        "op_ns_add",
        "op_ns_copy_seg",
    ];
    let op_call_names: [&str; OpKind::COUNT] = [
        "op_calls_conv2d",
        "op_calls_linear",
        "op_calls_relu",
        "op_calls_max_pool",
        "op_calls_global_avg_pool",
        "op_calls_add",
        "op_calls_copy_seg",
    ];
    for kind in OpKind::ALL {
        let i = kind as usize;
        if snap.op_calls[i] != 0 {
            fields.push((op_call_names[i], FieldValue::U64(snap.op_calls[i])));
            fields.push((op_ns_names[i], FieldValue::U64(snap.op_ns[i])));
        }
    }
    sink.emit(event, &fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_partition_the_counts() {
        assert_eq!(query_hist_bucket(0), 0);
        assert_eq!(query_hist_bucket(1), 1);
        assert_eq!(query_hist_bucket(2), 2);
        assert_eq!(query_hist_bucket(3), 2);
        assert_eq!(query_hist_bucket(4), 3);
        assert_eq!(query_hist_bucket(1023), 10);
        assert_eq!(query_hist_bucket(1024), 11);
        assert_eq!(query_hist_bucket(u64::MAX), QUERY_HIST_BUCKETS - 1);
        for b in 0..QUERY_HIST_BUCKETS {
            let (lo, hi) = query_hist_bounds(b);
            assert_eq!(query_hist_bucket(lo), b, "lower bound of bucket {b}");
            if hi != u64::MAX {
                assert_eq!(query_hist_bucket(hi - 1), b, "upper bound of bucket {b}");
            }
        }
    }

    #[test]
    fn hist_bounds_cover_zero_boundaries_and_max() {
        assert_eq!(query_hist_bounds(0), (0, 1));
        assert_eq!(query_hist_bounds(1), (1, 2));
        assert_eq!(query_hist_bounds(2), (2, 4));
        let (lo, hi) = query_hist_bounds(QUERY_HIST_BUCKETS - 1);
        assert_eq!(lo, 1 << (QUERY_HIST_BUCKETS - 2));
        assert_eq!(hi, u64::MAX, "last bucket absorbs everything above");
        assert_eq!(query_hist_bucket(u64::MAX), QUERY_HIST_BUCKETS - 1);
        // Adjacent buckets tile the counts with no gaps or overlaps.
        for b in 1..QUERY_HIST_BUCKETS - 1 {
            assert_eq!(query_hist_bounds(b).0, query_hist_bounds(b - 1).1);
        }
    }

    #[test]
    #[should_panic(expected = "bucket out of range")]
    fn hist_bounds_reject_out_of_range_buckets() {
        let _ = query_hist_bounds(QUERY_HIST_BUCKETS);
    }

    #[test]
    fn snapshot_since_is_a_saturating_delta() {
        let mut later = Snapshot::zero();
        let mut earlier = Snapshot::zero();
        later.counters[Counter::QueryRefine as usize] = 10;
        earlier.counters[Counter::QueryRefine as usize] = 4;
        earlier.counters[Counter::QueryBaseline as usize] = 9; // later has 0
        let d = later.since(&earlier);
        assert_eq!(d.get(Counter::QueryRefine), 6);
        assert_eq!(d.get(Counter::QueryBaseline), 0, "saturates, never wraps");
    }

    #[test]
    fn jsonl_sink_writes_one_escaped_object_per_event() {
        let mut sink = JsonlSink::from_writer(Vec::new());
        sink.emit(
            "unit \"test\"",
            &[
                ("n", FieldValue::U64(3)),
                ("rate", FieldValue::F64(0.5)),
                ("nan", FieldValue::F64(f64::NAN)),
                ("who", FieldValue::Str("a\nb".into())),
                ("on", FieldValue::Bool(true)),
            ],
        );
        sink.emit("second", &[]);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"event\":\"unit \\\"test\\\"\",\"n\":3,\"rate\":0.5,\"nan\":null,\"who\":\"a\\nb\",\"on\":true}"
        );
        assert_eq!(lines[1], "{\"event\":\"second\"}");
    }

    #[test]
    fn emit_snapshot_field_values_round_trip_through_json() {
        // Hostile label values (quotes, backslashes, control characters,
        // non-ASCII) must survive a parse of the emitted line.
        let nasty = "a\"b\\c\nd\re\tf\u{1}g é";
        let mut snap = Snapshot::zero();
        snap.counters[Counter::QueryRefine as usize] = 123;
        let mut sink = JsonlSink::from_writer(Vec::new());
        emit_snapshot(
            &mut sink,
            "escape \"test\"",
            &[
                ("label", FieldValue::Str(nasty.into())),
                ("rate", FieldValue::F64(0.125)),
            ],
            &snap,
        );
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let fields = trace::parse_flat_json(text.trim_end()).unwrap();
        let get = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing {key} in {text}"))
        };
        assert_eq!(
            get("event"),
            trace::JsonScalar::Str("escape \"test\"".into())
        );
        assert_eq!(get("label"), trace::JsonScalar::Str(nasty.into()));
        assert_eq!(get("rate"), trace::JsonScalar::Num("0.125".into()));
        assert_eq!(get("query_refine"), trace::JsonScalar::Num("123".into()));
    }

    /// A writer whose writes fail after the first `ok_writes` calls.
    struct FlakyWriter {
        ok_writes: usize,
        flush_fails: bool,
    }

    impl Write for FlakyWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.ok_writes == 0 {
                return Err(io::Error::other("disk full"));
            }
            self.ok_writes -= 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            if self.flush_fails {
                Err(io::Error::other("flush failed"))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn jsonl_sink_counts_dropped_writes() {
        let mut sink = JsonlSink::from_writer(FlakyWriter {
            ok_writes: 1,
            flush_fails: false,
        });
        sink.emit("first", &[]);
        assert_eq!(sink.dropped_writes(), 0);
        sink.emit("second", &[]);
        sink.emit("third", &[]);
        assert_eq!(sink.dropped_writes(), 2, "failed writes are counted");
        let _ = sink.into_inner();
    }

    #[test]
    fn jsonl_sink_drop_count_survives_the_summary() {
        // Regression: the drop-time summary must report the accumulated
        // count without discarding it — `dropped_writes` stays accurate
        // after a consume, and a flush failure at drop is still counted.
        let mut sink = JsonlSink::from_writer(FlakyWriter {
            ok_writes: 0,
            flush_fails: false,
        });
        sink.emit("lost", &[]);
        sink.emit("also lost", &[]);
        assert_eq!(sink.dropped_writes(), 2);
        // try_into_inner flushes OK here; the count must not be reset by
        // the summary it prints.
        let sink2 = JsonlSink::from_writer(FlakyWriter {
            ok_writes: 0,
            flush_fails: true,
        });
        // Dropping a sink whose final flush fails must not panic; the
        // failure joins the count reported by the drop-time summary.
        drop(sink2);
        drop(sink);
    }

    #[test]
    fn jsonl_sink_try_into_inner_propagates_flush_errors() {
        let sink = JsonlSink::from_writer(FlakyWriter {
            ok_writes: usize::MAX,
            flush_fails: true,
        });
        assert!(sink.try_into_inner().is_err());

        let sink = JsonlSink::from_writer(Vec::new());
        assert!(sink.try_into_inner().is_ok(), "healthy writer is returned");
    }

    #[test]
    fn emit_snapshot_lists_only_nonzero_counters() {
        let mut snap = Snapshot::zero();
        snap.counters[Counter::DeltaCacheHit as usize] = 3;
        snap.counters[Counter::DeltaCacheCold as usize] = 1;
        snap.query_hist[1] = 2;
        let mut sink = JsonlSink::from_writer(Vec::new());
        emit_snapshot(
            &mut sink,
            "eval",
            &[("attack", FieldValue::Str("oppsla".into()))],
            &snap,
        );
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.contains("\"attack\":\"oppsla\""), "{text}");
        assert!(text.contains("\"delta_cache_hit\":3"), "{text}");
        assert!(text.contains("\"delta_cache_hit_rate\":0.75"), "{text}");
        assert!(text.contains("\"qhist_1\":2"), "{text}");
        assert!(!text.contains("query_baseline"), "{text}");
    }

    #[test]
    fn summary_is_deterministic_for_a_fixed_snapshot() {
        let mut snap = Snapshot::zero();
        snap.counters[Counter::QueryBaseline as usize] = 2;
        snap.query_hist[3] = 1;
        assert_eq!(snap.summary(), snap.summary());
        assert!(snap.summary().contains("query_baseline"));
        assert!(snap.summary().contains("[4, 8)  1"));
    }

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn disabled_build_records_nothing() {
        count(Counter::QueryBaseline);
        count_n(Counter::QueryRefine, 10);
        observe_image_queries(7);
        let _t = op_timer(OpKind::Conv);
        drop(_t);
        flush();
        assert!(snapshot().is_zero());
        assert!(!enabled());
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn enabled_build_counts_and_flushes() {
        // Other tests in this process may record concurrently; assert on
        // deltas of counters this test owns exclusively.
        let before = snapshot();
        count(Counter::WeightCacheCorrupt);
        count_n(Counter::WeightCacheCorrupt, 4);
        observe_image_queries(9); // bucket 4: [8, 16)
        {
            let _t = op_timer(OpKind::CopySeg);
        }
        let delta = snapshot().since(&before);
        assert_eq!(delta.get(Counter::WeightCacheCorrupt), 5);
        assert_eq!(delta.query_hist[4], 1);
        assert_eq!(delta.op_calls[OpKind::CopySeg as usize], 1);
        assert!(enabled());
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn worker_threads_merge_on_join() {
        // Native join waits for full thread termination, TLS destructors
        // included. (`thread::scope` offers no such guarantee — its
        // completion signal fires when the closure returns, possibly
        // before destructors — which is why `parallel_map_with` workers
        // flush explicitly instead of relying on the Drop merge.)
        let before = snapshot();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..100 {
                        count(Counter::SynthAccepted);
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
        let delta = snapshot().since(&before);
        assert_eq!(delta.get(Counter::SynthAccepted), 400);
    }
}
