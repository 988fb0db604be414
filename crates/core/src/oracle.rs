//! The black-box classifier interface and query accounting.
//!
//! The attack setting is strictly black-box: the attacker can only submit
//! images and observe score vectors. Every attack and the synthesizer go
//! through an [`Oracle`], which counts queries and enforces an optional
//! budget — the paper's central cost metric.

use crate::image::Image;
use crate::pair::{Location, Pixel};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::BuildHasherDefault;

/// A black-box image classifier: maps an image to one score per class.
///
/// The attack only ever observes score vectors — no gradients, no
/// weights, matching the paper's threat model.
pub trait Classifier {
    /// The number of classes `c`.
    fn num_classes(&self) -> usize;

    /// The score vector `N(x)` (length [`Classifier::num_classes`]).
    fn scores(&self, image: &Image) -> Vec<f32>;

    /// Writes `N(x)` into `out` (cleared first). The default delegates to
    /// [`Classifier::scores`]; allocation-free backends override this so
    /// the query hot path can reuse one buffer across millions of calls.
    fn scores_into(&self, image: &Image, out: &mut Vec<f32>) {
        out.clear();
        out.extend_from_slice(&self.scores(image));
    }

    /// The classifier's decision: `argmax(N(x))`.
    fn classify(&self, image: &Image) -> usize {
        let scores = self.scores(image);
        argmax(&scores)
    }

    /// Writes `N(x')` into `out` (cleared first), where `x'` is `base`
    /// with the pixel at `location` replaced by `pixel` — the shape of
    /// every candidate query in the one-pixel attack sketch.
    ///
    /// The default clones the base and delegates to
    /// [`Classifier::scores_into`]; incremental backends override this to
    /// reuse cached base activations and recompute only the perturbed
    /// receptive-field cone. Overrides must return bit-identical scores
    /// to the default.
    fn scores_pixel_delta_into(
        &self,
        base: &Image,
        location: Location,
        pixel: Pixel,
        out: &mut Vec<f32>,
    ) {
        let perturbed = base.with_pixel(location, pixel);
        self.scores_into(&perturbed, out);
    }

    /// Writes `N(x)` for every image, appending each score vector to
    /// `out` (cleared first) in image order. The default loops over
    /// [`Classifier::scores_into`], which is how every backend in this
    /// workspace serves it; decorators override it only to forward the
    /// call. Overrides must return bit-identical scores, per image, to the
    /// sequential default.
    fn scores_batch_into(&self, images: &[Image], out: &mut Vec<f32>) {
        out.clear();
        let mut buf = Vec::new();
        for image in images {
            self.scores_into(image, &mut buf);
            out.extend_from_slice(&buf);
        }
    }

    /// Writes `N(x')` for every one-pixel candidate against the same
    /// `base`, appending each score vector to `out` (cleared first) in
    /// candidate order. The default loops over
    /// [`Classifier::scores_pixel_delta_into`]; incremental backends
    /// override this to share one cached base across the batch and run
    /// the delta steps layer-major. Overrides must return bit-identical
    /// scores, per candidate, to the sequential default.
    fn scores_pixel_delta_batch_into(
        &self,
        base: &Image,
        candidates: &[(Location, Pixel)],
        out: &mut Vec<f32>,
    ) {
        out.clear();
        let mut buf = Vec::new();
        for &(location, pixel) in candidates {
            self.scores_pixel_delta_into(base, location, pixel, &mut buf);
            out.extend_from_slice(&buf);
        }
    }
}

/// A classifier that can be queried from many threads at once.
///
/// `Sync` makes the shared state (weights, compiled plans) safe to
/// reference across threads; [`BatchClassifier::session`] hands each
/// worker its own cheap handle carrying any per-thread mutable state
/// (e.g. a forward workspace), so concurrent queries never contend.
pub trait BatchClassifier: Classifier + Sync {
    /// A per-thread query handle borrowing this classifier's shared state.
    fn session(&self) -> Box<dyn Classifier + '_>;
}

/// The trivial [`BatchClassifier::session`] handle for classifiers with no
/// per-thread state: forwards every call to the shared classifier.
pub struct SharedSession<'a>(pub &'a dyn Classifier);

impl Classifier for SharedSession<'_> {
    fn num_classes(&self) -> usize {
        self.0.num_classes()
    }

    fn scores(&self, image: &Image) -> Vec<f32> {
        self.0.scores(image)
    }

    fn scores_into(&self, image: &Image, out: &mut Vec<f32>) {
        self.0.scores_into(image, out);
    }

    fn scores_pixel_delta_into(
        &self,
        base: &Image,
        location: Location,
        pixel: Pixel,
        out: &mut Vec<f32>,
    ) {
        // Forward explicitly so a wrapped incremental backend keeps its
        // fast path (the default would re-derive via `scores_into`).
        self.0.scores_pixel_delta_into(base, location, pixel, out);
    }

    fn scores_pixel_delta_batch_into(
        &self,
        base: &Image,
        candidates: &[(Location, Pixel)],
        out: &mut Vec<f32>,
    ) {
        self.0.scores_pixel_delta_batch_into(base, candidates, out);
    }
}

/// Index of the maximum score (first on ties), under `f32`'s total order
/// so the result is well-defined even for non-finite inputs: a NaN
/// anywhere no longer silently selects class 0 (every plain `>` against
/// NaN is false), it sorts above +∞ and wins instead.
///
/// # Panics
///
/// Panics if `scores` is empty; debug builds additionally reject
/// non-finite scores, since a NaN reaching the decision rule means the
/// classifier itself is broken.
pub fn argmax(scores: &[f32]) -> usize {
    assert!(!scores.is_empty(), "argmax of empty score vector");
    debug_assert!(
        scores.iter().all(|v| v.is_finite()),
        "non-finite score in {scores:?}"
    );
    let mut best = 0;
    for (i, v) in scores.iter().enumerate().skip(1) {
        // `Greater` only (not `>=`) keeps the first index on exact ties.
        if v.total_cmp(&scores[best]) == std::cmp::Ordering::Greater {
            best = i;
        }
    }
    best
}

/// A classifier built from a closure, for tests and synthetic oracles.
///
/// # Examples
///
/// ```
/// use oppsla_core::image::Image;
/// use oppsla_core::oracle::{Classifier, FnClassifier};
/// use oppsla_core::pair::Pixel;
///
/// // "Bright" vs "dark" classifier.
/// let clf = FnClassifier::new(2, |img: &Image| {
///     let mean: f32 = img.data().iter().sum::<f32>() / img.data().len() as f32;
///     vec![mean, 1.0 - mean]
/// });
/// let bright = Image::filled(2, 2, Pixel([0.9, 0.9, 0.9]));
/// assert_eq!(clf.classify(&bright), 0);
/// ```
pub struct FnClassifier<F> {
    num_classes: usize,
    f: F,
}

impl<F: Fn(&Image) -> Vec<f32>> FnClassifier<F> {
    /// Wraps `f` as a classifier with `num_classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes < 2`.
    pub fn new(num_classes: usize, f: F) -> Self {
        assert!(num_classes >= 2, "a classifier needs at least two classes");
        FnClassifier { num_classes, f }
    }
}

impl<F: Fn(&Image) -> Vec<f32>> Classifier for FnClassifier<F> {
    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn scores(&self, image: &Image) -> Vec<f32> {
        let scores = (self.f)(image);
        // Hard assert: a wrong-length score vector would silently corrupt
        // argmax/margin decisions in release builds too.
        assert_eq!(scores.len(), self.num_classes, "score vector length");
        scores
    }
}

impl<F: Fn(&Image) -> Vec<f32> + Sync> BatchClassifier for FnClassifier<F> {
    fn session(&self) -> Box<dyn Classifier + '_> {
        // Closure classifiers are stateless per query; the shared handle
        // suffices.
        Box::new(SharedSession(self))
    }
}

impl<F> fmt::Debug for FnClassifier<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FnClassifier({} classes)", self.num_classes)
    }
}

/// One counted oracle query, recorded when the query log is enabled
/// (see [`Oracle::enable_query_log`]).
///
/// The entry captures exactly what the black-box interaction exposed:
/// which candidate was submitted (`pixel`, or `None` for a full-image
/// query), the resulting decision, and a hash over the exact score bit
/// patterns. Two query streams are byte-equivalent iff their logs are
/// equal — the comparison the serving equivalence tests run per
/// tenant, without retaining every score vector.
// No serde derive: nothing serializes a log entry. Wire protocols
// report a log as its hex digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryLogEntry {
    /// 1-based ordinal of this query in the oracle's counted stream
    /// (equal to [`Oracle::queries`] right after the query).
    pub seq: u64,
    /// The one-pixel candidate `(row, col, rgb bit patterns)`, or `None`
    /// for a full-image query. Pixels are stored as exact `f32` bit
    /// patterns so the log is `Eq` and collision-free on content.
    pub pixel: Option<(u16, u16, [u32; 3])>,
    /// `argmax` of the returned scores.
    pub pred: u32,
    /// FNV-1a 64 over the little-endian bit patterns of every score, in
    /// order. Bit-identical scores hash identically on every platform.
    pub score_hash: u64,
}

/// FNV-1a 64 over the exact bit patterns of `scores`.
fn hash_scores(scores: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in scores {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// FNV-1a 64 as a `HashMap` hasher for speculation pool keys and the
/// synthesizer's score tables: deterministic across processes (no
/// per-process seed), cheap on short keys. Keys are candidates the
/// program itself generates, never outside input.
#[derive(Default)]
pub(crate) struct FnvHasher(u64);

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }
}

/// Error returned when an [`Oracle`]'s query budget is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExhausted {
    /// The budget that was in force.
    pub budget: u64,
}

impl fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query budget of {} exhausted", self.budget)
    }
}

impl std::error::Error for BudgetExhausted {}

/// A one-pixel candidate as exact bit patterns: `(row, col, rgb)`, the
/// shape [`QueryLogEntry::pixel`] uses.
pub(crate) type CandidateKey = (u16, u16, [u32; 3]);

pub(crate) fn candidate_key(location: Location, pixel: Pixel) -> CandidateKey {
    (location.row, location.col, pixel.0.map(f32::to_bits))
}

/// Speculatively pre-evaluated one-pixel candidates against one base
/// image, waiting to be consumed (and only then counted) by
/// [`Oracle::query_pixel_delta_into`]. See
/// [`Oracle::prefetch_pixel_batch`] for the protocol.
#[derive(Default)]
struct SpecPool {
    /// Address of the base `Image` every pending candidate was evaluated
    /// against, stored as `usize` (never dereferenced) so the oracle stays
    /// `Send`. Meaningless while the pool is empty.
    base_addr: usize,
    /// Pending candidates, each with the slot holding its scores.
    pending: HashMap<CandidateKey, usize, BuildHasherDefault<FnvHasher>>,
    /// `num_classes` scores per slot.
    slots: Vec<f32>,
    /// Slots whose candidate was consumed, reused before `slots` grows, so
    /// the pool never holds more score blocks than candidates ever pending
    /// at once.
    free: Vec<usize>,
    /// Scratch for one prefetch: the fresh candidates with their slots, and
    /// the batch's scores in candidate order.
    fresh: Vec<(Location, Pixel)>,
    fresh_slots: Vec<usize>,
    batch_scores: Vec<f32>,
}

impl SpecPool {
    /// Drops every pending candidate, keeping the buffers.
    fn clear(&mut self) {
        self.pending.clear();
        self.slots.clear();
        self.free.clear();
    }

    /// Moves the scores of `key` into `out` (cleared first) and returns
    /// true when it is pending against the base at `base_addr`.
    fn take(
        &mut self,
        base_addr: usize,
        key: &CandidateKey,
        classes: usize,
        out: &mut Vec<f32>,
    ) -> bool {
        if self.base_addr != base_addr {
            return false;
        }
        let Some(slot) = self.pending.remove(key) else {
            return false;
        };
        out.clear();
        out.extend_from_slice(&self.slots[slot * classes..(slot + 1) * classes]);
        self.free.push(slot);
        true
    }
}

/// True when `OPPSLA_SEQUENTIAL` is set (to anything but `0`): disables
/// all speculative prefetching so every candidate runs the sequential
/// path — the A/B switch used to verify that batching changes neither
/// stdout nor query counts. Read once per process.
fn sequential_only() -> bool {
    static SEQ: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *SEQ.get_or_init(|| std::env::var_os("OPPSLA_SEQUENTIAL").is_some_and(|v| v != *"0"))
}

/// A query-counting, budget-enforcing wrapper around a [`Classifier`].
///
/// # Examples
///
/// ```
/// use oppsla_core::image::Image;
/// use oppsla_core::oracle::{FnClassifier, Oracle};
/// use oppsla_core::pair::Pixel;
///
/// let clf = FnClassifier::new(2, |_: &Image| vec![1.0, 0.0]);
/// let mut oracle = Oracle::with_budget(&clf, 1);
/// let img = Image::filled(2, 2, Pixel([0.0; 3]));
/// assert!(oracle.query(&img).is_ok());
/// assert!(oracle.query(&img).is_err()); // budget spent
/// assert_eq!(oracle.queries(), 1);
/// ```
pub struct Oracle<'a> {
    classifier: &'a dyn Classifier,
    queries: u64,
    budget: Option<u64>,
    /// Speculatively evaluated candidates awaiting consumption (see
    /// [`Oracle::prefetch_pixel_batch`]).
    pool: SpecPool,
    /// When false, [`Oracle::prefetch_pixel_batch`] is a no-op (see
    /// [`Oracle::without_speculation`]).
    speculate: bool,
    /// Per-query log, recorded at the counted consume sites when enabled
    /// (see [`Oracle::enable_query_log`]). `None` = disabled (free).
    log: Option<Vec<QueryLogEntry>>,
    /// Candidates scored since the last [`Oracle::begin_candidate_scope`]:
    /// the debug-build guard against accidental double queries that would
    /// silently inflate reported query counts. Filled only inside
    /// `debug_assert!`s, so it stays empty in release builds.
    scope: HashSet<CandidateKey>,
}

impl<'a> Oracle<'a> {
    /// Creates an unbounded oracle.
    pub fn new(classifier: &'a dyn Classifier) -> Self {
        Oracle {
            classifier,
            queries: 0,
            budget: None,
            pool: SpecPool::default(),
            speculate: true,
            log: None,
            scope: HashSet::new(),
        }
    }

    /// Creates an oracle that refuses queries beyond `budget`.
    pub fn with_budget(classifier: &'a dyn Classifier, budget: u64) -> Self {
        Oracle {
            classifier,
            queries: 0,
            budget: Some(budget),
            pool: SpecPool::default(),
            speculate: true,
            log: None,
            scope: HashSet::new(),
        }
    }

    /// Starts recording every counted query into an in-memory log,
    /// retrievable with [`Oracle::take_query_log`]. Each entry is recorded
    /// at *consume* time — where the query is counted — so the log is
    /// identical whether candidates are served sequentially, from a
    /// speculative prefetch, or through [`Oracle::query_batch`]: the
    /// byte-equivalence witness the serving tests compare per tenant.
    pub fn enable_query_log(&mut self) {
        if self.log.is_none() {
            self.log = Some(Vec::new());
        }
    }

    /// Takes the recorded query log, leaving an empty (still enabled) log
    /// behind. Empty if logging was never enabled.
    pub fn take_query_log(&mut self) -> Vec<QueryLogEntry> {
        match &mut self.log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Records one counted query when the log is enabled. `seq` is the
    /// query's 1-based ordinal ([`Oracle::queries`] after counting it).
    fn log_query(&mut self, seq: u64, pixel: Option<(Location, Pixel)>, scores: &[f32]) {
        if let Some(log) = &mut self.log {
            log.push(QueryLogEntry {
                seq,
                pixel: pixel.map(|(l, p)| candidate_key(l, p)),
                pred: argmax(scores) as u32,
                score_hash: hash_scores(scores),
            });
        }
    }

    /// Disables speculative prefetching for this oracle: every
    /// [`Oracle::prefetch_pixel_batch`] becomes a no-op, so each candidate
    /// is evaluated sequentially at consume time. The per-oracle
    /// equivalent of the process-wide `OPPSLA_SEQUENTIAL` switch — used by
    /// tests that pin the exact order of classifier submissions, which
    /// speculation is free to change (consumption order and query
    /// accounting never differ).
    pub fn without_speculation(mut self) -> Self {
        self.speculate = false;
        self
    }

    /// Opens a fresh duplicate-detection scope for pixel-delta candidates
    /// (one sketch run over one base image). In debug builds, scoring the
    /// same (location, pixel) candidate twice within a scope panics — the
    /// sketch's removal discipline guarantees each candidate is queried at
    /// most once. Release builds compile the check out.
    pub fn begin_candidate_scope(&mut self) {
        self.scope.clear();
    }

    /// Starts an attack run: drops all pending speculation and opens a
    /// fresh candidate scope ([`Oracle::begin_candidate_scope`]). Every
    /// prefetching attack calls this once before its first candidate.
    ///
    /// Pending speculation is keyed by the base image's *address*, so an
    /// oracle reused after its image was changed in place would otherwise
    /// serve the old image's scores to the next run.
    pub fn begin_run(&mut self) {
        self.drop_speculation();
        self.begin_candidate_scope();
    }

    /// Submits an image, counting one query.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExhausted`] when the budget has been spent; the
    /// failed attempt is *not* counted and the classifier is not invoked.
    pub fn query(&mut self, image: &Image) -> Result<Vec<f32>, BudgetExhausted> {
        let mut out = Vec::new();
        self.query_into(image, &mut out)?;
        Ok(out)
    }

    /// Submits an image, counting one query and writing the scores into
    /// `out` (cleared first). This is the attack loops' hot path: with an
    /// allocation-free classifier backend and a reused `out`, a query
    /// performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExhausted`] when the budget has been spent; the
    /// failed attempt is *not* counted, the classifier is not invoked, and
    /// `out` is left untouched.
    pub fn query_into(&mut self, image: &Image, out: &mut Vec<f32>) -> Result<(), BudgetExhausted> {
        if let Some(budget) = self.budget {
            if self.queries >= budget {
                return Err(BudgetExhausted { budget });
            }
        }
        self.queries += 1;
        crate::telemetry::count(crate::telemetry::Counter::OracleQueryFull);
        crate::telemetry::trace::tag_route(crate::telemetry::trace::RouteTag::Full);
        self.classifier.scores_into(image, out);
        self.log_query(self.queries, None, out);
        Ok(())
    }

    /// Submits `base` with one pixel replaced, counting one query. The
    /// allocating convenience form of [`Oracle::query_pixel_delta_into`].
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExhausted`] when the budget has been spent.
    pub fn query_pixel_delta(
        &mut self,
        base: &Image,
        location: Location,
        pixel: Pixel,
    ) -> Result<Vec<f32>, BudgetExhausted> {
        let mut out = Vec::new();
        self.query_pixel_delta_into(base, location, pixel, &mut out)?;
        Ok(out)
    }

    /// Submits `base` with the pixel at `location` replaced by `pixel`,
    /// counting one query and writing the scores into `out` (cleared
    /// first). This is the sketch candidate loop's hot path: backends
    /// overriding [`Classifier::scores_pixel_delta_into`] serve it from
    /// cached base activations, recomputing only the dirty region.
    ///
    /// Counts and scores are identical to building the perturbed image
    /// and calling [`Oracle::query_into`].
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExhausted`] when the budget has been spent; the
    /// failed attempt is *not* counted, the classifier is not invoked, and
    /// `out` is left untouched.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the same (location, pixel) candidate is
    /// scored twice within one [`Oracle::begin_candidate_scope`] scope.
    pub fn query_pixel_delta_into(
        &mut self,
        base: &Image,
        location: Location,
        pixel: Pixel,
        out: &mut Vec<f32>,
    ) -> Result<(), BudgetExhausted> {
        if let Some(budget) = self.budget {
            if self.queries >= budget {
                return Err(BudgetExhausted { budget });
            }
        }
        let key = candidate_key(location, pixel);
        debug_assert!(
            self.scope.insert(key),
            "candidate (({}, {}), {:?}) scored twice in one sketch scope",
            location.row,
            location.col,
            pixel.0,
        );
        self.queries += 1;
        crate::telemetry::count(crate::telemetry::Counter::OracleQueryPixelDelta);
        // Default routing for the trace; overwritten below when a
        // speculative batch serves or misses. The incremental backend
        // adds the delta-cache tag when it actually runs.
        crate::telemetry::trace::tag_route(crate::telemetry::trace::RouteTag::Delta);

        // Serve from the speculation pool when it holds this exact
        // candidate against the same base — scores are a pure function of
        // (base, location, pixel), so a pending entry stays valid however
        // far the caller's consumption order diverges from prefetch order.
        // A miss leaves the pool intact; only a different base drops it.
        // Either way the accounting above already ran, and the batched
        // backend is bit-identical, so scores and counts cannot depend on
        // the route.
        if !self.pool.pending.is_empty() {
            let base_addr = base as *const Image as usize;
            let classes = self.classifier.num_classes();
            if self.pool.take(base_addr, &key, classes, out) {
                crate::telemetry::count(crate::telemetry::Counter::BatchHit);
                crate::telemetry::trace::tag_route(crate::telemetry::trace::RouteTag::BatchHit);
                self.log_query(self.queries, Some((location, pixel)), out);
                return Ok(());
            }
            if self.pool.base_addr == base_addr {
                crate::telemetry::count(crate::telemetry::Counter::BatchMiss);
                crate::telemetry::trace::tag_route(crate::telemetry::trace::RouteTag::BatchMiss);
            } else {
                self.drop_speculation();
            }
        }
        self.classifier
            .scores_pixel_delta_into(base, location, pixel, out);
        self.log_query(self.queries, Some((location, pixel)), out);
        Ok(())
    }

    /// Speculatively evaluates one-pixel `candidates` against `base` in
    /// one batched classifier call, **without counting any queries**, and
    /// adds them to the oracle's speculation pool. Candidates already
    /// pending are skipped, so callers may re-submit a lookahead that
    /// overlaps earlier ones; the pool keeps every pending entry until it
    /// is consumed, the run ends ([`Oracle::begin_run`]) or a different
    /// base image arrives. Subsequent [`Oracle::query_pixel_delta_into`]
    /// calls against the same base are served from the pool whenever the
    /// candidate is pending (in any order — consumption is free to diverge
    /// from prefetch order), each with the full sequential accounting
    /// (budget check, duplicate guard, query count, query log) at
    /// consume time. A query for a candidate *not* pending runs
    /// sequentially and leaves the pool intact. Callers whose speculation
    /// went stale (e.g. a stochastic attack accepting a proposal, changing
    /// every upcoming candidate) use [`Oracle::replace_pixel_batch`].
    ///
    /// This protocol keeps query counts *identical* to the sequential
    /// path by construction: speculation changes only *when* the
    /// classifier computes a score, never whether a query is counted —
    /// candidates the caller never consumes (early exits) are computed
    /// but not counted, exactly as if they were never queried. And
    /// because a pending entry is evaluated once and served at most once,
    /// callers that prefetch only candidates they will query once (the
    /// sketch's removal discipline) submit each candidate to the
    /// classifier exactly once, reorderings included.
    ///
    /// Fresh candidates are clamped to the remaining budget, so one
    /// prefetch never evaluates more candidates than the budget can still
    /// count. Entries already pending are not subtracted, so the pool as a
    /// whole may hold more than that: what a caller pools and never
    /// reaches (a pair its queue pushes back, say) is evaluated for
    /// nothing, so callers pool only what they expect to consume. A no-op
    /// without speculation ([`Oracle::speculates`]).
    pub fn prefetch_pixel_batch(&mut self, base: &Image, candidates: &[(Location, Pixel)]) {
        if !self.speculates() {
            return;
        }
        let base_addr = base as *const Image as usize;
        if self.pool.base_addr != base_addr {
            self.drop_speculation();
            self.pool.base_addr = base_addr;
        }
        let room = self
            .budget
            .map_or(u64::MAX, |b| b.saturating_sub(self.queries));
        let classes = self.classifier.num_classes();
        let pool = &mut self.pool;
        pool.fresh.clear();
        pool.fresh_slots.clear();
        for &(location, pixel) in candidates {
            if pool.fresh.len() as u64 >= room {
                break;
            }
            let key = candidate_key(location, pixel);
            if pool.pending.contains_key(&key) {
                continue;
            }
            let slot = pool.free.pop().unwrap_or_else(|| {
                pool.slots.resize(pool.slots.len() + classes, 0.0);
                pool.slots.len() / classes - 1
            });
            pool.pending.insert(key, slot);
            pool.fresh.push((location, pixel));
            pool.fresh_slots.push(slot);
        }
        let n = pool.fresh.len();
        if n == 0 {
            return;
        }
        crate::telemetry::count(crate::telemetry::Counter::BatchPrefetch);
        crate::telemetry::count_n(crate::telemetry::Counter::BatchPrefetched, n as u64);
        self.classifier
            .scores_pixel_delta_batch_into(base, &pool.fresh, &mut pool.batch_scores);
        assert_eq!(
            pool.batch_scores.len(),
            n * classes,
            "batched backend returned a wrong-size score block"
        );
        for (scores, &slot) in pool
            .batch_scores
            .chunks_exact(classes)
            .zip(&pool.fresh_slots)
        {
            pool.slots[slot * classes..(slot + 1) * classes].copy_from_slice(scores);
        }
    }

    /// Drops all pending speculation, then prefetches `candidates` like
    /// [`Oracle::prefetch_pixel_batch`]: for callers whose earlier
    /// speculation went stale and will never be consumed.
    pub fn replace_pixel_batch(&mut self, base: &Image, candidates: &[(Location, Pixel)]) {
        self.drop_speculation();
        self.prefetch_pixel_batch(base, candidates);
    }

    /// Drops every pending candidate (counted as a flush when any was
    /// pending).
    fn drop_speculation(&mut self) {
        if !self.pool.pending.is_empty() {
            crate::telemetry::count(crate::telemetry::Counter::BatchFlush);
            self.pool.clear();
        }
    }

    /// True when speculative candidates are still pending consumption.
    /// Callers that prefetch in chunks re-arm when this goes false.
    pub fn has_prefetched(&self) -> bool {
        !self.pool.pending.is_empty()
    }

    /// True when the candidate `base` with `location` set to `pixel` is
    /// pending in the speculation pool, so querying it takes no forward.
    pub fn is_prefetched(&self, base: &Image, location: Location, pixel: Pixel) -> bool {
        self.pool.base_addr == base as *const Image as usize
            && self
                .pool
                .pending
                .contains_key(&candidate_key(location, pixel))
    }

    /// True when [`Oracle::prefetch_pixel_batch`] evaluates anything:
    /// false after [`Oracle::without_speculation`] or with the
    /// `OPPSLA_SEQUENTIAL` environment variable set (the process-wide A/B
    /// switch for verifying batched-vs-sequential equivalence). Callers
    /// skip planning a lookahead nobody will evaluate.
    pub fn speculates(&self) -> bool {
        self.speculate && !sequential_only()
    }

    /// Scores the first `min(candidates.len(), remaining budget)`
    /// candidates through the batched classifier path, counting each as
    /// one query with the same per-candidate accounting as a sequential
    /// [`Oracle::query_pixel_delta_into`] loop (duplicate guard, query
    /// count, telemetry). Appends `num_classes` scores per scored
    /// candidate to `out` (cleared first) and returns how many were
    /// scored — fewer than requested exactly when the budget ran out
    /// mid-batch, matching where the sequential loop would have stopped.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExhausted`] when the budget is already spent
    /// before the first candidate (nothing is scored, `out` is cleared).
    ///
    /// # Panics
    ///
    /// In debug builds, panics on a duplicate candidate within one scope,
    /// like the sequential path.
    pub fn query_batch(
        &mut self,
        base: &Image,
        candidates: &[(Location, Pixel)],
        out: &mut Vec<f32>,
    ) -> Result<usize, BudgetExhausted> {
        let remaining = self
            .budget
            .map_or(u64::MAX, |b| b.saturating_sub(self.queries));
        if remaining == 0 && !candidates.is_empty() {
            return Err(BudgetExhausted {
                budget: self.budget.expect("zero remaining implies a budget"),
            });
        }
        let n = (candidates.len() as u64).min(remaining) as usize;
        for &(location, pixel) in &candidates[..n] {
            debug_assert!(
                self.scope.insert(candidate_key(location, pixel)),
                "candidate (({}, {}), {:?}) scored twice in one sketch scope",
                location.row,
                location.col,
                pixel.0,
            );
            self.queries += 1;
            crate::telemetry::count(crate::telemetry::Counter::OracleQueryPixelDelta);
        }
        crate::telemetry::trace::tag_route(crate::telemetry::trace::RouteTag::Batch);
        self.classifier
            .scores_pixel_delta_batch_into(base, &candidates[..n], out);
        if self.log.is_some() {
            // Per-candidate entries, exactly as the sequential loop would
            // have recorded them: candidate i was query (queries - n + 1 + i).
            let classes = self.classifier.num_classes();
            let first_seq = self.queries - n as u64 + 1;
            for (i, &(location, pixel)) in candidates[..n].iter().enumerate() {
                let scores = &out[i * classes..(i + 1) * classes];
                self.log_query(first_seq + i as u64, Some((location, pixel)), scores);
            }
        }
        Ok(n)
    }

    /// The number of queries issued so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// The remaining budget, if one is set.
    pub fn remaining(&self) -> Option<u64> {
        self.budget.map(|b| b.saturating_sub(self.queries))
    }

    /// The number of classes of the wrapped classifier.
    pub fn num_classes(&self) -> usize {
        self.classifier.num_classes()
    }
}

impl fmt::Debug for Oracle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Oracle")
            .field("queries", &self.queries)
            .field("budget", &self.budget)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::Pixel;

    fn constant_classifier() -> FnClassifier<impl Fn(&Image) -> Vec<f32>> {
        FnClassifier::new(3, |_: &Image| vec![0.1, 0.7, 0.2])
    }

    #[test]
    fn oracle_counts_queries() {
        let clf = constant_classifier();
        let mut oracle = Oracle::new(&clf);
        let img = Image::filled(2, 2, Pixel([0.0; 3]));
        for expected in 1..=5 {
            oracle.query(&img).unwrap();
            assert_eq!(oracle.queries(), expected);
        }
        assert_eq!(oracle.remaining(), None);
    }

    #[test]
    fn budget_is_enforced_exactly() {
        let clf = constant_classifier();
        let mut oracle = Oracle::with_budget(&clf, 3);
        let img = Image::filled(2, 2, Pixel([0.0; 3]));
        assert_eq!(oracle.remaining(), Some(3));
        for _ in 0..3 {
            oracle.query(&img).unwrap();
        }
        let err = oracle.query(&img).unwrap_err();
        assert_eq!(err, BudgetExhausted { budget: 3 });
        assert_eq!(oracle.queries(), 3, "failed attempt not counted");
        assert_eq!(oracle.remaining(), Some(0));
    }

    #[test]
    fn classify_is_argmax_of_scores() {
        let clf = constant_classifier();
        let img = Image::filled(2, 2, Pixel([0.0; 3]));
        assert_eq!(clf.classify(&img), 1);
    }

    #[test]
    fn argmax_prefers_first_on_ties() {
        assert_eq!(argmax(&[0.5, 0.5, 0.1]), 0);
    }

    #[test]
    fn argmax_never_defaults_to_class_zero_on_nan() {
        // Regression: the old `>`-based scan returned 0 whenever
        // `scores[0]` was NaN (every comparison against NaN is false).
        // Under the total order a NaN sorts above every number, so the
        // debug assertion aside, the selection is at least well-defined:
        // the first NaN wins. Exercise a NaN in each position.
        for nan_at in 0..4 {
            let mut scores = [0.1f32, 0.7, 0.2, 0.4];
            scores[nan_at] = f32::NAN;
            let result = std::panic::catch_unwind(move || argmax(&scores));
            if cfg!(debug_assertions) {
                assert!(
                    result.is_err(),
                    "NaN at {nan_at} must trip the debug assert"
                );
            } else {
                assert_eq!(result.unwrap(), nan_at, "first NaN wins under total_cmp");
            }
        }
    }

    #[test]
    fn argmax_handles_negative_and_zero_scores() {
        assert_eq!(argmax(&[-0.5, -0.1, -0.9]), 1);
        assert_eq!(argmax(&[0.0, 0.0]), 0);
        assert_eq!(argmax(&[f32::MIN, f32::MAX]), 1);
    }

    #[test]
    #[should_panic(expected = "score vector length")]
    fn fn_classifier_rejects_wrong_length_scores() {
        // Must be a hard assert: `debug_assert_eq!` alone let release
        // builds feed a wrong-length vector into argmax/margin.
        let clf = FnClassifier::new(3, |_: &Image| vec![0.5, 0.5]);
        let _ = clf.scores(&Image::filled(2, 2, Pixel([0.0; 3])));
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn fn_classifier_rejects_single_class() {
        let _ = FnClassifier::new(1, |_: &Image| vec![1.0]);
    }

    #[test]
    fn query_into_matches_query_and_counts_identically() {
        let clf = constant_classifier();
        let img = Image::filled(2, 2, Pixel([0.0; 3]));
        let mut a = Oracle::new(&clf);
        let mut b = Oracle::new(&clf);
        let mut buf = vec![9.0, 9.0]; // stale content must be replaced
        b.query_into(&img, &mut buf).unwrap();
        assert_eq!(a.query(&img).unwrap(), buf);
        assert_eq!(a.queries(), b.queries());
    }

    #[test]
    fn query_into_budget_failure_leaves_buffer_untouched() {
        let clf = constant_classifier();
        let img = Image::filled(2, 2, Pixel([0.0; 3]));
        let mut oracle = Oracle::with_budget(&clf, 0);
        let mut buf = vec![0.5];
        assert!(oracle.query_into(&img, &mut buf).is_err());
        assert_eq!(buf, vec![0.5]);
        assert_eq!(oracle.queries(), 0);
    }

    #[test]
    fn pixel_delta_query_matches_full_query_on_the_perturbed_image() {
        // Score-sensitive classifier so the perturbation actually matters.
        let clf = FnClassifier::new(2, |img: &Image| {
            let mean: f32 = img.data().iter().sum::<f32>() / img.data().len() as f32;
            vec![mean, 1.0 - mean]
        });
        let base = Image::filled(3, 3, Pixel([0.2; 3]));
        let loc = crate::pair::Location::new(1, 2);
        let px = Pixel([0.9, 0.1, 0.4]);
        let mut a = Oracle::new(&clf);
        let mut b = Oracle::new(&clf);
        let delta = a.query_pixel_delta(&base, loc, px).unwrap();
        let full = b.query(&base.with_pixel(loc, px)).unwrap();
        assert_eq!(delta, full);
        assert_eq!(a.queries(), b.queries());
    }

    #[test]
    fn pixel_delta_budget_failure_is_not_counted() {
        let clf = constant_classifier();
        let base = Image::filled(2, 2, Pixel([0.0; 3]));
        let mut oracle = Oracle::with_budget(&clf, 0);
        let mut buf = vec![0.5];
        let loc = crate::pair::Location::new(0, 0);
        assert!(oracle
            .query_pixel_delta_into(&base, loc, Pixel([1.0; 3]), &mut buf)
            .is_err());
        assert_eq!(buf, vec![0.5]);
        assert_eq!(oracle.queries(), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "scored twice")]
    fn guard_catches_duplicate_candidates_in_one_scope() {
        let clf = constant_classifier();
        let base = Image::filled(2, 2, Pixel([0.0; 3]));
        let loc = crate::pair::Location::new(1, 0);
        let px = Pixel([1.0, 0.0, 1.0]);
        let mut oracle = Oracle::new(&clf);
        oracle.begin_candidate_scope();
        oracle.query_pixel_delta(&base, loc, px).unwrap();
        oracle.query_pixel_delta(&base, loc, px).unwrap();
    }

    #[test]
    fn guard_scope_reset_permits_requerying() {
        // The same candidate across two sketch runs (scopes) is fine.
        let clf = constant_classifier();
        let base = Image::filled(2, 2, Pixel([0.0; 3]));
        let loc = crate::pair::Location::new(1, 0);
        let px = Pixel([1.0, 0.0, 1.0]);
        let mut oracle = Oracle::new(&clf);
        oracle.begin_candidate_scope();
        oracle.query_pixel_delta(&base, loc, px).unwrap();
        oracle.begin_candidate_scope();
        oracle.query_pixel_delta(&base, loc, px).unwrap();
        assert_eq!(oracle.queries(), 2);
    }

    #[test]
    fn begin_run_opens_a_fresh_guard_scope() {
        // An oracle reused to re-attack the same image: each run starts
        // with `begin_run`, so repeating the first run's candidates is
        // legal on every serving route.
        let clf = constant_classifier();
        let base = Image::filled(3, 3, Pixel([0.2; 3]));
        let candidates = some_candidates(4);
        let mut oracle = Oracle::new(&clf);
        let mut buf = Vec::new();
        for _ in 0..2 {
            oracle.begin_run();
            oracle
                .query_batch(&base, &candidates[..2], &mut buf)
                .unwrap();
            oracle.prefetch_pixel_batch(&base, &candidates[2..3]);
            for &(loc, px) in &candidates[2..] {
                oracle
                    .query_pixel_delta_into(&base, loc, px, &mut buf)
                    .unwrap();
            }
        }
        assert_eq!(oracle.queries(), 8);
    }

    /// A classifier whose scores depend on the perturbed pixel, plus a
    /// call counter so tests can see *when* it actually computes.
    fn counting_mean_classifier(
        calls: &std::cell::Cell<u32>,
    ) -> FnClassifier<impl Fn(&Image) -> Vec<f32> + '_> {
        FnClassifier::new(2, move |img: &Image| {
            calls.set(calls.get() + 1);
            let mean: f32 = img.data().iter().sum::<f32>() / img.data().len() as f32;
            vec![mean, 1.0 - mean]
        })
    }

    fn some_candidates(n: usize) -> Vec<(Location, Pixel)> {
        (0..n)
            .map(|i| {
                (
                    Location::new((i / 3) as u16, (i % 3) as u16),
                    Pixel([i as f32 * 0.1, 0.5, 1.0 - i as f32 * 0.1]),
                )
            })
            .collect()
    }

    #[test]
    fn prefetched_queries_match_sequential_scores_and_counts() {
        let calls = std::cell::Cell::new(0);
        let clf = counting_mean_classifier(&calls);
        let base = Image::filled(3, 3, Pixel([0.2; 3]));
        let candidates = some_candidates(5);

        let mut seq = Oracle::new(&clf);
        let mut seq_scores = Vec::new();
        for &(loc, px) in &candidates {
            seq_scores.push(seq.query_pixel_delta(&base, loc, px).unwrap());
        }

        let mut spec = Oracle::new(&clf);
        spec.prefetch_pixel_batch(&base, &candidates);
        assert!(spec.has_prefetched());
        assert_eq!(spec.queries(), 0, "prefetching must not count queries");
        let mut buf = Vec::new();
        for (i, &(loc, px)) in candidates.iter().enumerate() {
            spec.query_pixel_delta_into(&base, loc, px, &mut buf)
                .unwrap();
            assert_eq!(buf, seq_scores[i], "candidate {i} diverged");
            assert_eq!(spec.queries(), (i + 1) as u64);
        }
        assert!(!spec.has_prefetched(), "batch fully consumed");
        assert_eq!(seq.queries(), spec.queries());
    }

    #[test]
    fn consuming_the_batch_does_not_reinvoke_the_classifier() {
        let calls = std::cell::Cell::new(0);
        let clf = counting_mean_classifier(&calls);
        let base = Image::filled(3, 3, Pixel([0.4; 3]));
        let candidates = some_candidates(4);
        let mut oracle = Oracle::new(&clf);
        oracle.prefetch_pixel_batch(&base, &candidates);
        let after_prefetch = calls.get();
        let mut buf = Vec::new();
        for &(loc, px) in &candidates {
            oracle
                .query_pixel_delta_into(&base, loc, px, &mut buf)
                .unwrap();
        }
        assert_eq!(
            calls.get(),
            after_prefetch,
            "batch hits must be served from cache"
        );
    }

    #[test]
    fn batch_serves_candidates_in_any_order() {
        let calls = std::cell::Cell::new(0);
        let clf = counting_mean_classifier(&calls);
        let base = Image::filled(3, 3, Pixel([0.3; 3]));
        let candidates = some_candidates(4);
        let mut oracle = Oracle::new(&clf);
        oracle.prefetch_pixel_batch(&base, &candidates);
        let after_prefetch = calls.get();

        // Consume in reversed order: every query is still a batch hit.
        let mut got = Vec::new();
        let mut seq = Oracle::new(&clf);
        for &(loc, px) in candidates.iter().rev() {
            oracle
                .query_pixel_delta_into(&base, loc, px, &mut got)
                .unwrap();
            assert_eq!(got, seq.query_pixel_delta(&base, loc, px).unwrap());
        }
        assert_eq!(
            calls.get() - after_prefetch,
            candidates.len() as u32,
            "only the sequential reference oracle recomputed"
        );
        assert!(!oracle.has_prefetched(), "batch fully consumed");
        assert_eq!(oracle.queries(), candidates.len() as u64);
    }

    #[test]
    fn missing_the_batch_falls_back_but_keeps_it() {
        let calls = std::cell::Cell::new(0);
        let clf = counting_mean_classifier(&calls);
        let base = Image::filled(3, 3, Pixel([0.3; 3]));
        let candidates = some_candidates(4);
        let mut oracle = Oracle::new(&clf);
        oracle.prefetch_pixel_batch(&base, &candidates);
        let after_prefetch = calls.get();

        // An outside candidate runs sequentially without discarding the
        // pending batch...
        let outside = (Location::new(2, 2), Pixel([0.9, 0.9, 0.9]));
        let mut got = Vec::new();
        oracle
            .query_pixel_delta_into(&base, outside.0, outside.1, &mut got)
            .unwrap();
        assert_eq!(
            calls.get(),
            after_prefetch + 1,
            "miss evaluates sequentially"
        );
        assert!(oracle.has_prefetched(), "a miss keeps the batch");

        // ...and the batched entries still serve from cache afterwards.
        for &(loc, px) in &candidates {
            oracle
                .query_pixel_delta_into(&base, loc, px, &mut got)
                .unwrap();
        }
        assert_eq!(calls.get(), after_prefetch + 1, "hits served from cache");
        assert_eq!(oracle.queries(), 1 + candidates.len() as u64);
    }

    #[test]
    fn querying_a_different_base_flushes_the_batch() {
        let calls = std::cell::Cell::new(0);
        let clf = counting_mean_classifier(&calls);
        let base = Image::filled(3, 3, Pixel([0.3; 3]));
        let other = Image::filled(3, 3, Pixel([0.6; 3]));
        let candidates = some_candidates(3);
        let mut oracle = Oracle::new(&clf);
        oracle.prefetch_pixel_batch(&base, &candidates);

        let (loc, px) = candidates[0];
        let mut got = Vec::new();
        oracle
            .query_pixel_delta_into(&other, loc, px, &mut got)
            .unwrap();
        assert!(!oracle.has_prefetched(), "a new base discards the batch");

        let mut seq = Oracle::new(&clf);
        assert_eq!(got, seq.query_pixel_delta(&other, loc, px).unwrap());
    }

    #[test]
    fn prefetch_adds_only_candidates_not_pending() {
        let calls = std::cell::Cell::new(0);
        let clf = counting_mean_classifier(&calls);
        let base = Image::filled(3, 3, Pixel([0.3; 3]));
        let candidates = some_candidates(6);
        let mut oracle = Oracle::new(&clf);
        oracle.prefetch_pixel_batch(&base, &candidates[..4]);
        assert_eq!(calls.get(), 4);
        // An overlapping lookahead evaluates only its two new candidates
        // and keeps the four already pending.
        oracle.prefetch_pixel_batch(&base, &candidates[2..]);
        assert_eq!(calls.get(), 6, "pending candidates are not re-evaluated");

        let mut seq = Oracle::new(&clf);
        let mut got = Vec::new();
        for &(loc, px) in candidates.iter().rev() {
            oracle
                .query_pixel_delta_into(&base, loc, px, &mut got)
                .unwrap();
            assert_eq!(got, seq.query_pixel_delta(&base, loc, px).unwrap());
        }
        assert_eq!(calls.get(), 6 + 6, "only the reference oracle recomputed");
        assert!(!oracle.has_prefetched());
    }

    #[test]
    fn each_prefetch_is_clamped_to_the_budget_left_then() {
        let calls = std::cell::Cell::new(0);
        let clf = counting_mean_classifier(&calls);
        let base = Image::filled(3, 3, Pixel([0.1; 3]));
        let candidates = some_candidates(8);
        let mut oracle = Oracle::with_budget(&clf, 5);
        oracle.prefetch_pixel_batch(&base, &candidates[..4]);
        let mut buf = Vec::new();
        for &(loc, px) in &candidates[..2] {
            oracle
                .query_pixel_delta_into(&base, loc, px, &mut buf)
                .unwrap();
        }
        oracle.prefetch_pixel_batch(&base, &candidates[4..]);
        assert_eq!(calls.get(), 4 + 3, "3 queries left admit 3 of 4");
        let (loc, px) = candidates[7];
        assert!(!oracle.is_prefetched(&base, loc, px));
        assert!(oracle.is_prefetched(&base, candidates[6].0, candidates[6].1));
    }

    #[test]
    fn a_new_run_or_a_replace_drops_pending_speculation() {
        let calls = std::cell::Cell::new(0);
        let clf = counting_mean_classifier(&calls);
        let mut base = Image::filled(3, 3, Pixel([0.3; 3]));
        let candidates = some_candidates(3);
        let (loc, px) = candidates[0];
        let mut oracle = Oracle::new(&clf);
        oracle.prefetch_pixel_batch(&base, &candidates);
        oracle.replace_pixel_batch(&base, &candidates[1..]);
        assert!(!oracle.is_prefetched(&base, loc, px), "replaced");
        assert!(oracle.is_prefetched(&base, candidates[1].0, candidates[1].1));

        // The same image, changed in place: same address, new scores.
        oracle.begin_run();
        assert!(!oracle.has_prefetched());
        base.set_pixel(Location::new(2, 2), Pixel([0.9; 3]));
        oracle.prefetch_pixel_batch(&base, &candidates);
        let mut got = Vec::new();
        oracle
            .query_pixel_delta_into(&base, loc, px, &mut got)
            .unwrap();
        let mut seq = Oracle::new(&clf);
        assert_eq!(got, seq.query_pixel_delta(&base, loc, px).unwrap());
    }

    #[test]
    fn prefetch_is_clamped_to_the_remaining_budget() {
        let calls = std::cell::Cell::new(0);
        let clf = counting_mean_classifier(&calls);
        let base = Image::filled(3, 3, Pixel([0.1; 3]));
        let candidates = some_candidates(6);
        let mut oracle = Oracle::with_budget(&clf, 2);
        oracle.prefetch_pixel_batch(&base, &candidates);
        let mut buf = Vec::new();
        for &(loc, px) in &candidates[..2] {
            oracle
                .query_pixel_delta_into(&base, loc, px, &mut buf)
                .unwrap();
        }
        assert!(!oracle.has_prefetched(), "only 2 of 6 fit the budget");
        let (loc, px) = candidates[2];
        assert!(oracle
            .query_pixel_delta_into(&base, loc, px, &mut buf)
            .is_err());
        assert_eq!(oracle.queries(), 2);
    }

    #[test]
    fn prefetch_with_exhausted_budget_is_inert() {
        let calls = std::cell::Cell::new(0);
        let clf = counting_mean_classifier(&calls);
        let base = Image::filled(3, 3, Pixel([0.1; 3]));
        let mut oracle = Oracle::with_budget(&clf, 0);
        oracle.prefetch_pixel_batch(&base, &some_candidates(3));
        assert!(!oracle.has_prefetched());
        assert_eq!(calls.get(), 0, "no budget, no speculative evaluation");
    }

    #[test]
    fn query_batch_matches_sequential_scores_and_counts() {
        let calls = std::cell::Cell::new(0);
        let clf = counting_mean_classifier(&calls);
        let base = Image::filled(3, 3, Pixel([0.25; 3]));
        let candidates = some_candidates(5);

        let mut seq = Oracle::new(&clf);
        let mut want = Vec::new();
        for &(loc, px) in &candidates {
            want.extend(seq.query_pixel_delta(&base, loc, px).unwrap());
        }

        let mut batched = Oracle::new(&clf);
        let mut got = Vec::new();
        let n = batched.query_batch(&base, &candidates, &mut got).unwrap();
        assert_eq!(n, candidates.len());
        assert_eq!(got, want);
        assert_eq!(batched.queries(), seq.queries());
    }

    #[test]
    fn query_batch_stops_where_the_sequential_loop_would() {
        let calls = std::cell::Cell::new(0);
        let clf = counting_mean_classifier(&calls);
        let base = Image::filled(3, 3, Pixel([0.25; 3]));
        let candidates = some_candidates(5);
        let mut oracle = Oracle::with_budget(&clf, 3);
        let mut got = Vec::new();
        let n = oracle.query_batch(&base, &candidates, &mut got).unwrap();
        assert_eq!(n, 3, "budget of 3 scores exactly 3 of 5");
        assert_eq!(got.len(), 3 * 2);
        assert_eq!(oracle.queries(), 3);
        let err = oracle
            .query_batch(&base, &candidates[3..], &mut got)
            .unwrap_err();
        assert_eq!(err, BudgetExhausted { budget: 3 });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "scored twice")]
    fn guard_catches_duplicates_inside_one_query_batch() {
        let clf = constant_classifier();
        let base = Image::filled(3, 3, Pixel([0.2; 3]));
        let (loc, px) = some_candidates(1)[0];
        let mut oracle = Oracle::new(&clf);
        oracle.begin_candidate_scope();
        let mut buf = Vec::new();
        let _ = oracle.query_batch(&base, &[(loc, px), (loc, px)], &mut buf);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "scored twice")]
    fn guard_catches_duplicates_served_from_a_prefetched_batch() {
        // Consuming from the speculative batch must run the same
        // duplicate guard as the sequential path.
        let clf = constant_classifier();
        let base = Image::filled(2, 2, Pixel([0.0; 3]));
        let loc = crate::pair::Location::new(1, 0);
        let px = Pixel([1.0, 0.0, 1.0]);
        let mut oracle = Oracle::new(&clf);
        oracle.begin_candidate_scope();
        oracle.query_pixel_delta(&base, loc, px).unwrap();
        // Re-prefetch the same candidate: the consume (a batch hit) must
        // still trip the guard.
        oracle.prefetch_pixel_batch(&base, &[(loc, px)]);
        oracle.query_pixel_delta(&base, loc, px).unwrap();
    }

    #[test]
    fn query_log_is_identical_across_serving_routes() {
        // The log is recorded at the counted consume sites, so the same
        // query stream yields byte-equal logs whether it is served
        // sequentially, from a speculative prefetch, or via query_batch —
        // the witness the serving equivalence tests compare per tenant.
        let calls = std::cell::Cell::new(0);
        let clf = counting_mean_classifier(&calls);
        let base = Image::filled(3, 3, Pixel([0.35; 3]));
        let candidates = some_candidates(5);

        let mut seq = Oracle::new(&clf);
        seq.enable_query_log();
        let mut buf = Vec::new();
        for &(loc, px) in &candidates {
            seq.query_pixel_delta_into(&base, loc, px, &mut buf)
                .unwrap();
        }
        let want = seq.take_query_log();
        assert_eq!(want.len(), candidates.len());
        assert_eq!(want[0].seq, 1, "seq is the 1-based query ordinal");
        assert_eq!(want[4].seq, 5);
        assert!(want.iter().all(|e| e.pixel.is_some()));

        let mut spec = Oracle::new(&clf);
        spec.enable_query_log();
        spec.prefetch_pixel_batch(&base, &candidates);
        assert!(spec.take_query_log().is_empty(), "prefetching logs nothing");
        for &(loc, px) in &candidates {
            spec.query_pixel_delta_into(&base, loc, px, &mut buf)
                .unwrap();
        }
        assert_eq!(spec.take_query_log(), want, "prefetched route diverged");

        let mut batched = Oracle::new(&clf);
        batched.enable_query_log();
        batched.query_batch(&base, &candidates, &mut buf).unwrap();
        assert_eq!(batched.take_query_log(), want, "query_batch diverged");
    }

    #[test]
    fn query_log_distinguishes_full_queries_and_resumes_after_take() {
        let clf = constant_classifier();
        let base = Image::filled(2, 2, Pixel([0.1; 3]));
        let mut oracle = Oracle::new(&clf);
        oracle.enable_query_log();
        oracle.query(&base).unwrap();
        let log = oracle.take_query_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].pixel, None, "full query logs no pixel");
        assert_eq!(log[0].pred, 1, "argmax of [0.1, 0.7, 0.2]");

        // The log stays enabled after take, and seq keeps counting.
        let loc = crate::pair::Location::new(1, 1);
        let px = Pixel([0.5, 0.6, 0.7]);
        oracle.query_pixel_delta(&base, loc, px).unwrap();
        let log = oracle.take_query_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].seq, 2);
        assert_eq!(log[0].pixel, Some((1, 1, px.0.map(f32::to_bits))));
    }

    #[test]
    fn disabled_query_log_records_nothing() {
        let clf = constant_classifier();
        let base = Image::filled(2, 2, Pixel([0.1; 3]));
        let mut oracle = Oracle::new(&clf);
        oracle.query(&base).unwrap();
        assert!(oracle.take_query_log().is_empty());
    }

    #[test]
    fn shared_session_forwards_to_the_classifier() {
        let clf = constant_classifier();
        let session = clf.session();
        let img = Image::filled(2, 2, Pixel([0.0; 3]));
        assert_eq!(session.num_classes(), 3);
        assert_eq!(session.scores(&img), clf.scores(&img));
        let mut buf = Vec::new();
        session.scores_into(&img, &mut buf);
        assert_eq!(buf, clf.scores(&img));
    }
}
