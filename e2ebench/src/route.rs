//! The `nn` layer measured from outside: a forwarding decorator on
//! [`Classifier`] / [`BatchClassifier`] that counts and times every call
//! per route, and the oracle figures derived from those counts.
//!
//! The decorator must forward *every* trait method. A method it forgot
//! would fall back to the trait default, and the default
//! `scores_pixel_delta_batch_into` is the sequential loop: queries would
//! silently change route and the measurement would no longer describe the
//! undecorated system.

use oppsla_core::image::Image;
use oppsla_core::oracle::{BatchClassifier, Classifier};
use oppsla_core::pair::{Location, Pixel};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Shared per-route call counters. Statistics only: the atomics publish
/// no other data, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct RouteStats {
    full_calls: AtomicU64,
    full_ns: AtomicU64,
    delta_seq_cands: AtomicU64,
    delta_seq_ns: AtomicU64,
    delta_batch_calls: AtomicU64,
    delta_batch_cands: AtomicU64,
    delta_batch_ns: AtomicU64,
}

/// A reading of [`RouteStats`]; differences of two readings attribute
/// calls to the interval between them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteTotals {
    /// Images scored by a full forward (`scores*`, `classify`, batched full).
    pub full_calls: u64,
    /// Nanoseconds inside full forwards.
    pub full_ns: u64,
    /// Candidates scored one at a time (`scores_pixel_delta_into`).
    pub delta_seq_cands: u64,
    /// Nanoseconds inside sequential delta calls.
    pub delta_seq_ns: u64,
    /// Calls of `scores_pixel_delta_batch_into`.
    pub delta_batch_calls: u64,
    /// Candidates scored through those batch calls.
    pub delta_batch_cands: u64,
    /// Nanoseconds inside batched delta calls.
    pub delta_batch_ns: u64,
}

impl RouteTotals {
    /// The calls made since `earlier` (a previous reading).
    #[must_use]
    pub fn since(&self, earlier: &RouteTotals) -> RouteTotals {
        RouteTotals {
            full_calls: self.full_calls - earlier.full_calls,
            full_ns: self.full_ns - earlier.full_ns,
            delta_seq_cands: self.delta_seq_cands - earlier.delta_seq_cands,
            delta_seq_ns: self.delta_seq_ns - earlier.delta_seq_ns,
            delta_batch_calls: self.delta_batch_calls - earlier.delta_batch_calls,
            delta_batch_cands: self.delta_batch_cands - earlier.delta_batch_cands,
            delta_batch_ns: self.delta_batch_ns - earlier.delta_batch_ns,
        }
    }

    /// Nanoseconds spent inside the classifier, all routes.
    #[must_use]
    pub fn nn_ns(&self) -> u64 {
        self.full_ns + self.delta_seq_ns + self.delta_batch_ns
    }
}

impl RouteStats {
    /// The current totals.
    #[must_use]
    pub fn totals(&self) -> RouteTotals {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        RouteTotals {
            full_calls: get(&self.full_calls),
            full_ns: get(&self.full_ns),
            delta_seq_cands: get(&self.delta_seq_cands),
            delta_seq_ns: get(&self.delta_seq_ns),
            delta_batch_calls: get(&self.delta_batch_calls),
            delta_batch_cands: get(&self.delta_batch_cands),
            delta_batch_ns: get(&self.delta_batch_ns),
        }
    }
}

/// Runs `f`, adding its duration to `ns`.
fn timed<R>(ns: &AtomicU64, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    let elapsed = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    ns.fetch_add(elapsed, Ordering::Relaxed);
    r
}

/// A decorated classifier: its sessions are [`TracedSession`]s over the
/// wrapped classifier's own sessions, so batch routes stay batched.
pub struct Traced<'a> {
    inner: &'a dyn BatchClassifier,
    stats: &'a RouteStats,
}

impl<'a> Traced<'a> {
    /// Wraps `inner`, counting into `stats`.
    pub fn new(inner: &'a dyn BatchClassifier, stats: &'a RouteStats) -> Self {
        Traced { inner, stats }
    }

    fn tap(&self) -> TracedSession<'a, &'a dyn Classifier> {
        let inner: &'a dyn Classifier = self.inner;
        TracedSession::new(inner, self.stats)
    }
}

/// A decorated query handle: forwards every [`Classifier`] method to
/// `inner` and times it per route.
pub struct TracedSession<'a, H> {
    inner: H,
    stats: &'a RouteStats,
}

impl<'a, H> TracedSession<'a, H> {
    /// Wraps the handle `inner` (a session box or a borrowed classifier).
    pub fn new(inner: H, stats: &'a RouteStats) -> Self {
        TracedSession { inner, stats }
    }
}

impl<'a, 'c, H: Deref<Target = dyn Classifier + 'c>> Classifier for TracedSession<'a, H> {
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn scores(&self, image: &Image) -> Vec<f32> {
        self.stats.full_calls.fetch_add(1, Ordering::Relaxed);
        timed(&self.stats.full_ns, || self.inner.scores(image))
    }

    fn scores_into(&self, image: &Image, out: &mut Vec<f32>) {
        self.stats.full_calls.fetch_add(1, Ordering::Relaxed);
        timed(&self.stats.full_ns, || self.inner.scores_into(image, out));
    }

    fn classify(&self, image: &Image) -> usize {
        self.stats.full_calls.fetch_add(1, Ordering::Relaxed);
        timed(&self.stats.full_ns, || self.inner.classify(image))
    }

    fn scores_pixel_delta_into(
        &self,
        base: &Image,
        location: Location,
        pixel: Pixel,
        out: &mut Vec<f32>,
    ) {
        self.stats.delta_seq_cands.fetch_add(1, Ordering::Relaxed);
        timed(&self.stats.delta_seq_ns, || {
            self.inner
                .scores_pixel_delta_into(base, location, pixel, out);
        });
    }

    fn scores_batch_into(&self, images: &[Image], out: &mut Vec<f32>) {
        self.stats
            .full_calls
            .fetch_add(images.len() as u64, Ordering::Relaxed);
        timed(&self.stats.full_ns, || {
            self.inner.scores_batch_into(images, out)
        });
    }

    fn scores_pixel_delta_batch_into(
        &self,
        base: &Image,
        candidates: &[(Location, Pixel)],
        out: &mut Vec<f32>,
    ) {
        self.stats.delta_batch_calls.fetch_add(1, Ordering::Relaxed);
        self.stats
            .delta_batch_cands
            .fetch_add(candidates.len() as u64, Ordering::Relaxed);
        timed(&self.stats.delta_batch_ns, || {
            self.inner
                .scores_pixel_delta_batch_into(base, candidates, out);
        });
    }
}

impl Classifier for Traced<'_> {
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn scores(&self, image: &Image) -> Vec<f32> {
        self.tap().scores(image)
    }

    fn scores_into(&self, image: &Image, out: &mut Vec<f32>) {
        self.tap().scores_into(image, out);
    }

    fn classify(&self, image: &Image) -> usize {
        self.tap().classify(image)
    }

    fn scores_pixel_delta_into(
        &self,
        base: &Image,
        location: Location,
        pixel: Pixel,
        out: &mut Vec<f32>,
    ) {
        self.tap()
            .scores_pixel_delta_into(base, location, pixel, out);
    }

    fn scores_batch_into(&self, images: &[Image], out: &mut Vec<f32>) {
        self.tap().scores_batch_into(images, out);
    }

    fn scores_pixel_delta_batch_into(
        &self,
        base: &Image,
        candidates: &[(Location, Pixel)],
        out: &mut Vec<f32>,
    ) {
        self.tap()
            .scores_pixel_delta_batch_into(base, candidates, out);
    }
}

impl BatchClassifier for Traced<'_> {
    fn session(&self) -> Box<dyn Classifier + '_> {
        Box::new(TracedSession::new(self.inner.session(), self.stats))
    }
}

/// Oracle figures derived from counted queries and the route counts of
/// the same interval (memo off, so every counted query reached the
/// classifier exactly once, on some route).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleFigures {
    /// Counted queries that perturbed one pixel (all but full forwards).
    pub delta_queries: u64,
    /// Delta queries served from a batch call:
    /// `(delta queries − sequential delta calls) / delta queries`.
    pub batch_coverage: f64,
    /// Batched candidates never consumed as a query:
    /// `(batched candidates − batch-served queries) / batched candidates`.
    pub spec_waste: f64,
}

/// Derives [`OracleFigures`] from `counted_queries` (summed from attack
/// outcomes) and the route counts `route` taken over the same calls.
#[must_use]
pub fn derive_oracle(counted_queries: u64, route: &RouteTotals) -> OracleFigures {
    let delta_queries = counted_queries.saturating_sub(route.full_calls);
    let batch_served = delta_queries.saturating_sub(route.delta_seq_cands);
    OracleFigures {
        delta_queries,
        batch_coverage: crate::ratio(batch_served as f64, delta_queries as f64),
        spec_waste: crate::ratio(
            route.delta_batch_cands.saturating_sub(batch_served) as f64,
            route.delta_batch_cands as f64,
        ),
    }
}
