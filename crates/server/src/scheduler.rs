//! The cross-session batch scheduler — the server's tentpole.
//!
//! Every tenant session funnels its candidate queries through one shared
//! queue. Worker threads pop a submission, *merge* any other pending
//! submissions against the same model shard, and dispatch them as one
//! multi-base grouped call
//! ([`OwnedZooSession::scores_pixel_delta_grouped_into`]): candidates
//! from different tenants — even attacking different images — share the
//! batched route's conv and fully connected kernel tiles. The grouped entry point is bit-identical per
//! candidate to an isolated sequential query by construction, so packing
//! changes *throughput only*: per-tenant scores, query counts, and query
//! logs are exactly those of a private session (the scheduler
//! equivalence tests assert this byte-for-byte).
//!
//! Each worker owns one [`OwnedZooSession`] per shard it has served,
//! with a base-snapshot LRU sized to the merge width, so interleaving
//! tenants does not rebase-thrash a single-slot cache.

use crate::metrics::{ServerMetrics, ShardMetrics};
use crate::zoo::{ShardKey, ShardedZoo};
use oppsla_core::image::Image;
use oppsla_core::oracle::Classifier;
use oppsla_core::pair::{Location, Pixel};
use oppsla_core::telemetry;
use oppsla_eval::zoo::{DeltaGroup, OwnedZooSession, SessionCacheStats};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scheduler sizing.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads draining the shared queue.
    pub workers: usize,
    /// Maximum tenant submissions merged into one grouped call. Also the
    /// per-worker session cache capacity, so a merged call can never
    /// touch more distinct bases than the LRU holds.
    pub max_merge: usize,
    /// How long a worker may hold an under-full delta batch waiting for
    /// more tenants' submissions to arrive. Zero dispatches immediately.
    /// Waiting only happens while more sessions are live than the batch
    /// already covers, so a lone tenant never pays it; grouping changes
    /// throughput only, never scores (see module docs), so this trades
    /// bounded latency for merge depth with no effect on results.
    pub coalesce: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 2,
            max_merge: 8,
            coalesce: Duration::from_micros(200),
        }
    }
}

/// One unit of classifier work a tenant submitted.
enum Work {
    /// A full forward (baseline queries).
    Full(Image),
    /// One-pixel candidates against a shared base.
    Delta {
        base: Arc<Image>,
        candidates: Vec<(Location, Pixel)>,
    },
}

struct Submission {
    shard: ShardKey,
    work: Work,
    /// Flat scores, `num_classes` per candidate (one block for `Full`).
    reply: mpsc::Sender<Vec<f32>>,
}

struct QueueState {
    pending: VecDeque<Submission>,
    open: bool,
}

struct Inner {
    zoo: Arc<ShardedZoo>,
    state: Mutex<QueueState>,
    cv: Condvar,
    cfg: SchedulerConfig,
    /// Live [`ScheduledClassifier`] sessions — the coalescing heuristic's
    /// estimate of how many tenants could still contribute to a batch.
    active_sessions: AtomicUsize,
    /// The live metrics plane, when the deployment enabled one. Strictly
    /// write-only from this module (queue-depth gauge, dispatch counters,
    /// batch-size histogram): scheduling decisions never read a metric,
    /// so results are identical with metrics on or off.
    metrics: Option<Arc<ServerMetrics>>,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// The running scheduler: owns the worker threads.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

/// A cloneable handle for submitting work (one per tenant session).
#[derive(Clone)]
pub struct SchedulerHandle {
    inner: Arc<Inner>,
}

impl Scheduler {
    /// Starts `cfg.workers` worker threads over `zoo`, without metrics.
    pub fn start(zoo: Arc<ShardedZoo>, cfg: SchedulerConfig) -> Scheduler {
        Scheduler::start_with_metrics(zoo, cfg, None)
    }

    /// Starts the scheduler, publishing per-shard gauges and counters to
    /// `metrics` when one is given.
    pub fn start_with_metrics(
        zoo: Arc<ShardedZoo>,
        cfg: SchedulerConfig,
        metrics: Option<Arc<ServerMetrics>>,
    ) -> Scheduler {
        let cfg = SchedulerConfig {
            workers: cfg.workers.max(1),
            max_merge: cfg.max_merge.max(1),
            coalesce: cfg.coalesce,
        };
        let inner = Arc::new(Inner {
            zoo,
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                open: true,
            }),
            cv: Condvar::new(),
            cfg: cfg.clone(),
            active_sessions: AtomicUsize::new(0),
            metrics,
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("sched-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Scheduler { inner, workers }
    }

    /// A submission handle sharing this scheduler's queue.
    pub fn handle(&self) -> SchedulerHandle {
        SchedulerHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Closes the queue and joins the workers. Pending submissions are
    /// still served — only *new* submissions are refused after this.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        {
            let mut st = self.inner.lock();
            st.open = false;
        }
        self.inner.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

impl SchedulerHandle {
    /// A [`Classifier`] routing all queries for `shard` through the
    /// scheduler. Trains the shard now (blocking) if it is cold, so the
    /// first query doesn't pay the training run.
    pub fn classifier(&self, shard: ShardKey) -> ScheduledClassifier {
        let num_classes = self
            .inner
            .zoo
            .shard(shard.0, shard.1)
            .classifier
            .num_classes();
        self.inner.active_sessions.fetch_add(1, Ordering::Relaxed);
        // Resolve the shard's metric handles once here, so the per-query
        // submit path below touches only their atomics.
        let shard_metrics = self.inner.metrics.as_ref().map(|m| m.shard(shard));
        ScheduledClassifier {
            inner: Arc::clone(&self.inner),
            shard,
            num_classes,
            shard_metrics,
        }
    }
}

/// Enqueues one submission and blocks on its reply. `shard_metrics` (the
/// submitter's cached handles) takes the queue-depth increment; the
/// worker that dispatches the batch takes the matching decrement.
fn submit_work(
    inner: &Inner,
    shard: ShardKey,
    work: Work,
    shard_metrics: Option<&ShardMetrics>,
) -> Vec<f32> {
    if let Some(sm) = shard_metrics {
        sm.queue_depth.inc();
    }
    let (tx, rx) = mpsc::channel();
    {
        let mut st = inner.lock();
        assert!(st.open, "submission after scheduler shutdown");
        st.pending.push_back(Submission {
            shard,
            work,
            reply: tx,
        });
    }
    inner.cv.notify_one();
    rx.recv()
        .expect("scheduler dropped a submission (worker died mid-job)")
}

/// A per-tenant [`Classifier`] whose queries run on the scheduler's
/// workers. Cheap to construct; safe to move into a session thread.
pub struct ScheduledClassifier {
    inner: Arc<Inner>,
    shard: ShardKey,
    num_classes: usize,
    shard_metrics: Option<Arc<ShardMetrics>>,
}

impl ScheduledClassifier {
    fn submit(&self, work: Work) -> Vec<f32> {
        submit_work(&self.inner, self.shard, work, self.shard_metrics.as_deref())
    }
}

impl Drop for ScheduledClassifier {
    fn drop(&mut self) {
        self.inner.active_sessions.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Classifier for ScheduledClassifier {
    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn scores(&self, image: &Image) -> Vec<f32> {
        self.submit(Work::Full(image.clone()))
    }

    fn scores_into(&self, image: &Image, out: &mut Vec<f32>) {
        let scores = self.scores(image);
        out.clear();
        out.extend_from_slice(&scores);
    }

    fn scores_pixel_delta_into(
        &self,
        base: &Image,
        location: Location,
        pixel: Pixel,
        out: &mut Vec<f32>,
    ) {
        let scores = self.submit(Work::Delta {
            base: Arc::new(base.clone()),
            candidates: vec![(location, pixel)],
        });
        out.clear();
        out.extend_from_slice(&scores);
    }

    fn scores_pixel_delta_batch_into(
        &self,
        base: &Image,
        candidates: &[(Location, Pixel)],
        out: &mut Vec<f32>,
    ) {
        out.clear();
        if candidates.is_empty() {
            return;
        }
        let scores = self.submit(Work::Delta {
            base: Arc::new(base.clone()),
            candidates: candidates.to_vec(),
        });
        out.extend_from_slice(&scores);
    }
}

/// Pops one submission plus up to `max_merge - 1` further *delta*
/// submissions against the same shard. `Full` work is never merged (it
/// runs the plain forward path). Returns `None` when the queue is closed
/// and drained; the `bool` reports whether the batch held the coalescing
/// window open (metrics attribution only — never read back).
fn next_batch(inner: &Inner) -> Option<(Vec<Submission>, bool)> {
    let mut st = inner.lock();
    loop {
        if let Some(first) = st.pending.pop_front() {
            let mut batch = vec![first];
            let mut coalesce_waited = false;
            if matches!(batch[0].work, Work::Delta { .. }) {
                let shard = batch[0].shard;
                merge_pending(&mut st, &mut batch, shard, inner.cfg.max_merge);
                // Coalesce: while more sessions are live than this batch
                // covers, their next submissions are typically microseconds
                // away (each tenant is a closed loop around the oracle), so
                // holding the batch briefly buys merge depth. Bounded by
                // `cfg.coalesce`; a lone tenant never waits.
                if inner.cfg.coalesce > Duration::ZERO {
                    let deadline = Instant::now() + inner.cfg.coalesce;
                    while st.open
                        && batch.len() < inner.cfg.max_merge
                        && batch.len() < inner.active_sessions.load(Ordering::Relaxed)
                    {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        coalesce_waited = true;
                        let (st2, _timeout) = inner
                            .cv
                            .wait_timeout(st, deadline - now)
                            .unwrap_or_else(|poisoned| poisoned.into_inner());
                        st = st2;
                        merge_pending(&mut st, &mut batch, shard, inner.cfg.max_merge);
                    }
                }
            }
            return Some((batch, coalesce_waited));
        }
        if !st.open {
            return None;
        }
        st = inner
            .cv
            .wait(st)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
    }
}

/// Moves every pending delta submission against `shard` into `batch`, up
/// to `max_merge` total.
fn merge_pending(
    st: &mut QueueState,
    batch: &mut Vec<Submission>,
    shard: ShardKey,
    max_merge: usize,
) {
    let mut i = 0;
    while i < st.pending.len() && batch.len() < max_merge {
        let mergeable =
            st.pending[i].shard == shard && matches!(st.pending[i].work, Work::Delta { .. });
        if mergeable {
            batch.push(st.pending.remove(i).expect("index checked"));
        } else {
            i += 1;
        }
    }
}

fn worker_loop(inner: &Inner) {
    // One owned session per shard this worker has served. The LRU is
    // sized to the merge width so one grouped call can never need more
    // resident bases than the cache holds. Beside each session: its
    // metric handles and the last cache-stat reading (handles cached so
    // the registry lock is paid once per shard, stats diffed so the
    // shared counters see only this batch's activity).
    let mut sessions: HashMap<ShardKey, OwnedZooSession> = HashMap::new();
    let mut shard_metrics: HashMap<ShardKey, (Arc<ShardMetrics>, SessionCacheStats)> =
        HashMap::new();
    let mut out: Vec<f32> = Vec::new();
    while let Some((batch, coalesce_waited)) = next_batch(inner) {
        let shard = batch[0].shard;
        let session = sessions.entry(shard).or_insert_with(|| {
            let model = inner.zoo.shard(shard.0, shard.1);
            model.classifier.owned_session(inner.cfg.max_merge)
        });
        let sm = inner.metrics.as_ref().map(|m| {
            &mut *shard_metrics
                .entry(shard)
                .or_insert_with(|| (m.shard(shard), SessionCacheStats::default()))
        });
        if let Some((sm, _)) = &sm {
            sm.queue_depth.add(-(batch.len() as i64));
            if coalesce_waited {
                sm.coalesce_waits.inc();
            }
        }
        match &batch[0].work {
            Work::Full(image) => {
                debug_assert_eq!(batch.len(), 1, "full forwards are never merged");
                if let Some((sm, _)) = &sm {
                    sm.full_calls.inc();
                }
                session.scores_into(image, &mut out);
                // A dead reply just means the tenant hung up mid-job.
                let _ = batch[0].reply.send(out.clone());
            }
            Work::Delta { .. } => {
                telemetry::count(telemetry::Counter::SchedGroupedCalls);
                telemetry::count_n(
                    telemetry::Counter::SchedGroupedSubmissions,
                    batch.len() as u64,
                );
                if let Some((sm, _)) = &sm {
                    if batch.len() > 1 {
                        sm.grouped_calls.inc();
                    } else {
                        sm.solo_calls.inc();
                    }
                    sm.merged_submissions.add(batch.len() as u64);
                    sm.batch_size.observe(batch.len() as u64);
                }
                let groups: Vec<DeltaGroup<'_>> = batch
                    .iter()
                    .map(|s| match &s.work {
                        Work::Delta { base, candidates } => DeltaGroup { base, candidates },
                        Work::Full(_) => unreachable!("merge only packs delta work"),
                    })
                    .collect();
                session.scores_pixel_delta_grouped_into(&groups, &mut out);
                let classes = session.num_classes();
                let mut offset = 0;
                for sub in &batch {
                    let n = match &sub.work {
                        Work::Delta { candidates, .. } => candidates.len() * classes,
                        Work::Full(_) => unreachable!("merge only packs delta work"),
                    };
                    let _ = sub.reply.send(out[offset..offset + n].to_vec());
                    offset += n;
                }
            }
        }
        if let Some((sm, prev)) = sm {
            let now = session.cache_stats();
            sm.lru_hits.add(now.hits - prev.hits);
            sm.lru_rebases.add(now.rebases - prev.rebases);
            sm.lru_colds.add(now.colds - prev.colds);
            *prev = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oppsla_core::oracle::BatchClassifier;
    use oppsla_eval::zoo::{Scale, ZooConfig};
    use oppsla_nn::models::Arch;

    fn fast_zoo() -> Arc<ShardedZoo> {
        Arc::new(ShardedZoo::new(
            ZooConfig {
                train_per_class: 8,
                epochs: Some(2),
                learning_rate: 2e-3,
                seed: 1,
                cache_dir: None,
            },
            2,
            9,
        ))
    }

    #[test]
    fn scheduled_scores_match_direct_sessions() {
        let zoo = fast_zoo();
        let shard = zoo.shard(Arch::Mlp, Scale::Cifar);
        let scheduler = Scheduler::start(Arc::clone(&zoo), SchedulerConfig::default());
        let clf = scheduler.handle().classifier((Arch::Mlp, Scale::Cifar));

        let direct = shard.classifier.session();
        let (image, _) = &shard.test_set[0];
        let mut want = Vec::new();
        let mut got = Vec::new();
        direct.scores_into(image, &mut want);
        clf.scores_into(image, &mut got);
        assert_eq!(got, want, "full forwards diverged");

        let candidates: Vec<(Location, Pixel)> = (0..5)
            .map(|i| {
                (
                    Location::new(i, 2 * i),
                    Pixel([0.1 * f32::from(i), 0.9, 0.2]),
                )
            })
            .collect();
        direct.scores_pixel_delta_batch_into(image, &candidates, &mut want);
        clf.scores_pixel_delta_batch_into(image, &candidates, &mut got);
        assert_eq!(got, want, "batched deltas diverged");

        let (loc, px) = candidates[3];
        direct.scores_pixel_delta_into(image, loc, px, &mut want);
        clf.scores_pixel_delta_into(image, loc, px, &mut got);
        assert_eq!(got, want, "single deltas diverged");
        scheduler.shutdown();
    }

    #[test]
    fn concurrent_tenants_get_their_own_answers() {
        let zoo = fast_zoo();
        let shard = zoo.shard(Arch::Mlp, Scale::Cifar);
        let scheduler = Scheduler::start(
            Arc::clone(&zoo),
            SchedulerConfig {
                workers: 2,
                max_merge: 4,
                ..SchedulerConfig::default()
            },
        );
        let handle = scheduler.handle();
        let threads: Vec<_> = (0..6u16)
            .map(|t| {
                let handle = handle.clone();
                let shard = Arc::clone(&shard);
                std::thread::spawn(move || {
                    let clf = handle.classifier((Arch::Mlp, Scale::Cifar));
                    let (image, _) = &shard.test_set[usize::from(t) % shard.test_set.len()];
                    let candidates: Vec<(Location, Pixel)> = (0..4)
                        .map(|i| {
                            (
                                Location::new(t + i, i),
                                Pixel([f32::from(i) * 0.2, 0.5, f32::from(t) * 0.1]),
                            )
                        })
                        .collect();
                    let mut got = Vec::new();
                    for _ in 0..10 {
                        clf.scores_pixel_delta_batch_into(image, &candidates, &mut got);
                    }
                    (t, candidates, got)
                })
            })
            .collect();
        for th in threads {
            let (t, candidates, got) = th.join().unwrap();
            let (image, _) = &shard.test_set[usize::from(t) % shard.test_set.len()];
            let isolated = shard.classifier.session();
            let mut want = Vec::new();
            isolated.scores_pixel_delta_batch_into(image, &candidates, &mut want);
            assert_eq!(got, want, "tenant {t} got someone else's scores");
        }
        scheduler.shutdown();
    }

    #[test]
    fn queue_depth_gauge_drains_to_zero_and_dispatches_balance() {
        let zoo = fast_zoo();
        let shard_key = (Arch::Mlp, Scale::Cifar);
        let shard = zoo.shard(shard_key.0, shard_key.1);
        let metrics = Arc::new(crate::metrics::ServerMetrics::new());
        let scheduler = Scheduler::start_with_metrics(
            Arc::clone(&zoo),
            SchedulerConfig {
                workers: 2,
                max_merge: 4,
                ..SchedulerConfig::default()
            },
            Some(Arc::clone(&metrics)),
        );
        let handle = scheduler.handle();
        const TENANTS: usize = 4;
        const CALLS: usize = 5;
        let threads: Vec<_> = (0..TENANTS)
            .map(|t| {
                let handle = handle.clone();
                let shard = Arc::clone(&shard);
                std::thread::spawn(move || {
                    let clf = handle.classifier((Arch::Mlp, Scale::Cifar));
                    let (image, _) = &shard.test_set[t % shard.test_set.len()];
                    let candidates = vec![(Location::new(1, 2), Pixel([0.3, 0.6, 0.9])); 3];
                    let mut got = Vec::new();
                    clf.scores_into(image, &mut got);
                    for _ in 0..CALLS {
                        clf.scores_pixel_delta_batch_into(image, &candidates, &mut got);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        scheduler.shutdown();
        let sm = metrics.shard(shard_key);
        assert_eq!(
            sm.queue_depth.get(),
            0,
            "every enqueued submission was dispatched"
        );
        assert_eq!(
            sm.merged_submissions.get(),
            (TENANTS * CALLS) as u64,
            "every delta submission is accounted in exactly one dispatch"
        );
        assert_eq!(sm.full_calls.get(), TENANTS as u64);
        assert_eq!(
            sm.batch_size.count(),
            sm.grouped_calls.get() + sm.solo_calls.get(),
            "each delta dispatch observes its size once"
        );
        assert_eq!(sm.batch_size.sum(), sm.merged_submissions.get());
    }
}
