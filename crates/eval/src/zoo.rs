//! The trained classifier zoo: builds, trains, caches and serves the
//! models the experiments attack.
//!
//! Experiment binaries call [`train_or_load`]; weights are cached under a
//! configurable directory (default `target/oppsla-models`) so repeated
//! runs skip training.

use crate::convert::{image_into_tensor, image_to_tensor};
use oppsla_core::image::Image;
use oppsla_core::oracle::{BatchClassifier, Classifier};
use oppsla_core::pair::{Location, Pixel};
use oppsla_core::telemetry::{self, Counter};
use oppsla_data::{Dataset, DatasetSpec};
use oppsla_nn::delta::{BaseActivations, DeltaBatchScratch, DeltaPlan, DeltaWorkspace};
use oppsla_nn::infer::{ForwardWorkspace, InferenceEngine, InferencePlan};
use oppsla_nn::models::{Arch, ConvNet, InputSpec};
use oppsla_nn::serialize::{load_weights, save_weights, WeightError};
use oppsla_nn::trainer::{evaluate_accuracy, fit, TrainConfig};
use oppsla_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::fmt;
use std::path::PathBuf;

/// The two evaluation scales of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// CIFAR-10 stand-in: `shapes32` (32×32, 10 classes).
    Cifar,
    /// ImageNet stand-in: `shapes64` (64×64, 20 classes).
    ImageNetLike,
}

impl Scale {
    /// The dataset specification of this scale.
    pub fn dataset_spec(&self) -> DatasetSpec {
        match self {
            Scale::Cifar => DatasetSpec::shapes32(),
            Scale::ImageNetLike => DatasetSpec::shapes64(),
        }
    }

    /// The network input geometry of this scale.
    pub fn input_spec(&self) -> InputSpec {
        match self {
            Scale::Cifar => InputSpec::RGB32,
            Scale::ImageNetLike => InputSpec::RGB64,
        }
    }

    /// A short identifier for cache file names.
    pub fn id(&self) -> &'static str {
        match self {
            Scale::Cifar => "shapes32",
            Scale::ImageNetLike => "shapes64",
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// Training/caching configuration for the zoo.
#[derive(Debug, Clone, PartialEq)]
pub struct ZooConfig {
    /// Training images generated per class.
    pub train_per_class: usize,
    /// Epochs of Adam training; `None` picks a per-architecture default
    /// calibrated so every family lands at moderate accuracy with a
    /// realistic one-pixel-vulnerable population (see DESIGN.md).
    pub epochs: Option<usize>,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Seed for data generation, weight init and shuffling.
    pub seed: u64,
    /// Weight-cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ZooConfig {
    fn default() -> Self {
        ZooConfig {
            train_per_class: 40,
            epochs: None,
            learning_rate: 1e-3,
            seed: 0xA77AC4,
            cache_dir: Some(PathBuf::from("target/oppsla-models")),
        }
    }
}

/// Per-architecture default epochs: calibrated (by a margin-sensitivity
/// sweep) so each family trains to moderate accuracy while keeping a
/// sizeable population of one-pixel-vulnerable test images.
fn default_epochs(arch: Arch) -> usize {
    match arch {
        Arch::VggSmall => 2,
        Arch::ResNetSmall => 4,
        Arch::GoogLeNetSmall => 4,
        Arch::DenseNetSmall => 3,
        Arch::Mlp => 4,
    }
}

/// A trained classifier from the zoo.
///
/// Queries are served by a compiled [`InferenceEngine`] (bit-identical to
/// the autograd tape, allocation-free in steady state) built from the
/// weights at construction time. If the wrapped network is trained further
/// through [`ZooModel::network`], call [`ZooModel::recompile`] to refresh
/// the engine.
pub struct ZooModel {
    net: ConvNet,
    engine: InferenceEngine,
    scale: Scale,
    /// Accuracy on a held-out generated test set.
    pub test_accuracy: f32,
}

impl fmt::Debug for ZooModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ZooModel")
            .field("arch", &self.net.arch())
            .field("scale", &self.scale)
            .field("test_accuracy", &self.test_accuracy)
            .finish()
    }
}

impl ZooModel {
    /// The architecture family.
    pub fn arch(&self) -> Arch {
        self.net.arch()
    }

    /// The evaluation scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The wrapped network (e.g. for further training or inspection).
    pub fn network(&self) -> &ConvNet {
        &self.net
    }

    /// Rebuilds the inference engine from the network's current weights
    /// (needed after training the network further).
    pub fn recompile(&mut self) {
        self.engine = InferenceEngine::new(&self.net);
    }

    /// A thread-safe, allocation-free classifier snapshotting the current
    /// weights — the handle to pass to the `*_parallel` evaluation paths.
    pub fn classifier(&self) -> ZooClassifier {
        ZooClassifier {
            engine: InferenceEngine::new(&self.net),
        }
    }
}

impl Classifier for ZooModel {
    fn num_classes(&self) -> usize {
        self.net.num_classes()
    }

    fn scores(&self, image: &Image) -> Vec<f32> {
        self.engine.scores(&image_to_tensor(image))
    }

    fn scores_into(&self, image: &Image, out: &mut Vec<f32>) {
        self.engine.scores_into(&image_to_tensor(image), out);
    }

    fn scores_pixel_delta_into(
        &self,
        base: &Image,
        location: Location,
        pixel: Pixel,
        out: &mut Vec<f32>,
    ) {
        self.engine.scores_pixel_delta_into(
            &image_to_tensor(base),
            location.row as usize,
            location.col as usize,
            pixel.0,
            out,
        );
    }
}

/// A standalone engine-backed classifier: owns a compiled weight snapshot
/// and no tape state, so it is `Sync` and can serve concurrent queries via
/// [`BatchClassifier::session`] handles (one forward workspace each).
pub struct ZooClassifier {
    engine: InferenceEngine,
}

impl ZooClassifier {
    /// Compiles a classifier from a network's current weights.
    pub fn new(net: &ConvNet) -> Self {
        ZooClassifier {
            engine: InferenceEngine::new(net),
        }
    }
}

impl fmt::Debug for ZooClassifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ZooClassifier({} classes)", self.num_classes())
    }
}

impl Classifier for ZooClassifier {
    fn num_classes(&self) -> usize {
        self.engine.plan().num_classes()
    }

    fn scores(&self, image: &Image) -> Vec<f32> {
        self.engine.scores(&image_to_tensor(image))
    }

    fn scores_into(&self, image: &Image, out: &mut Vec<f32>) {
        self.engine.scores_into(&image_to_tensor(image), out);
    }

    fn scores_pixel_delta_into(
        &self,
        base: &Image,
        location: Location,
        pixel: Pixel,
        out: &mut Vec<f32>,
    ) {
        self.engine.scores_pixel_delta_into(
            &image_to_tensor(base),
            location.row as usize,
            location.col as usize,
            pixel.0,
            out,
        );
    }
}

impl BatchClassifier for ZooClassifier {
    fn session(&self) -> Box<dyn Classifier + '_> {
        self.session_with_cache_capacity(1)
    }
}

impl ZooClassifier {
    /// A session whose delta cache keeps up to `capacity` base images
    /// resident (LRU eviction) instead of the single-slot default — the
    /// handle for callers that interleave queries against several bases
    /// (the attack server's batch scheduler) and would otherwise
    /// rebase-thrash a one-slot cache on every base switch.
    pub fn session_with_cache_capacity(&self, capacity: usize) -> Box<dyn Classifier + '_> {
        Box::new(ZooSession {
            plan: self.engine.plan(),
            delta: self.engine.delta_plan(),
            state: RefCell::new(SessionState::new(self.engine.plan(), capacity)),
        })
    }

    /// An owned session over an `Arc`-shared classifier: the same
    /// incremental machinery as [`BatchClassifier::session`], but with no
    /// borrow of the classifier, so it can move into a long-lived worker
    /// thread. Methods take `&mut self` (a worker owns its session).
    pub fn owned_session(self: &std::sync::Arc<Self>, cache_capacity: usize) -> OwnedZooSession {
        OwnedZooSession {
            state: SessionState::new(self.engine.plan(), cache_capacity),
            classifier: std::sync::Arc::clone(self),
        }
    }
}

/// A per-thread query handle over a shared [`InferencePlan`]: carries its
/// own forward workspace and input scratch tensor, so steady-state queries
/// through [`Classifier::scores_into`] perform zero heap allocations.
///
/// Pixel-delta queries ([`Classifier::scores_pixel_delta_into`]) are
/// served incrementally: the first query against a new base image
/// captures a [`BaseActivations`] snapshot (one full forward), and every
/// further candidate against that base recomputes only its dirty region.
/// The session keeps an LRU of such snapshots (capacity 1 by default; see
/// [`ZooClassifier::session_with_cache_capacity`]), so callers serving
/// several interleaved bases don't pay a full recapture per switch.
pub struct ZooSession<'a> {
    plan: &'a InferencePlan,
    delta: &'a DeltaPlan,
    state: RefCell<SessionState>,
}

/// One candidate group of a cross-tenant grouped delta call: a base image
/// and the one-pixel candidates perturbing it (see
/// [`OwnedZooSession::scores_pixel_delta_grouped_into`]).
#[derive(Debug)]
pub struct DeltaGroup<'a> {
    /// The base image every candidate of this group perturbs.
    pub base: &'a Image,
    /// The group's candidates.
    pub candidates: &'a [(Location, Pixel)],
}

struct SessionState {
    ws: ForwardWorkspace,
    input: Tensor,
    /// Resident base snapshots, most recently used first.
    caches: Vec<SessionDeltaCache>,
    /// Maximum resident snapshots before LRU eviction (≥ 1).
    cache_capacity: usize,
    /// Monotonic id generator for cache contents: bumped whenever a slot
    /// captures or recaptures, so pooled grouped workspaces can tell
    /// whether their buffers still track the snapshot they were seeded
    /// from.
    next_cache_gen: u64,
    /// Reusable candidate buffer for batched delta queries.
    batch_candidates: Vec<(usize, usize, [f32; 3])>,
    /// Always-on LRU accounting (see [`SessionCacheStats`]): plain u64
    /// bumps, read by the attack server's live metrics plane. Unlike the
    /// feature-gated telemetry counts these exist in every build, so a
    /// default-build daemon can still report its cache behavior.
    cache_stats: SessionCacheStats,
    /// Workspace pool for grouped (multi-base) delta calls, parallel to
    /// `grouped_tags`.
    grouped_dws: Vec<DeltaWorkspace>,
    /// The cache generation each pooled workspace currently tracks.
    grouped_tags: Vec<u64>,
    /// Shared batched-route scratch for grouped delta calls.
    grouped_scratch: DeltaBatchScratch,
}

/// Cumulative base-snapshot LRU accounting for one session: how many
/// pixel-delta dispatches found their base resident (`hits`), recaptured
/// the least-recently-used slot for a new base (`rebases` — the eviction
/// path), or populated an empty slot (`colds`). Monotone totals; diff
/// two readings for a per-interval rate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCacheStats {
    /// Dispatches whose base snapshot was already resident.
    pub hits: u64,
    /// Dispatches that evicted (recaptured) the LRU slot.
    pub rebases: u64,
    /// Dispatches that filled a previously empty slot.
    pub colds: u64,
}

struct SessionDeltaCache {
    base_image: Image,
    base: BaseActivations,
    /// Content id (see `SessionState::next_cache_gen`).
    gen: u64,
    dws: DeltaWorkspace,
    /// One workspace per in-flight batched candidate, grown on demand.
    batch_dws: Vec<DeltaWorkspace>,
    /// Shared scratch for the batched delta route.
    batch_scratch: DeltaBatchScratch,
}

impl SessionState {
    fn new(plan: &InferencePlan, cache_capacity: usize) -> Self {
        let spec = plan.input_spec();
        SessionState {
            ws: plan.workspace(),
            input: Tensor::zeros([spec.channels, spec.height, spec.width]),
            caches: Vec::new(),
            cache_capacity: cache_capacity.max(1),
            next_cache_gen: 0,
            batch_candidates: Vec::new(),
            cache_stats: SessionCacheStats::default(),
            grouped_dws: Vec::new(),
            grouped_tags: Vec::new(),
            grouped_scratch: DeltaBatchScratch::new(),
        }
    }

    /// Ensures some resident cache tracks `base` (LRU hit / recapture of
    /// the least recently used slot / cold capture, with telemetry) and
    /// moves it to the front (`caches[0]`). Returns the front cache's
    /// content generation. Batch workspaces are re-seeded on a rebase so
    /// stale activations from the previous base can never leak into a
    /// batched candidate.
    fn ensure_cache(&mut self, plan: &InferencePlan, delta: &DeltaPlan, base: &Image) -> u64 {
        if let Some(i) = self.caches.iter().position(|c| c.base_image == *base) {
            self.cache_stats.hits += 1;
            telemetry::count(Counter::DeltaCacheHit);
            telemetry::trace::tag_cache(telemetry::trace::CacheTag::Hit);
            self.caches[..=i].rotate_right(1);
        } else if self.caches.len() < self.cache_capacity {
            self.cache_stats.colds += 1;
            telemetry::count(Counter::DeltaCacheCold);
            telemetry::trace::tag_cache(telemetry::trace::CacheTag::Cold);
            image_into_tensor(base, &mut self.input);
            let acts = BaseActivations::capture(plan, &mut self.ws, &self.input);
            let dws = delta.workspace(&acts);
            self.next_cache_gen += 1;
            self.caches.insert(
                0,
                SessionDeltaCache {
                    base_image: base.clone(),
                    base: acts,
                    gen: self.next_cache_gen,
                    dws,
                    batch_dws: Vec::new(),
                    batch_scratch: DeltaBatchScratch::new(),
                },
            );
        } else {
            self.cache_stats.rebases += 1;
            telemetry::count(Counter::DeltaCacheRebase);
            telemetry::trace::tag_cache(telemetry::trace::CacheTag::Rebase);
            image_into_tensor(base, &mut self.input);
            let c = self.caches.last_mut().expect("capacity >= 1");
            c.base.recapture(plan, &mut self.ws, &self.input);
            c.dws.reset_from(&c.base);
            for dws in &mut c.batch_dws {
                dws.reset_from(&c.base);
            }
            c.base_image.clone_from(base);
            self.next_cache_gen += 1;
            c.gen = self.next_cache_gen;
            self.caches.rotate_right(1);
        }
        self.caches[0].gen
    }

    fn scores_into(&mut self, plan: &InferencePlan, image: &Image, out: &mut Vec<f32>) {
        image_into_tensor(image, &mut self.input);
        plan.scores_into(&mut self.ws, &self.input, out);
    }

    fn pixel_delta_into(
        &mut self,
        plan: &InferencePlan,
        delta: &DeltaPlan,
        base: &Image,
        location: Location,
        pixel: Pixel,
        out: &mut Vec<f32>,
    ) {
        self.ensure_cache(plan, delta, base);
        let c = &mut self.caches[0];
        delta.scores_pixel_delta_into(
            plan,
            &c.base,
            &mut c.dws,
            location.row as usize,
            location.col as usize,
            pixel.0,
            out,
        );
    }

    fn pixel_delta_batch_into(
        &mut self,
        plan: &InferencePlan,
        delta: &DeltaPlan,
        base: &Image,
        candidates: &[(Location, Pixel)],
        out: &mut Vec<f32>,
    ) {
        out.clear();
        if candidates.is_empty() {
            return;
        }
        self.ensure_cache(plan, delta, base);
        let SessionState {
            caches,
            batch_candidates,
            ..
        } = self;
        let c = &mut caches[0];
        while c.batch_dws.len() < candidates.len() {
            c.batch_dws.push(delta.workspace(&c.base));
        }
        batch_candidates.clear();
        batch_candidates.extend(
            candidates
                .iter()
                .map(|&(location, pixel)| (location.row as usize, location.col as usize, pixel.0)),
        );
        delta.scores_pixel_delta_batch_into(
            plan,
            &c.base,
            &mut c.batch_dws[..candidates.len()],
            batch_candidates,
            &mut c.batch_scratch,
            out,
        );
    }

    /// Scores several groups of one-pixel candidates — each group against
    /// its own base image — in **one** multi-base batched call, so
    /// candidates from different groups (different tenants, in the attack
    /// server) share conv pixel tiles and fully connected row tiles. Appends `num_classes` softmax
    /// scores per candidate to `out` (cleared first), group by group in
    /// order; each candidate's scores are bit-identical to a sequential
    /// [`Classifier::scores_pixel_delta_into`] against its own base.
    fn pixel_delta_grouped_into(
        &mut self,
        plan: &InferencePlan,
        delta: &DeltaPlan,
        groups: &[DeltaGroup<'_>],
        out: &mut Vec<f32>,
    ) {
        out.clear();
        if groups.is_empty() {
            return;
        }
        let distinct = {
            let mut n = 0;
            for (i, g) in groups.iter().enumerate() {
                if !groups[..i].iter().any(|h| h.base == g.base) {
                    n += 1;
                }
            }
            n
        };
        assert!(
            distinct <= self.cache_capacity,
            "a grouped call touches {distinct} distinct bases but the session \
             holds at most {} — a larger cache capacity is required so the \
             ensure pass cannot evict a base needed by the same call",
            self.cache_capacity
        );
        // Pass 1: make every group's base resident and record which cache
        // content (generation) each candidate needs.
        let total: usize = groups.iter().map(|g| g.candidates.len()).sum();
        self.batch_candidates.clear();
        let mut gens = Vec::with_capacity(total);
        for g in groups {
            let gen = self.ensure_cache(plan, delta, g.base);
            for &(location, pixel) in g.candidates {
                self.batch_candidates
                    .push((location.row as usize, location.col as usize, pixel.0));
                gens.push(gen);
            }
        }
        // Pass 2: assign pooled workspaces. A workspace whose tag differs
        // from its candidate's generation is reseeded from that snapshot
        // (full copy); matching tags only need the incremental restore
        // `begin_candidate` already performs.
        let SessionState {
            caches,
            grouped_dws,
            grouped_tags,
            grouped_scratch,
            batch_candidates,
            ..
        } = self;
        let find = |gen: u64| -> &SessionDeltaCache {
            caches
                .iter()
                .find(|c| c.gen == gen)
                .expect("resident: ensured above and capacity covers all groups")
        };
        while grouped_dws.len() < total {
            // Seeding from any snapshot is fine — the tag mismatch below
            // reseeds from the right one.
            let c = &caches[0];
            grouped_dws.push(delta.workspace(&c.base));
            grouped_tags.push(c.gen);
        }
        for i in 0..total {
            if grouped_tags[i] != gens[i] {
                grouped_dws[i].reset_from(&find(gens[i]).base);
                grouped_tags[i] = gens[i];
            }
        }
        let bases: Vec<&BaseActivations> = gens.iter().map(|&g| &find(g).base).collect();
        delta.scores_pixel_delta_multi_into(
            plan,
            &bases,
            &mut grouped_dws[..total],
            batch_candidates,
            grouped_scratch,
            out,
        );
    }
}

impl Classifier for ZooSession<'_> {
    fn num_classes(&self) -> usize {
        self.plan.num_classes()
    }

    fn scores(&self, image: &Image) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_classes());
        self.scores_into(image, &mut out);
        out
    }

    fn scores_into(&self, image: &Image, out: &mut Vec<f32>) {
        self.state.borrow_mut().scores_into(self.plan, image, out);
    }

    fn scores_pixel_delta_into(
        &self,
        base: &Image,
        location: Location,
        pixel: Pixel,
        out: &mut Vec<f32>,
    ) {
        self.state
            .borrow_mut()
            .pixel_delta_into(self.plan, self.delta, base, location, pixel, out);
    }

    fn scores_pixel_delta_batch_into(
        &self,
        base: &Image,
        candidates: &[(Location, Pixel)],
        out: &mut Vec<f32>,
    ) {
        self.state
            .borrow_mut()
            .pixel_delta_batch_into(self.plan, self.delta, base, candidates, out);
    }
}

/// An owned per-worker session over an `Arc`-shared [`ZooClassifier`]:
/// the attack server's scheduler workers each hold one per model shard.
/// Same incremental machinery as [`ZooSession`] (LRU of base snapshots,
/// batched delta routes) plus the cross-tenant grouped entry point.
pub struct OwnedZooSession {
    classifier: std::sync::Arc<ZooClassifier>,
    state: SessionState,
}

impl OwnedZooSession {
    /// Class count of the underlying model.
    pub fn num_classes(&self) -> usize {
        self.classifier.num_classes()
    }

    /// Full forward scores for `image` (allocation-free steady state).
    pub fn scores_into(&mut self, image: &Image, out: &mut Vec<f32>) {
        self.state
            .scores_into(self.classifier.engine.plan(), image, out);
    }

    /// Incremental scores for one one-pixel candidate against `base`.
    pub fn scores_pixel_delta_into(
        &mut self,
        base: &Image,
        location: Location,
        pixel: Pixel,
        out: &mut Vec<f32>,
    ) {
        self.state.pixel_delta_into(
            self.classifier.engine.plan(),
            self.classifier.engine.delta_plan(),
            base,
            location,
            pixel,
            out,
        );
    }

    /// Cumulative LRU accounting for this session's base-snapshot cache
    /// (always compiled; see [`SessionCacheStats`]). The attack server's
    /// scheduler workers diff successive readings to publish per-shard
    /// hit/eviction rates on their live metrics plane.
    #[must_use]
    pub fn cache_stats(&self) -> SessionCacheStats {
        self.state.cache_stats
    }

    /// Scores several candidate groups — each against its own base — in
    /// one multi-base batched call (see [`DeltaGroup`]): the cross-tenant
    /// packing entry of the attack server's batch scheduler. Appends
    /// `num_classes` softmax scores per candidate to `out` (cleared
    /// first), group by group in order; every candidate is bit-identical
    /// to its isolated sequential query.
    ///
    /// # Panics
    ///
    /// Panics if the groups touch more distinct bases than the session's
    /// cache capacity ([`ZooClassifier::owned_session`]).
    pub fn scores_pixel_delta_grouped_into(
        &mut self,
        groups: &[DeltaGroup<'_>],
        out: &mut Vec<f32>,
    ) {
        self.state.pixel_delta_grouped_into(
            self.classifier.engine.plan(),
            self.classifier.engine.delta_plan(),
            groups,
            out,
        );
    }
}

/// Trains (or loads from cache) a zoo model of `arch` at `scale`.
///
/// The model is trained on a freshly generated dataset and its accuracy is
/// measured on a held-out split. A cache hit skips training but still
/// regenerates the held-out split to recompute the accuracy (cheap).
pub fn train_or_load(arch: Arch, scale: Scale, config: &ZooConfig) -> ZooModel {
    let spec = scale.dataset_spec();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ arch_seed(arch));
    let net = ConvNet::build(arch, scale.input_spec(), spec.num_classes(), &mut rng);

    let epochs = config.epochs.unwrap_or_else(|| default_epochs(arch));
    let cache_path = config.cache_dir.as_ref().map(|dir| {
        dir.join(format!(
            "{}-{}-s{}-t{}-e{}.json",
            arch.id(),
            scale.id(),
            config.seed,
            config.train_per_class,
            epochs
        ))
    });

    let test = Dataset::generate(&spec, test_per_class(scale), config.seed.wrapping_add(1));

    if let Some(path) = &cache_path {
        match load_weights(&net, path) {
            Ok(()) => {
                telemetry::count(Counter::WeightCacheHit);
                let test_accuracy = evaluate_accuracy(&net, &test.images, &test.labels);
                let engine = InferenceEngine::new(&net);
                return ZooModel {
                    net,
                    engine,
                    scale,
                    test_accuracy,
                };
            }
            Err(WeightError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                // Plain cache miss: first run, nothing to warn about.
                telemetry::count(Counter::WeightCacheMiss);
            }
            Err(e) => {
                // Corrupted or mismatched cache file (truncated write,
                // stale format, wrong architecture). `load_weights`
                // validates before touching the network, so `net` is
                // still the fresh initialization: treat this exactly
                // like a miss — retrain and overwrite the bad file.
                telemetry::count(Counter::WeightCacheCorrupt);
                eprintln!(
                    "warning: ignoring unusable weight cache at {}: {e}; retraining",
                    path.display()
                );
            }
        }
    }

    let train = Dataset::generate(&spec, config.train_per_class, config.seed);
    fit(
        &net,
        &train.images,
        &train.labels,
        &TrainConfig {
            epochs,
            batch_size: 32,
            learning_rate: config.learning_rate,
            seed: config.seed,
        },
    );
    let test_accuracy = evaluate_accuracy(&net, &test.images, &test.labels);

    if let Some(path) = &cache_path {
        // Cache failures are non-fatal: the model is still usable.
        if let Err(e) = save_weights(&net, path) {
            eprintln!(
                "warning: failed to cache weights at {}: {e}",
                path.display()
            );
        }
    }
    let engine = InferenceEngine::new(&net);
    ZooModel {
        net,
        engine,
        scale,
        test_accuracy,
    }
}

/// Generates a labelled test set at `scale` as attack-core images,
/// `per_class` samples per class.
pub fn attack_test_set(scale: Scale, per_class: usize, seed: u64) -> Vec<(Image, usize)> {
    let spec = scale.dataset_spec();
    let data = Dataset::generate(&spec, per_class, seed);
    data.images
        .iter()
        .zip(&data.labels)
        .map(|(t, &l)| (crate::convert::tensor_to_image(t), l))
        .collect()
}

fn test_per_class(scale: Scale) -> usize {
    match scale {
        Scale::Cifar => 20,
        Scale::ImageNetLike => 10,
    }
}

fn arch_seed(arch: Arch) -> u64 {
    match arch {
        Arch::VggSmall => 0x1,
        Arch::ResNetSmall => 0x2,
        Arch::GoogLeNetSmall => 0x3,
        Arch::DenseNetSmall => 0x4,
        Arch::Mlp => 0x5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config(cache: bool) -> ZooConfig {
        ZooConfig {
            train_per_class: 8,
            epochs: Some(2),
            learning_rate: 2e-3,
            seed: 1,
            cache_dir: cache.then(|| {
                std::env::temp_dir().join(format!("oppsla-zoo-test-{}", std::process::id()))
            }),
        }
    }

    #[test]
    fn trains_an_mlp_and_serves_scores() {
        let model = train_or_load(Arch::Mlp, Scale::Cifar, &fast_config(false));
        assert_eq!(model.num_classes(), 10);
        let test = attack_test_set(Scale::Cifar, 1, 2);
        let scores = model.scores(&test[0].0);
        assert_eq!(scores.len(), 10);
        let sum: f32 = scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "scores are a distribution: {sum}");
    }

    #[test]
    fn cache_round_trip_gives_identical_scores() {
        let config = fast_config(true);
        let a = train_or_load(Arch::Mlp, Scale::Cifar, &config);
        let b = train_or_load(Arch::Mlp, Scale::Cifar, &config); // cache hit
        let test = attack_test_set(Scale::Cifar, 1, 3);
        for (img, _) in &test {
            assert_eq!(a.scores(img), b.scores(img));
        }
        assert_eq!(a.test_accuracy, b.test_accuracy);
    }

    #[test]
    fn engine_scores_match_the_tape() {
        let model = train_or_load(Arch::Mlp, Scale::Cifar, &fast_config(false));
        let test = attack_test_set(Scale::Cifar, 1, 4);
        for (img, _) in &test {
            assert_eq!(
                model.scores(img),
                model.network().scores(&image_to_tensor(img)),
                "engine must be bit-identical to the tape"
            );
        }
    }

    #[test]
    fn zoo_classifier_and_sessions_agree_with_the_model() {
        let model = train_or_load(Arch::Mlp, Scale::Cifar, &fast_config(false));
        let classifier = model.classifier();
        let session = classifier.session();
        let test = attack_test_set(Scale::Cifar, 1, 5);
        let mut buf = Vec::new();
        for (img, _) in &test {
            let expected = model.scores(img);
            assert_eq!(classifier.scores(img), expected);
            session.scores_into(img, &mut buf);
            assert_eq!(buf, expected);
        }
    }

    #[test]
    fn session_pixel_delta_matches_full_scores() {
        let model = train_or_load(Arch::VggSmall, Scale::Cifar, &fast_config(false));
        let classifier = model.classifier();
        let session = classifier.session();
        let test = attack_test_set(Scale::Cifar, 1, 6);
        let mut delta_buf = Vec::new();
        let mut full_buf = Vec::new();
        // Interleave two base images so the session's delta cache is
        // exercised across base switches, not just steady-state hits.
        for round in 0..2 {
            for (img, _) in test.iter().take(2) {
                for &(row, col) in &[(0u16, 0u16), (31, 31), (16, 7 + round)] {
                    let location = Location { row, col };
                    let pixel = Pixel([1.0, 0.0, 0.5]);
                    session.scores_pixel_delta_into(img, location, pixel, &mut delta_buf);
                    let poked = img.with_pixel(location, pixel);
                    session.scores_into(&poked, &mut full_buf);
                    assert_eq!(
                        delta_buf, full_buf,
                        "incremental path must be bit-identical to a full forward"
                    );
                }
            }
        }
        // The model- and classifier-level overrides delegate to the shared
        // engine cache; they must agree with the session too.
        let (img, _) = &test[0];
        let location = Location { row: 3, col: 30 };
        let pixel = Pixel([0.0, 0.25, 0.75]);
        session.scores_pixel_delta_into(img, location, pixel, &mut delta_buf);
        model.scores_pixel_delta_into(img, location, pixel, &mut full_buf);
        assert_eq!(delta_buf, full_buf);
        classifier.scores_pixel_delta_into(img, location, pixel, &mut full_buf);
        assert_eq!(delta_buf, full_buf);
    }

    #[test]
    fn session_batch_paths_match_sequential() {
        let model = train_or_load(Arch::VggSmall, Scale::Cifar, &fast_config(false));
        let classifier = model.classifier();
        let session = classifier.session();
        let test = attack_test_set(Scale::Cifar, 1, 8);
        let images: Vec<Image> = test.iter().take(2).map(|(img, _)| img.clone()).collect();
        let classes = session.num_classes();
        let (mut got, mut want) = (Vec::new(), Vec::new());

        // Batched pixel-delta: bit-identical to the sequential incremental
        // path, including across a delta-cache rebase (base switch).
        for base in [&images[0], &images[1]] {
            let candidates: Vec<(Location, Pixel)> = (0..6u16)
                .map(|i| {
                    (
                        Location::new(i * 5, 31 - i),
                        Pixel([1.0, 0.1 * i as f32, 0.0]),
                    )
                })
                .collect();
            session.scores_pixel_delta_batch_into(base, &candidates, &mut got);
            for (i, &(location, pixel)) in candidates.iter().enumerate() {
                session.scores_pixel_delta_into(base, location, pixel, &mut want);
                assert_eq!(
                    &got[i * classes..(i + 1) * classes],
                    &want[..],
                    "candidate {i} diverged"
                );
            }
        }
    }

    #[test]
    fn lru_session_avoids_rebase_thrash_and_stays_bit_identical() {
        let model = train_or_load(Arch::VggSmall, Scale::Cifar, &fast_config(false));
        let classifier = model.classifier();
        let test = attack_test_set(Scale::Cifar, 1, 9);
        let images: Vec<Image> = test.iter().take(3).map(|(img, _)| img.clone()).collect();
        let location = Location { row: 11, col: 22 };
        let pixel = Pixel([0.9, 0.2, 0.4]);

        // Reference: per-image expected scores from the single-slot path.
        let mut want = Vec::new();
        let mut expected = Vec::new();
        {
            let single = classifier.session();
            for img in &images {
                single.scores_pixel_delta_into(img, location, pixel, &mut want);
                expected.push(want.clone());
            }
        }

        // A capacity-3 session interleaving three bases: every query after
        // the three cold captures must be a cache hit (no rebases), and
        // every score bit-identical. The counts come from the session's
        // own accounting, so tests running alongside cannot disturb them.
        let mut lru = std::sync::Arc::new(classifier).owned_session(3);
        for round in 0..3 {
            for (i, img) in images.iter().enumerate() {
                lru.scores_pixel_delta_into(img, location, pixel, &mut want);
                assert_eq!(want, expected[i], "round {round} image {i}");
            }
        }
        assert_eq!(
            lru.cache_stats(),
            SessionCacheStats {
                hits: 6,
                rebases: 0,
                colds: 3,
            },
            "one cold capture per base, no rebase thrash, the other rounds all hit"
        );
    }

    #[test]
    fn grouped_scores_match_isolated_sessions() {
        let model = train_or_load(Arch::VggSmall, Scale::Cifar, &fast_config(false));
        let classifier = std::sync::Arc::new(model.classifier());
        let test = attack_test_set(Scale::Cifar, 1, 10);
        let images: Vec<Image> = test.iter().take(3).map(|(img, _)| img.clone()).collect();
        let candidates: Vec<Vec<(Location, Pixel)>> = (0..3u16)
            .map(|g| {
                (0..4u16)
                    .map(|i| {
                        (
                            Location::new(2 + 7 * i, 30 - g * 5),
                            Pixel([0.1 * i as f32, 0.9, 0.5]),
                        )
                    })
                    .collect()
            })
            .collect();

        let mut session = classifier.owned_session(4);
        let groups: Vec<DeltaGroup<'_>> = images
            .iter()
            .zip(&candidates)
            .map(|(base, cands)| DeltaGroup {
                base,
                candidates: cands,
            })
            .collect();
        let mut got = Vec::new();
        // Two rounds: the second exercises pooled-workspace reuse with
        // matching tags (the scheduler's steady state).
        for round in 0..2 {
            session.scores_pixel_delta_grouped_into(&groups, &mut got);
            let classes = session.num_classes();
            let mut flat = 0;
            let mut want = Vec::new();
            for (base, cands) in images.iter().zip(&candidates) {
                // Isolated reference: a fresh single-tenant session per group.
                let isolated = classifier.session();
                for &(location, pixel) in cands {
                    isolated.scores_pixel_delta_into(base, location, pixel, &mut want);
                    assert_eq!(
                        &got[flat * classes..(flat + 1) * classes],
                        &want[..],
                        "round {round} flat candidate {flat} diverged"
                    );
                    flat += 1;
                }
            }
        }
    }

    #[test]
    fn corrupted_weight_cache_falls_back_to_retraining() {
        // Regression: a truncated cache file (killed mid-write, disk
        // full) must behave as a cache miss — warn, retrain, and rewrite
        // the file — not poison every later run.
        let config = ZooConfig {
            cache_dir: fast_config(true).cache_dir.map(|d| d.join("corrupt")),
            ..fast_config(true)
        };
        let reference = train_or_load(Arch::Mlp, Scale::Cifar, &config);
        let dir = config.cache_dir.as_ref().unwrap();
        let path = std::fs::read_dir(dir)
            .expect("cache dir exists after first train")
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "json"))
            .expect("first run wrote a cache file");

        // Truncate mid-byte: cut the JSON in half.
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.len() > 2);
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let recovered = train_or_load(Arch::Mlp, Scale::Cifar, &config);
        let test = attack_test_set(Scale::Cifar, 1, 7);
        for (img, _) in &test {
            assert_eq!(
                recovered.scores(img),
                reference.scores(img),
                "retraining is deterministic, so recovery reproduces the weights"
            );
        }

        // And the bad file was rewritten: a third load is a clean cache
        // hit byte-identical to the original.
        let rewritten = std::fs::read(&path).unwrap();
        assert_eq!(rewritten, bytes, "cache file restored by the retrain");
    }

    #[test]
    fn attack_test_set_is_labeled_and_sized() {
        let set = attack_test_set(Scale::Cifar, 2, 0);
        assert_eq!(set.len(), 20);
        assert!(set.iter().all(|(img, _)| img.height() == 32));
        assert!(set.iter().all(|(_, l)| *l < 10));
    }

    #[test]
    fn scales_expose_consistent_specs() {
        assert_eq!(Scale::Cifar.dataset_spec().size, 32);
        assert_eq!(Scale::Cifar.input_spec().height, 32);
        assert_eq!(Scale::ImageNetLike.dataset_spec().size, 64);
        assert_eq!(Scale::ImageNetLike.dataset_spec().num_classes(), 20);
    }
}
