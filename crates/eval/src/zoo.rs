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
        let plan = self.engine.plan();
        let spec = plan.input_spec();
        Box::new(ZooSession {
            plan,
            delta: self.engine.delta_plan(),
            state: RefCell::new(SessionState {
                ws: plan.workspace(),
                input: Tensor::zeros([spec.channels, spec.height, spec.width]),
                cache: None,
                batch_candidates: Vec::new(),
            }),
        })
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
/// The session keeps one resident base: a query against another base
/// recaptures it in place.
pub struct ZooSession<'a> {
    plan: &'a InferencePlan,
    delta: &'a DeltaPlan,
    state: RefCell<SessionState>,
}

struct SessionState {
    ws: ForwardWorkspace,
    input: Tensor,
    /// The resident base snapshot, once a delta query has captured one.
    cache: Option<SessionDeltaCache>,
    /// Reusable candidate buffer for batched delta queries.
    batch_candidates: Vec<(usize, usize, [f32; 3])>,
}

struct SessionDeltaCache {
    base_image: Image,
    base: BaseActivations,
    dws: DeltaWorkspace,
    /// One workspace per in-flight batched candidate, grown on demand.
    batch_dws: Vec<DeltaWorkspace>,
    /// Shared scratch for the batched delta route.
    batch_scratch: DeltaBatchScratch,
}

impl SessionState {
    /// Makes the resident cache track `base` (hit / recapture / cold
    /// capture, with telemetry) and returns it. The resident base is a hit
    /// only when it equals `base` bit for bit ([`Image::same_bits`]).
    /// Batch workspaces are re-seeded on a recapture so stale activations
    /// from the previous base can never leak into a batched candidate.
    fn ensure_cache(
        &mut self,
        plan: &InferencePlan,
        delta: &DeltaPlan,
        base: &Image,
    ) -> &mut SessionDeltaCache {
        let SessionState {
            ws, input, cache, ..
        } = self;
        match cache {
            Some(c) if c.base_image.same_bits(base) => {
                telemetry::count(Counter::DeltaCacheHit);
                telemetry::trace::tag_cache(telemetry::trace::CacheTag::Hit);
            }
            Some(c) => {
                telemetry::count(Counter::DeltaCacheRebase);
                telemetry::trace::tag_cache(telemetry::trace::CacheTag::Rebase);
                image_into_tensor(base, input);
                c.base.recapture(plan, ws, input);
                c.dws.reset_from(&c.base);
                for dws in &mut c.batch_dws {
                    dws.reset_from(&c.base);
                }
                c.base_image.clone_from(base);
            }
            None => {
                telemetry::count(Counter::DeltaCacheCold);
                telemetry::trace::tag_cache(telemetry::trace::CacheTag::Cold);
                image_into_tensor(base, input);
                let acts = BaseActivations::capture(plan, ws, input);
                *cache = Some(SessionDeltaCache {
                    base_image: base.clone(),
                    dws: delta.workspace(&acts),
                    base: acts,
                    batch_dws: Vec::new(),
                    batch_scratch: DeltaBatchScratch::new(),
                });
            }
        }
        cache.as_mut().expect("ensured above")
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
        let c = self.ensure_cache(plan, delta, base);
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
            cache,
            batch_candidates,
            ..
        } = self;
        let c = cache.as_mut().expect("ensured above");
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
    use crate::test_dir::TempDir;
    use std::path::Path;

    fn fast_config(cache_dir: Option<&Path>) -> ZooConfig {
        ZooConfig {
            train_per_class: 8,
            epochs: Some(2),
            learning_rate: 2e-3,
            seed: 1,
            cache_dir: cache_dir.map(Path::to_path_buf),
        }
    }

    #[test]
    fn trains_an_mlp_and_serves_scores() {
        let model = train_or_load(Arch::Mlp, Scale::Cifar, &fast_config(None));
        assert_eq!(model.num_classes(), 10);
        let test = attack_test_set(Scale::Cifar, 1, 2);
        let scores = model.scores(&test[0].0);
        assert_eq!(scores.len(), 10);
        let sum: f32 = scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "scores are a distribution: {sum}");
    }

    #[test]
    fn cache_round_trip_gives_identical_scores() {
        let dir = TempDir::new("zoo-cache");
        let config = fast_config(Some(&dir));
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
        let model = train_or_load(Arch::Mlp, Scale::Cifar, &fast_config(None));
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
        let model = train_or_load(Arch::Mlp, Scale::Cifar, &fast_config(None));
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
        let model = train_or_load(Arch::VggSmall, Scale::Cifar, &fast_config(None));
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
        let model = train_or_load(Arch::VggSmall, Scale::Cifar, &fast_config(None));
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
    fn corrupted_weight_cache_falls_back_to_retraining() {
        // Regression: a truncated cache file (killed mid-write, disk
        // full) must behave as a cache miss — warn, retrain, and rewrite
        // the file — not poison every later run.
        let dir = TempDir::new("zoo-corrupt");
        let config = fast_config(Some(&dir));
        let reference = train_or_load(Arch::Mlp, Scale::Cifar, &config);
        let path = std::fs::read_dir(&*dir)
            .expect("cache dir exists")
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

        // A file that parses but whose first `data` array is one element
        // short of its shape is corrupt too: it used to load and then
        // panic in the accuracy pass's first forward.
        let json = String::from_utf8(bytes.clone()).unwrap();
        let start = json.find("\"data\":[").expect("a data array") + "\"data\":[".len();
        let comma = start + json[start..].find(',').expect("more than one element");
        std::fs::write(&path, format!("{}{}", &json[..start], &json[comma + 1..])).unwrap();
        let recovered = train_or_load(Arch::Mlp, Scale::Cifar, &config);
        for (img, _) in &test {
            assert_eq!(recovered.scores(img), reference.scores(img));
        }
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "cache file restored");
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
