//! Decorator passivity: on a short mlp run the decorated classifier gives
//! bit-identical scores and makes exactly the calls, on the same routes,
//! that the plain classifier makes.

use oppsla_attacks::{Attack, SketchProgramAttack};
use oppsla_core::dsl::{GrammarConfig, Program};
use oppsla_core::image::Image;
use oppsla_core::oracle::{BatchClassifier, Classifier, Oracle};
use oppsla_core::pair::{Location, Pixel};
use oppsla_core::synth::{synthesize_parallel, SynthConfig};
use oppsla_e2ebench::route::{RouteStats, RouteTotals, Traced, TracedSession};
use oppsla_eval::zoo::{attack_test_set, train_or_load, Scale, ZooClassifier, ZooConfig};
use oppsla_nn::models::Arch;
use rand::SeedableRng;
use std::ops::Deref;
use std::sync::Mutex;

/// One call as the real classifier received it, with the bit patterns of
/// the scores it returned.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Call {
    Full(Vec<u32>),
    FullBatch(usize, Vec<u32>),
    DeltaSeq(Vec<u32>),
    DeltaBatch(usize, Vec<u32>),
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|v| v.to_bits()).collect()
}

/// Records every call that reaches the wrapped handle.
struct Recorder<'a, H> {
    inner: H,
    log: &'a Mutex<Vec<Call>>,
}

impl<'a, 'c, H: Deref<Target = dyn Classifier + 'c>> Recorder<'a, H> {
    fn push(&self, call: Call) {
        self.log.lock().unwrap().push(call);
    }
}

impl<'a, 'c, H: Deref<Target = dyn Classifier + 'c>> Classifier for Recorder<'a, H> {
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn scores(&self, image: &Image) -> Vec<f32> {
        let out = self.inner.scores(image);
        self.push(Call::Full(bits(&out)));
        out
    }

    fn scores_into(&self, image: &Image, out: &mut Vec<f32>) {
        self.inner.scores_into(image, out);
        self.push(Call::Full(bits(out)));
    }

    fn scores_pixel_delta_into(&self, base: &Image, l: Location, p: Pixel, out: &mut Vec<f32>) {
        self.inner.scores_pixel_delta_into(base, l, p, out);
        self.push(Call::DeltaSeq(bits(out)));
    }

    fn scores_batch_into(&self, images: &[Image], out: &mut Vec<f32>) {
        self.inner.scores_batch_into(images, out);
        self.push(Call::FullBatch(images.len(), bits(out)));
    }

    fn scores_pixel_delta_batch_into(
        &self,
        base: &Image,
        candidates: &[(Location, Pixel)],
        out: &mut Vec<f32>,
    ) {
        self.inner
            .scores_pixel_delta_batch_into(base, candidates, out);
        self.push(Call::DeltaBatch(candidates.len(), bits(out)));
    }
}

/// A recording classifier whose sessions record into the same log.
struct RecordingClassifier<'a> {
    inner: &'a ZooClassifier,
    log: &'a Mutex<Vec<Call>>,
}

impl RecordingClassifier<'_> {
    fn tap(&self) -> Recorder<'_, &dyn Classifier> {
        Recorder {
            inner: self.inner,
            log: self.log,
        }
    }
}

impl Classifier for RecordingClassifier<'_> {
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn scores(&self, image: &Image) -> Vec<f32> {
        self.tap().scores(image)
    }
}

impl BatchClassifier for RecordingClassifier<'_> {
    fn session(&self) -> Box<dyn Classifier + '_> {
        Box::new(Recorder {
            inner: self.inner.session(),
            log: self.log,
        })
    }
}

/// Per-route totals of a call log, as the decorator should count them.
fn tally(log: &[Call]) -> (u64, u64, u64, u64) {
    let mut t = (0, 0, 0, 0);
    for call in log {
        match call {
            Call::Full(_) => t.0 += 1,
            Call::FullBatch(n, _) => t.0 += *n as u64,
            Call::DeltaSeq(_) => t.1 += 1,
            Call::DeltaBatch(n, _) => {
                t.2 += 1;
                t.3 += *n as u64;
            }
        }
    }
    t
}

fn counts(r: &RouteTotals) -> (u64, u64, u64, u64) {
    (
        r.full_calls,
        r.delta_seq_cands,
        r.delta_batch_calls,
        r.delta_batch_cands,
    )
}

fn mlp() -> ZooClassifier {
    let config = ZooConfig {
        train_per_class: 8,
        epochs: Some(2),
        learning_rate: 2e-3,
        seed: 1,
        cache_dir: None,
    };
    train_or_load(Arch::Mlp, Scale::Cifar, &config).classifier()
}

#[test]
fn decorated_attack_session_is_passive() {
    let clf = mlp();
    let images = attack_test_set(Scale::Cifar, 1, 5);
    let attack = SketchProgramAttack::new(Program::paper_example());
    let run = |session: &dyn Classifier| {
        images
            .iter()
            .map(|(image, class)| {
                let mut oracle = Oracle::with_budget(session, 300);
                oracle.enable_query_log();
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
                let outcome = attack.attack(&mut oracle, image, *class, &mut rng);
                (outcome, oracle.take_query_log())
            })
            .collect::<Vec<_>>()
    };

    let plain_log = Mutex::new(Vec::new());
    let plain = run(&Recorder {
        inner: clf.session(),
        log: &plain_log,
    });

    let traced_log = Mutex::new(Vec::new());
    let stats = RouteStats::default();
    let traced = run(&TracedSession::new(
        Box::new(Recorder {
            inner: clf.session(),
            log: &traced_log,
        }) as Box<dyn Classifier>,
        &stats,
    ));

    assert_eq!(plain, traced, "outcomes and per-query score hashes");
    let (plain_log, traced_log) = (
        plain_log.into_inner().unwrap(),
        traced_log.into_inner().unwrap(),
    );
    assert_eq!(plain_log, traced_log, "same calls, routes and score bits");
    assert_eq!(counts(&stats.totals()), tally(&traced_log));
    assert!(
        tally(&traced_log).2 > 0,
        "the run exercises the batch route"
    );
}

#[test]
fn decorated_synthesis_is_passive() {
    let clf = mlp();
    // One class's correctly classified images, as the benchmark screens them.
    let session = clf.session();
    let correct: Vec<(Image, usize)> = attack_test_set(Scale::Cifar, 2, 11)
        .into_iter()
        .filter(|(image, c)| session.classify(image) == *c)
        .collect();
    let class = correct.first().expect("the model gets some images right").1;
    let train: Vec<(Image, usize)> = correct.into_iter().filter(|(_, c)| *c == class).collect();
    let config = SynthConfig {
        max_iterations: 3,
        beta: 0.01,
        seed: 3,
        per_image_budget: Some(300),
        prefilter: true,
        grammar: GrammarConfig::paper(),
        threads: 1,
    };

    let plain_log = Mutex::new(Vec::new());
    let plain = synthesize_parallel(
        &RecordingClassifier {
            inner: &clf,
            log: &plain_log,
        },
        &train,
        &config,
    );

    let traced_log = Mutex::new(Vec::new());
    let recording = RecordingClassifier {
        inner: &clf,
        log: &traced_log,
    };
    let stats = RouteStats::default();
    let traced = synthesize_parallel(&Traced::new(&recording, &stats), &train, &config);

    assert_eq!(plain, traced, "synthesis reports");
    let (plain_log, traced_log) = (
        plain_log.into_inner().unwrap(),
        traced_log.into_inner().unwrap(),
    );
    assert_eq!(plain_log, traced_log, "same calls, routes and score bits");
    assert_eq!(counts(&stats.totals()), tally(&traced_log));
    assert!(
        tally(&traced_log).2 > 0,
        "the prefilter runs on the batch route"
    );
}
