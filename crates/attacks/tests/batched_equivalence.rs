//! A/B equivalence for the speculative batch route: every attack must
//! produce the *same outcome, query count and query log* whether the
//! classifier serves prefetched batches through the default sequential
//! fallback or through a genuine [`Classifier::scores_pixel_delta_batch_into`]
//! override — and the override must actually be exercised, proving the
//! attacks arm the batch path at all.

use oppsla_attacks::{
    Attack, DeepSearch, RandomPairs, SparseRs, SparseRsConfig, SuOpa, SuOpaConfig,
};
use oppsla_core::image::Image;
use oppsla_core::oracle::{Classifier, FnClassifier, Oracle};
use oppsla_core::pair::{Location, Pixel};
use std::cell::Cell;

/// Wraps a classifier with a real batch override (scoring all candidates
/// in one call) and counts how often each pixel-delta entry point runs.
struct BatchingClassifier<C> {
    inner: C,
    batch_calls: Cell<u64>,
    batched_candidates: Cell<u64>,
    sequential_candidates: Cell<u64>,
}

impl<C> BatchingClassifier<C> {
    fn new(inner: C) -> Self {
        BatchingClassifier {
            inner,
            batch_calls: Cell::new(0),
            batched_candidates: Cell::new(0),
            sequential_candidates: Cell::new(0),
        }
    }
}

impl<C: Classifier> Classifier for BatchingClassifier<C> {
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn scores(&self, image: &Image) -> Vec<f32> {
        self.inner.scores(image)
    }

    fn scores_pixel_delta_into(
        &self,
        base: &Image,
        location: Location,
        pixel: Pixel,
        out: &mut Vec<f32>,
    ) {
        self.sequential_candidates
            .set(self.sequential_candidates.get() + 1);
        self.inner
            .scores_pixel_delta_into(base, location, pixel, out);
    }

    fn scores_pixel_delta_batch_into(
        &self,
        base: &Image,
        candidates: &[(Location, Pixel)],
        out: &mut Vec<f32>,
    ) {
        self.batch_calls.set(self.batch_calls.get() + 1);
        self.batched_candidates
            .set(self.batched_candidates.get() + candidates.len() as u64);
        out.clear();
        let mut one = Vec::new();
        for &(location, pixel) in candidates {
            self.inner
                .scores_pixel_delta_into(base, location, pixel, &mut one);
            out.extend_from_slice(&one);
        }
    }
}

/// A classifier with a genuine one-pixel weakness plus a margin gradient,
/// so the stochastic attacks accept proposals (exercising batch flushes).
fn weak() -> FnClassifier<impl Fn(&Image) -> Vec<f32>> {
    let target = Location::new(4, 2);
    FnClassifier::new(2, move |img: &Image| {
        if img.pixel(target) == Pixel([1.0, 1.0, 1.0]) {
            return vec![0.1, 0.9];
        }
        let mut best = f32::INFINITY;
        for row in 0..img.height() as u16 {
            for col in 0..img.width() as u16 {
                let p = img.pixel(Location::new(row, col));
                if p != Pixel([0.5, 0.5, 0.5]) {
                    best = best.min(Location::new(row, col).distance(target) as f32);
                }
            }
        }
        let conf = if best.is_finite() {
            0.55 + 0.03 * best.min(12.0)
        } else {
            0.95
        };
        vec![conf, 1.0 - conf]
    })
}

/// Runs `attack` on both classifiers, checks that outcome, query count and
/// query log agree, that every counted query is logged, and that the batch
/// path was armed. Returns the share of the batched run's counted
/// pixel-delta queries served from batches.
fn check_attack(attack: &dyn Attack, seed: u64, dims: (usize, usize)) -> f64 {
    use rand::SeedableRng;
    let img = Image::filled(dims.0, dims.1, Pixel([0.5, 0.5, 0.5]));

    let plain = weak();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut oracle = Oracle::new(&plain);
    oracle.enable_query_log();
    let sequential = attack.attack(&mut oracle, &img, 0, &mut rng);
    let sequential_queries = oracle.queries();
    let sequential_log = oracle.take_query_log();

    let batching = BatchingClassifier::new(weak());
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut oracle = Oracle::new(&batching);
    oracle.enable_query_log();
    let batched = attack.attack(&mut oracle, &img, 0, &mut rng);
    let batched_log = oracle.take_query_log();

    assert_eq!(batched, sequential, "{} outcome diverged", attack.name());
    assert_eq!(
        oracle.queries(),
        sequential_queries,
        "{} query accounting diverged",
        attack.name()
    );
    assert_eq!(
        batched_log.len() as u64,
        oracle.queries(),
        "{} left a counted query unlogged",
        attack.name()
    );
    assert_eq!(
        batched_log,
        sequential_log,
        "{} query log diverged",
        attack.name()
    );
    assert!(
        batching.batch_calls.get() > 0,
        "{} never armed the batch path",
        attack.name()
    );
    assert!(
        batching.batched_candidates.get() >= 2,
        "{} batches were trivial",
        attack.name()
    );
    // Every attack spends one full-image baseline query.
    let delta_queries = oracle.queries() - 1;
    let served_from_batches = delta_queries - batching.sequential_candidates.get();
    served_from_batches as f64 / delta_queries as f64
}

#[test]
fn random_pairs_batched_matches_sequential() {
    for seed in [0, 7] {
        check_attack(&RandomPairs::default(), seed, (6, 6));
    }
}

#[test]
fn sparse_rs_batched_matches_sequential() {
    let attack = SparseRs::new(SparseRsConfig {
        max_iterations: 120,
        ..SparseRsConfig::default()
    });
    for seed in [3, 11] {
        check_attack(&attack, seed, (8, 8));
    }
}

#[test]
fn suopa_batched_matches_sequential() {
    let attack = SuOpa::new(SuOpaConfig {
        population: 10,
        max_generations: 6,
        differential_weight: 0.5,
    });
    for seed in [1, 5] {
        check_attack(&attack, seed, (6, 6));
    }
}

#[test]
fn deepsearch_batched_matches_sequential() {
    // DeepSearch ignores the rng; two image sizes give different region
    // trees below the four prefetched root quadrants.
    for dims in [(6, 6), (8, 8)] {
        check_attack(&DeepSearch::default(), 0, dims);
    }
}

#[test]
fn sketch_attack_batched_matches_sequential() {
    use oppsla_attacks::SketchProgramAttack;
    use oppsla_core::dsl::Program;
    // The reorder-free and the always-eager instantiations (the latter
    // reorders the queue constantly), and the paper's program, whose
    // eager refinement issues most of its queries.
    for program in [Program::constant(false), Program::constant(true)] {
        let attack = SketchProgramAttack::new(program);
        check_attack(&attack, 0, (5, 5));
    }
    let attack = SketchProgramAttack::new(Program::paper_example());
    let coverage = check_attack(&attack, 0, (5, 5));
    assert!(
        coverage >= 0.8,
        "only {coverage:.3} of the paper program's queries were served from batches"
    );
}
