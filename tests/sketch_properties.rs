//! Property-based tests of the sketch's central guarantees:
//!
//! 1. **Exhaustiveness** — every instantiation of the sketch finds a
//!    successful adversarial example whenever one exists in the corner
//!    perturbation space, regardless of the conditions (the paper's
//!    success-rate-independence claim).
//! 2. **No duplicate queries** — the removal discipline queries each
//!    location–perturbation candidate at most once.
//! 3. **Query bounds** — a run spends at most `8·d₁·d₂ + 1` queries.
//! 4. **Passive speculation** — the oracle's speculative batches change
//!    neither outcome, query count nor query log, and never submit a
//!    candidate to the classifier twice.

use oppsla::core::dsl::{random_program, ImageDims, Program};
use oppsla::core::image::Image;
use oppsla::core::oracle::{Classifier, FnClassifier, Oracle};
use oppsla::core::pair::{Corner, Location, Pixel};
use oppsla::core::sketch::{run_sketch, SketchOutcome};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::{Cell, RefCell};
use std::collections::HashSet;

/// A classifier that flips iff the pixel at `target` equals the `trigger`
/// corner, and records every queried image to detect duplicates, on
/// either route (one at a time, or inside a batch). Other images get
/// scores that vary with their content, so conditions reading
/// `score_diff` fire unevenly, but never flip the decision.
struct RecordingClassifier {
    target: Location,
    trigger: Pixel,
    seen: RefCell<HashSet<Vec<u32>>>,
    duplicates: RefCell<usize>,
    batched: Cell<usize>,
}

impl RecordingClassifier {
    fn new(target: Location, trigger: Pixel) -> Self {
        RecordingClassifier {
            target,
            trigger,
            seen: RefCell::new(HashSet::new()),
            duplicates: RefCell::new(0),
            batched: Cell::new(0),
        }
    }

    fn duplicates(&self) -> usize {
        *self.duplicates.borrow()
    }
}

impl Classifier for RecordingClassifier {
    fn num_classes(&self) -> usize {
        2
    }

    fn scores(&self, image: &Image) -> Vec<f32> {
        let key: Vec<u32> = image.data().iter().map(|v| v.to_bits()).collect();
        // FNV-1a over the content, scaled to a drop in [0, 0.35).
        let hash = key.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &v| {
            (h ^ u64::from(v)).wrapping_mul(0x100_0000_01b3)
        });
        let drop = (hash >> 40) as f32 / (1u64 << 24) as f32 * 0.35;
        if !self.seen.borrow_mut().insert(key) {
            *self.duplicates.borrow_mut() += 1;
        }
        if image.pixel(self.target) == self.trigger {
            vec![0.1, 0.9]
        } else {
            vec![0.9 - drop, 0.1 + drop]
        }
    }

    fn scores_pixel_delta_batch_into(
        &self,
        base: &Image,
        candidates: &[(Location, Pixel)],
        out: &mut Vec<f32>,
    ) {
        self.batched.set(self.batched.get() + candidates.len());
        out.clear();
        for &(loc, pixel) in candidates {
            out.extend(self.scores(&base.with_pixel(loc, pixel)));
        }
    }
}

fn arb_program(height: usize, width: usize) -> impl Strategy<Value = Program> {
    any::<u64>().prop_map(move |seed| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        random_program(&mut rng, ImageDims::new(height, width))
    })
}

/// An image whose pixels differ, so pixel-statistic conditions and the
/// corner rankings vary by location.
fn random_image(height: usize, width: usize, seed: u64) -> Image {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut image = Image::filled(height, width, Pixel([0.0; 3]));
    for row in 0..height as u16 {
        for col in 0..width as u16 {
            let pixel = Pixel([rng.gen(), rng.gen(), rng.gen()]);
            image.set_pixel(Location::new(row, col), pixel);
        }
    }
    image
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any program finds the planted one-pixel weakness.
    #[test]
    fn every_program_finds_a_planted_trigger(
        program in arb_program(6, 7),
        target_row in 0u16..6,
        target_col in 0u16..7,
        corner_idx in 0u8..8,
        base in 1u8..9,
    ) {
        let target = Location::new(target_row, target_col);
        let trigger = Corner::new(corner_idx).as_pixel();
        let v = base as f32 / 10.0;
        // Skip the degenerate case where the base colour already equals
        // the trigger (the clean image would be misclassified).
        prop_assume!(Pixel([v, v, v]) != trigger);
        let clf = RecordingClassifier::new(target, trigger);
        let image = Image::filled(6, 7, Pixel([v, v, v]));
        let mut oracle = Oracle::new(&clf);
        let outcome = run_sketch(&program, &mut oracle, &image, 0);
        match outcome {
            SketchOutcome::Success { pair, queries } => {
                prop_assert_eq!(pair.location, target);
                prop_assert_eq!(pair.corner.as_pixel(), trigger);
                prop_assert!(queries <= 8 * 6 * 7 + 1);
            }
            other => prop_assert!(false, "program failed to find trigger: {:?}", other),
        }
    }

    /// No candidate is ever queried twice, even with eager conditions.
    #[test]
    fn no_duplicate_queries(program in arb_program(5, 5)) {
        // Robust classifier: the sketch visits the entire space.
        let clf = RecordingClassifier::new(Location::new(0, 0), Pixel([0.5, 0.5, 0.5]));
        let image = Image::filled(5, 5, Pixel([0.4, 0.4, 0.4]));
        let mut oracle = Oracle::new(&clf);
        let outcome = run_sketch(&program, &mut oracle, &image, 0);
        prop_assert_eq!(clf.duplicates(), 0, "some image was submitted twice");
        // Exhaustion must spend exactly one query per candidate plus the
        // baseline.
        prop_assert_eq!(outcome.queries(), 8 * 25 + 1);
        let exhausted = matches!(outcome, SketchOutcome::Exhausted { .. });
        prop_assert!(exhausted);
    }

    /// Under any budget, the sketch never overspends.
    #[test]
    fn budget_is_never_exceeded(
        program in arb_program(5, 5),
        budget in 0u64..220,
    ) {
        let clf = FnClassifier::new(2, |_: &Image| vec![0.9, 0.1]);
        let image = Image::filled(5, 5, Pixel([0.4, 0.4, 0.4]));
        let mut oracle = Oracle::with_budget(&clf, budget);
        let outcome = run_sketch(&program, &mut oracle, &image, 0);
        prop_assert!(outcome.queries() <= budget);
        if budget <= 8 * 25 {
            let out_of_budget = matches!(outcome, SketchOutcome::OutOfBudget { .. });
            prop_assert!(out_of_budget);
        }
    }

    /// The sketch is deterministic: same program, same image, same count.
    #[test]
    fn sketch_is_deterministic(program in arb_program(4, 4), corner_idx in 0u8..8) {
        let trigger = Corner::new(corner_idx).as_pixel();
        let run = || {
            let clf = RecordingClassifier::new(Location::new(2, 1), trigger);
            let image = Image::filled(4, 4, Pixel([0.4, 0.5, 0.6]));
            let mut oracle = Oracle::new(&clf);
            run_sketch(&program, &mut oracle, &image, 0)
        };
        prop_assert_eq!(run(), run());
    }

    /// Speculation is passive: with the oracle's speculative batches on
    /// and off, the sketch reaches the same outcome with the same query
    /// count and query log, and no candidate reaches the classifier twice
    /// on either route. Covers score-reading and score-free B3/B4 (the
    /// paper's program has both), with and without a budget.
    #[test]
    fn speculation_changes_no_outcome_count_or_log(
        program in prop_oneof![arb_program(6, 6), Just(Program::paper_example())],
        image_seed in any::<u64>(),
        trigger in prop_oneof![Just(None), (0u16..6, 0u16..6, 0u8..8).prop_map(Some)],
        budget in prop_oneof![Just(None), (0u64..300).prop_map(Some)],
    ) {
        let image = random_image(6, 6, image_seed);
        // Without a trigger, a grey that no perturbation produces.
        let (target, trigger) = match trigger {
            Some((row, col, k)) => (Location::new(row, col), Corner::new(k).as_pixel()),
            None => (Location::new(0, 0), Pixel([0.5; 3])),
        };
        let run = |speculate: bool| {
            let clf = RecordingClassifier::new(target, trigger);
            let oracle = match budget {
                Some(b) => Oracle::with_budget(&clf, b),
                None => Oracle::new(&clf),
            };
            let mut oracle = if speculate { oracle } else { oracle.without_speculation() };
            oracle.enable_query_log();
            let outcome = run_sketch(&program, &mut oracle, &image, 0);
            let (queries, log) = (oracle.queries(), oracle.take_query_log());
            (outcome, queries, log, clf.duplicates(), clf.batched.get())
        };
        let (on, off) = (run(true), run(false));
        prop_assert_eq!(&on.0, &off.0);
        prop_assert_eq!(on.1, off.1);
        prop_assert_eq!(&on.2, &off.2);
        prop_assert_eq!(on.3, 0, "a candidate reached the classifier twice");
        prop_assert_eq!(off.3, 0, "a candidate reached the classifier twice");
        prop_assert_eq!(off.4, 0, "nothing is batched without speculation");
    }
}

/// An oracle may be reused across runs; pending speculation must not
/// outlive the run that made it. Run 1 succeeds at once and leaves its
/// prefetched candidates unconsumed; the image then changes in place, at
/// the same address, and run 2 must see the new image's scores.
#[test]
fn a_reused_oracle_scores_the_current_image() {
    let white = Pixel([1.0, 1.0, 1.0]);
    let black = Pixel([0.0, 0.0, 0.0]);
    let clf = FnClassifier::new(2, move |img: &Image| {
        let hot = if img.pixel(Location::new(2, 2)) == black {
            Location::new(0, 1)
        } else {
            Location::new(1, 1)
        };
        if img.pixel(hot) == white {
            vec![0.1, 0.9]
        } else {
            vec![0.9, 0.1]
        }
    });
    let program = Program::constant(false);
    let mut img = Image::filled(3, 3, Pixel([0.4, 0.4, 0.4]));
    let mut oracle = Oracle::new(&clf);
    let first = run_sketch(&program, &mut oracle, &img, 0);
    assert_eq!(first.queries(), 2);
    assert!(first.is_success());
    assert!(oracle.has_prefetched(), "run 1 leaves speculation behind");

    img.set_pixel(Location::new(2, 2), black);
    let reused = run_sketch(&program, &mut oracle, &img, 0);
    let fresh = run_sketch(&program, &mut Oracle::new(&clf), &img, 0);
    match &fresh {
        SketchOutcome::Success { pair, queries } => {
            assert_eq!(pair.location, Location::new(0, 1));
            assert_eq!(*queries, 4);
        }
        other => panic!("expected success, got {other:?}"),
    }
    assert_eq!(
        reused, fresh,
        "the reused oracle served a previous run's scores"
    );
}

/// Beyond proptest: the paper's Figure-level claim that success is shared
/// across instantiations while cost differs — checked on a classifier
/// with several planted weaknesses.
#[test]
fn success_is_program_independent_cost_is_not() {
    let clf = FnClassifier::new(2, |img: &Image| {
        let white = Pixel([1.0, 1.0, 1.0]);
        if img.pixel(Location::new(7, 7)) == white || img.pixel(Location::new(1, 2)) == white {
            vec![0.2, 0.8]
        } else {
            vec![0.8, 0.2]
        }
    });
    let image = Image::filled(9, 9, Pixel([0.3, 0.35, 0.4]));
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let mut costs = HashSet::new();
    for i in 0..12 {
        let program = if i == 0 {
            Program::constant(false)
        } else {
            random_program(&mut rng, ImageDims::new(9, 9))
        };
        let mut oracle = Oracle::new(&clf);
        let outcome = run_sketch(&program, &mut oracle, &image, 0);
        assert!(outcome.is_success(), "program {i} failed");
        costs.insert(outcome.queries());
    }
    assert!(
        costs.len() > 1,
        "all programs cost the same — conditions are inert"
    );
}
