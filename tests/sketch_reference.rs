//! Algorithm 1 of the paper, transcribed literally, as the reference the
//! sketch must match query for query.
//!
//! `run_sketch` keeps the candidate list `L` in an arena-backed linked
//! list, speculates (prefetching the init scan and planning refine
//! queries into the oracle's pool) and submits pixel deltas. The
//! reference below keeps `L` in a `Vec<Pair>` searched by linear scans,
//! speculates nothing, and submits every candidate as a full perturbed
//! image through `Oracle::query`. Both must issue the same queries in the
//! same order, spend the same count and end with the same outcome, for
//! any program, image, classifier and budget.

use oppsla::core::dsl::{random_program, CondCtx, ImageDims, Program};
use oppsla::core::image::Image;
use oppsla::core::oracle::{argmax, FnClassifier, Oracle, QueryLogEntry};
use oppsla::core::pair::{Corner, Location, Pair, Pixel};
use oppsla::core::sketch::{run_sketch, SketchOutcome};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// Appendix A's initial order of `L`: by corner rank (farthest from the
/// pixel first), then by distance from the image centre, ties row-major.
fn initial_list(image: &Image) -> Vec<Pair> {
    let mut locations: Vec<Location> = (0..image.height() as u16)
        .flat_map(|row| (0..image.width() as u16).map(move |col| Location::new(row, col)))
        .collect();
    locations.sort_by(|a, b| {
        image
            .center_distance(*a)
            .total_cmp(&image.center_distance(*b))
            .then(a.cmp(b))
    });
    (0..8)
        .flat_map(|rank| {
            locations
                .iter()
                .map(move |&loc| Pair::new(loc, Corner::ranked_by_distance(image.pixel(loc))[rank]))
        })
        .collect()
}

/// `closest_loc(L, l, p)`: the pairs of `L` at L∞ distance 1 from `l`
/// with perturbation `p`. The paper leaves the order of this set open;
/// it is the 3×3 scan of [`Location::neighbors`].
fn closest_loc(list: &[Pair], image: &Image, pair: Pair) -> Vec<Pair> {
    pair.location
        .neighbors(image.height(), image.width())
        .map(|loc| Pair::new(loc, pair.corner))
        .filter(|p| list.contains(p))
        .collect()
}

/// `closest_pert(L, l)`: the first pair of `L` at location `l`.
fn closest_pert(list: &[Pair], location: Location) -> Option<Pair> {
    list.iter().copied().find(|p| p.location == location)
}

fn remove(list: &mut Vec<Pair>, pair: Pair) {
    let i = list.iter().position(|&p| p == pair).expect("pair in L");
    list.remove(i);
}

fn push_back(list: &mut Vec<Pair>, pair: Pair) {
    remove(list, pair);
    list.push(pair);
}

/// Algorithm 1 for an untargeted attack, with every counted candidate
/// appended to `queried`.
fn reference_sketch(
    program: &Program,
    oracle: &mut Oracle<'_>,
    image: &Image,
    true_class: usize,
    queried: &mut Vec<Pair>,
) -> SketchOutcome {
    let spent = |oracle: &Oracle<'_>| oracle.queries();
    let Ok(orig) = oracle.query(image) else {
        return SketchOutcome::OutOfBudget {
            queries: spent(oracle),
        };
    };
    if argmax(&orig) != true_class {
        return SketchOutcome::AlreadyMisclassified {
            queries: spent(oracle),
        };
    }
    let holds = |slot: usize, pair: Pair, scores: &[f32]| {
        program.condition(
            slot,
            &CondCtx {
                image,
                location: pair.location,
                perturbation: pair.corner.as_pixel(),
                orig_scores: &orig,
                pert_scores: scores,
                true_class,
            },
        )
    };
    // N(x[l←p]): `Ok(Err(scores))` is a failed attack, `Ok(Ok(()))` a
    // success, `Err(())` the end of the budget.
    let mut query = |oracle: &mut Oracle<'_>, pair: Pair| {
        let scores = oracle
            .query(&image.with_pixel(pair.location, pair.corner.as_pixel()))
            .map_err(|_| ())?;
        queried.push(pair);
        Ok::<_, ()>(if argmax(&scores) != true_class {
            Ok(())
        } else {
            Err(scores)
        })
    };
    macro_rules! attempt {
        ($pair:expr) => {
            match query(oracle, $pair) {
                Ok(Err(scores)) => scores,
                Ok(Ok(())) => {
                    return SketchOutcome::Success {
                        pair: $pair,
                        queries: spent(oracle),
                    }
                }
                Err(()) => {
                    return SketchOutcome::OutOfBudget {
                        queries: spent(oracle),
                    }
                }
            }
        };
    }

    let mut list = initial_list(image);
    while !list.is_empty() {
        let pair = list.remove(0);
        let scores = attempt!(pair);
        if holds(1, pair, &scores) {
            for neighbor in closest_loc(&list, image, pair) {
                push_back(&mut list, neighbor);
            }
        }
        if holds(2, pair, &scores) {
            if let Some(next) = closest_pert(&list, pair.location) {
                push_back(&mut list, next);
            }
        }
        let mut loc_q = VecDeque::from([(pair, scores.clone())]);
        let mut pert_q = VecDeque::from([(pair, scores)]);
        while !loc_q.is_empty() || !pert_q.is_empty() {
            while let Some((failed, scores)) = loc_q.pop_front() {
                if holds(3, failed, &scores) {
                    for candidate in closest_loc(&list, image, failed) {
                        remove(&mut list, candidate);
                        let scores = attempt!(candidate);
                        loc_q.push_back((candidate, scores.clone()));
                        pert_q.push_back((candidate, scores));
                    }
                }
            }
            while let Some((failed, scores)) = pert_q.pop_front() {
                if holds(4, failed, &scores) {
                    if let Some(candidate) = closest_pert(&list, failed.location) {
                        remove(&mut list, candidate);
                        let scores = attempt!(candidate);
                        loc_q.push_back((candidate, scores.clone()));
                        pert_q.push_back((candidate, scores));
                    }
                }
            }
        }
    }
    SketchOutcome::Exhausted {
        queries: spent(oracle),
    }
}

/// A two-class classifier whose scores depend on the whole image: an
/// FNV-1a hash of the content sets the true class's drop (so conditions
/// reading `score_diff` fire unevenly), flips the decision for a
/// `flip_rate` share of images, and the planted `trigger` always flips.
fn hashing_classifier(
    trigger: Option<(Location, Pixel)>,
    flip_rate: f32,
) -> FnClassifier<impl Fn(&Image) -> Vec<f32>> {
    FnClassifier::new(2, move |image: &Image| {
        let hash = image.data().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ u64::from(v.to_bits())).wrapping_mul(0x100_0000_01b3)
        });
        let u = (hash >> 40) as f32 / (1u64 << 24) as f32;
        let triggered = trigger.is_some_and(|(loc, px)| image.pixel(loc) == px);
        if triggered || u < flip_rate {
            vec![0.1, 0.9]
        } else {
            let drop = u * 0.35;
            vec![0.9 - drop, 0.1 + drop]
        }
    })
}

fn random_image(height: usize, width: usize, seed: u64) -> Image {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut image = Image::filled(height, width, Pixel([0.0; 3]));
    for row in 0..height as u16 {
        for col in 0..width as u16 {
            image.set_pixel(
                Location::new(row, col),
                Pixel([rng.gen(), rng.gen(), rng.gen()]),
            );
        }
    }
    image
}

/// A run's transcript: every candidate queried, in order, as the query
/// log's exact `(row, col, rgb bits)`, and every log entry's ordinal,
/// decision and score hash.
type Transcript = (Vec<(u16, u16, [u32; 3])>, Vec<(u64, u32, u64)>);

fn transcript(candidates: Vec<(u16, u16, [u32; 3])>, log: &[QueryLogEntry]) -> Transcript {
    let entries = log.iter().map(|e| (e.seq, e.pred, e.score_hash)).collect();
    (candidates, entries)
}

#[derive(Debug, Clone)]
struct Case {
    height: usize,
    width: usize,
    program: Program,
    image_seed: u64,
    trigger: Option<(u16, u16, u8)>,
    flip_rate: f32,
    budget: Option<u64>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (1usize..=8, 1usize..=8).prop_flat_map(|(height, width)| {
        let cells = (8 * height * width) as u64;
        (
            prop_oneof![
                6 => any::<u64>().prop_map(move |seed| {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    random_program(&mut rng, ImageDims::new(height, width))
                }),
                1 => Just(Program::paper_example()),
                1 => any::<bool>().prop_map(Program::constant),
            ],
            any::<u64>(),
            prop_oneof![
                Just(None),
                (0..height as u16, 0..width as u16, 0u8..8).prop_map(Some)
            ],
            prop_oneof![Just(0.0f32), Just(0.01), Just(0.05)],
            prop_oneof![Just(None), (0..cells + 2).prop_map(Some)],
        )
            .prop_map(
                move |(program, image_seed, trigger, flip_rate, budget)| Case {
                    height,
                    width,
                    program,
                    image_seed,
                    trigger,
                    flip_rate,
                    budget,
                },
            )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The sketch and the literal Algorithm 1 query the same candidates in
    /// the same order, spend the same count and reach the same outcome.
    #[test]
    fn sketch_matches_the_paper_literal_algorithm(case in arb_case()) {
        let image = random_image(case.height, case.width, case.image_seed);
        let trigger = case
            .trigger
            .map(|(row, col, k)| (Location::new(row, col), Corner::new(k).as_pixel()));
        let clf = hashing_classifier(trigger, case.flip_rate);
        let oracle = || {
            let mut oracle = match case.budget {
                Some(budget) => Oracle::with_budget(&clf, budget),
                None => Oracle::new(&clf),
            };
            oracle.enable_query_log();
            oracle
        };

        let mut reference = oracle();
        let mut queried = Vec::new();
        let want_outcome = reference_sketch(&case.program, &mut reference, &image, 0, &mut queried);
        let want = transcript(
            queried
                .iter()
                .map(|p| (p.location.row, p.location.col, p.corner.as_pixel().0.map(f32::to_bits)))
                .collect(),
            &reference.take_query_log(),
        );

        let mut sketch = oracle();
        let outcome = run_sketch(&case.program, &mut sketch, &image, 0);
        let log = sketch.take_query_log();
        let got = transcript(log.iter().filter_map(|e| e.pixel).collect(), &log);

        prop_assert_eq!(&outcome, &want_outcome);
        prop_assert_eq!(sketch.queries(), reference.queries());
        prop_assert_eq!(got.0, want.0, "queried candidates diverged");
        prop_assert_eq!(got.1, want.1, "query log diverged");
    }
}
