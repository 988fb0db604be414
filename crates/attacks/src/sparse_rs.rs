//! The one-pixel instantiation of Sparse-RS (Croce et al., AAAI 2022) —
//! the paper's main query-efficiency baseline.
//!
//! Sparse-RS is a random search over the set of perturbed pixels. For
//! `k = 1` it maintains a single current candidate (location, corner
//! colour) with the best margin loss seen so far, and at each step
//! proposes either a fresh location (keeping the colour) or a fresh
//! colour (keeping the location), accepting the proposal whenever the
//! margin does not worsen. The probability of resampling the location
//! decays over iterations, mirroring Sparse-RS's α-schedule: early steps
//! explore positions globally, late steps fine-tune the colour.

use crate::traits::{Attack, AttackOutcome};
use oppsla_core::goal::AttackGoal;
use oppsla_core::image::Image;
use oppsla_core::oracle::Oracle;
use oppsla_core::pair::{Corner, Location};
use oppsla_core::telemetry::{self, Counter};
use oppsla_core::tracing::record_oracle_query;
use rand::Rng;
use rand::RngCore;

/// Configuration of the Sparse-RS one-pixel attack.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseRsConfig {
    /// Maximum proposals (each proposal costs one query). The attack also
    /// stops when the oracle's budget runs out.
    pub max_iterations: u64,
    /// Initial probability of resampling the location (decays linearly to
    /// `min_location_prob`).
    pub initial_location_prob: f64,
    /// Final probability of resampling the location.
    pub min_location_prob: f64,
}

impl Default for SparseRsConfig {
    fn default() -> Self {
        SparseRsConfig {
            max_iterations: 10_000,
            initial_location_prob: 0.8,
            min_location_prob: 0.1,
        }
    }
}

/// The Sparse-RS one-pixel random-search attack.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseRs {
    config: SparseRsConfig,
    goal: AttackGoal,
}

impl SparseRs {
    /// Creates the attack with `config` (untargeted).
    pub fn new(config: SparseRsConfig) -> Self {
        SparseRs {
            config,
            goal: AttackGoal::Untargeted,
        }
    }

    /// Sets the attack goal (untargeted by default).
    pub fn with_goal(mut self, goal: AttackGoal) -> Self {
        self.goal = goal;
        self
    }

    fn location_prob(&self, iteration: u64) -> f64 {
        let t = (iteration as f64 / self.config.max_iterations as f64).min(1.0);
        self.config.initial_location_prob
            + (self.config.min_location_prob - self.config.initial_location_prob) * t
    }
}

fn random_location(rng: &mut dyn RngCore, height: usize, width: usize) -> Location {
    Location::new(
        rng.gen_range(0..height as u16),
        rng.gen_range(0..width as u16),
    )
}

fn random_corner(rng: &mut dyn RngCore) -> Corner {
    Corner::new(rng.gen_range(0..8u8))
}

impl Attack for SparseRs {
    fn name(&self) -> &'static str {
        "sparse-rs"
    }

    fn attack(
        &self,
        oracle: &mut Oracle<'_>,
        image: &Image,
        true_class: usize,
        rng: &mut dyn RngCore,
    ) -> AttackOutcome {
        let start = oracle.queries();
        let spent = |oracle: &Oracle<'_>| oracle.queries() - start;
        let (h, w) = (image.height(), image.width());

        // Baseline query: verifies the clean classification (and costs one
        // query, as in our other attacks).
        let clean = match oracle.query(image) {
            Ok(s) => s,
            Err(_) => {
                return AttackOutcome::Failure {
                    queries: spent(oracle),
                }
            }
        };
        telemetry::count(Counter::QueryBaseline);
        record_oracle_query(
            "baseline",
            spent(oracle),
            None,
            &clean,
            true_class,
            self.goal,
        );
        self.goal.validate(oracle.num_classes(), true_class);
        if oppsla_core::oracle::argmax(&clean) != true_class {
            return AttackOutcome::AlreadyMisclassified {
                queries: spent(oracle),
            };
        }

        oracle.begin_run();
        let mut current_loc = random_location(rng, h, w);
        let mut current_corner = random_corner(rng);
        let mut best_margin = f32::INFINITY;
        // Every proposal is the base image with one pixel swapped, so it
        // goes through the pixel-delta query path: incremental backends
        // serve it from cached base activations instead of a full forward
        // pass. Counts and scores are identical to querying the perturbed
        // image in full. Random search legitimately re-proposes the same
        // candidate, so each proposal opens its own guard scope.
        let mut scores: Vec<f32> = Vec::with_capacity(clean.len());

        // Speculative batching: the RNG decisions for an iteration depend
        // only on the iteration index, so they can be pre-drawn a chunk at
        // a time (same draws, same stream order as drawing them one per
        // iteration) and turned into speculative candidates under the
        // assumption that no proposal in the chunk is accepted. An accept
        // changes `current_*`, invalidating every still-pending speculated
        // candidate, so the attack re-prefetches from the new state at the
        // next iteration, replacing the stale speculation —
        // accounting and scores are unaffected either way. Pre-drawing
        // happens unconditionally so candidate sequences are identical
        // whether or not the oracle actually prefetches.
        #[derive(Clone, Copy)]
        enum Draw {
            /// Iteration 0: propose the initial candidate as-is.
            Current,
            Loc(Location),
            Corner(Corner),
        }
        const PREFETCH_BATCH: usize = 8;
        let mut drawn: std::collections::VecDeque<Draw> =
            std::collections::VecDeque::with_capacity(PREFETCH_BATCH);
        let mut upcoming: Vec<(Location, oppsla_core::pair::Pixel)> =
            Vec::with_capacity(PREFETCH_BATCH);
        let mut stale = false;

        for iteration in 0..self.config.max_iterations {
            if drawn.is_empty() {
                let n = (self.config.max_iterations - iteration).min(PREFETCH_BATCH as u64);
                for j in 0..n {
                    let it = iteration + j;
                    drawn.push_back(if it == 0 {
                        Draw::Current
                    } else if rng.gen_bool(self.location_prob(it)) {
                        Draw::Loc(random_location(rng, h, w))
                    } else {
                        Draw::Corner(random_corner(rng))
                    });
                }
            }
            if stale || !oracle.has_prefetched() {
                stale = false;
                upcoming.clear();
                upcoming.extend(drawn.iter().map(|d| match d {
                    Draw::Current => (current_loc, current_corner.as_pixel()),
                    Draw::Loc(l) => (*l, current_corner.as_pixel()),
                    Draw::Corner(c) => (current_loc, c.as_pixel()),
                }));
                oracle.replace_pixel_batch(image, &upcoming);
            }
            let (loc, corner, phase, trace_phase) = match drawn.pop_front().expect("refilled above")
            {
                Draw::Current => (
                    current_loc,
                    current_corner,
                    Counter::QueryInitScan,
                    "init_scan",
                ),
                Draw::Loc(l) => (l, current_corner, Counter::QueryInitScan, "init_scan"),
                Draw::Corner(c) => (current_loc, c, Counter::QueryRefine, "refine"),
            };
            oracle.begin_candidate_scope();
            if oracle
                .query_pixel_delta_into(image, loc, corner.as_pixel(), &mut scores)
                .is_err()
            {
                return AttackOutcome::Failure {
                    queries: spent(oracle),
                };
            }
            telemetry::count(phase);
            record_oracle_query(
                trace_phase,
                spent(oracle),
                Some((loc, corner.as_pixel())),
                &scores,
                true_class,
                self.goal,
            );
            let m = self.goal.margin(&scores, true_class);
            if m < 0.0 {
                return AttackOutcome::Success {
                    location: loc,
                    pixel: corner.as_pixel(),
                    queries: spent(oracle),
                };
            }
            if m <= best_margin {
                best_margin = m;
                if (loc, corner) != (current_loc, current_corner) {
                    stale = true;
                }
                current_loc = loc;
                current_corner = corner;
            }
        }
        AttackOutcome::Failure {
            queries: spent(oracle),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oppsla_core::oracle::FnClassifier;
    use oppsla_core::pair::Pixel;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A classifier whose margin shrinks as the perturbed pixel approaches
    /// the target location, flipping exactly on the target with a white
    /// pixel — gives random search a gradient to follow.
    fn guided_classifier(target: Location) -> FnClassifier<impl Fn(&Image) -> Vec<f32>> {
        FnClassifier::new(2, move |img: &Image| {
            // Find the brightest perturbation-like pixel: compare with a
            // mid-grey base.
            let mut best = f32::INFINITY;
            for row in 0..img.height() as u16 {
                for col in 0..img.width() as u16 {
                    let p = img.pixel(Location::new(row, col));
                    if p == Pixel([1.0, 1.0, 1.0]) {
                        let d = Location::new(row, col).distance(target) as f32;
                        best = best.min(d);
                    }
                }
            }
            if best == 0.0 {
                vec![0.1, 0.9]
            } else if best.is_finite() {
                let conf = 0.55 + 0.04 * best.min(10.0);
                vec![conf, 1.0 - conf]
            } else {
                vec![0.95, 0.05]
            }
        })
    }

    #[test]
    fn finds_a_guided_target() {
        let target = Location::new(5, 7);
        let clf = guided_classifier(target);
        let attack = SparseRs::default();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut oracle = Oracle::new(&clf);
        let img = Image::filled(10, 10, Pixel([0.5, 0.5, 0.5]));
        let outcome = attack.attack(&mut oracle, &img, 0, &mut rng);
        match outcome {
            AttackOutcome::Success { location, .. } => assert_eq!(location, target),
            other => panic!("expected success, got {other:?}"),
        }
    }

    #[test]
    fn respects_max_iterations() {
        let clf = FnClassifier::new(2, |_: &Image| vec![0.9, 0.1]);
        let attack = SparseRs::new(SparseRsConfig {
            max_iterations: 25,
            ..SparseRsConfig::default()
        });
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut oracle = Oracle::new(&clf);
        let img = Image::filled(8, 8, Pixel([0.5, 0.5, 0.5]));
        let outcome = attack.attack(&mut oracle, &img, 0, &mut rng);
        assert_eq!(outcome, AttackOutcome::Failure { queries: 26 });
    }

    #[test]
    fn respects_oracle_budget() {
        let clf = FnClassifier::new(2, |_: &Image| vec![0.9, 0.1]);
        let attack = SparseRs::default();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut oracle = Oracle::with_budget(&clf, 5);
        let img = Image::filled(8, 8, Pixel([0.5, 0.5, 0.5]));
        let outcome = attack.attack(&mut oracle, &img, 0, &mut rng);
        assert_eq!(outcome, AttackOutcome::Failure { queries: 5 });
    }

    #[test]
    fn detects_already_misclassified() {
        let clf = FnClassifier::new(2, |_: &Image| vec![0.1, 0.9]);
        let attack = SparseRs::default();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut oracle = Oracle::new(&clf);
        let img = Image::filled(4, 4, Pixel([0.5, 0.5, 0.5]));
        let outcome = attack.attack(&mut oracle, &img, 0, &mut rng);
        assert_eq!(outcome, AttackOutcome::AlreadyMisclassified { queries: 1 });
    }

    #[test]
    fn location_probability_decays() {
        let attack = SparseRs::default();
        assert!(attack.location_prob(0) > attack.location_prob(5_000));
        assert!(attack.location_prob(5_000) > attack.location_prob(10_000));
        assert!(attack.location_prob(10_000) >= 0.1 - 1e-9);
    }

    #[test]
    fn is_deterministic_under_seed() {
        let target = Location::new(2, 2);
        let clf = guided_classifier(target);
        let attack = SparseRs::default();
        let img = Image::filled(6, 6, Pixel([0.5, 0.5, 0.5]));
        let run = || {
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            let mut oracle = Oracle::new(&clf);
            attack.attack(&mut oracle, &img, 0, &mut rng)
        };
        assert_eq!(run(), run());
    }
}
