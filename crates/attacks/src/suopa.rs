//! SuOPA: the original one-pixel attack of Su et al. (2017), based on
//! differential evolution.
//!
//! Unlike OPPSLA and Sparse-RS, SuOPA searches the *continuous* colour
//! space `[0, 1]³` (not just the RGB-cube corners) and was not designed to
//! minimize queries: every generation evaluates the whole population, so
//! the minimum query cost is one population's worth (400 in the paper).
//!
//! Candidates are encoded as 5-vectors `(row, col, r, g, b)`. Each
//! generation applies DE/rand/1 mutation `a + F·(b − c)` with `F = 0.5`
//! and greedy one-to-one selection on the true-class probability; the
//! attack stops early as soon as any candidate flips the decision.

use crate::traits::{Attack, AttackOutcome};
use oppsla_core::goal::AttackGoal;
use oppsla_core::image::Image;
use oppsla_core::oracle::Oracle;
use oppsla_core::pair::{Location, Pixel};
use oppsla_core::telemetry::{self, Counter};
use oppsla_core::tracing::record_oracle_query;
use rand::Rng;
use rand::RngCore;

/// Configuration of the differential-evolution one-pixel attack.
#[derive(Debug, Clone, PartialEq)]
pub struct SuOpaConfig {
    /// Population size (the paper uses 400).
    pub population: usize,
    /// Maximum generations after the initial population.
    pub max_generations: usize,
    /// DE differential weight `F`.
    pub differential_weight: f32,
}

impl Default for SuOpaConfig {
    fn default() -> Self {
        SuOpaConfig {
            population: 400,
            max_generations: 100,
            differential_weight: 0.5,
        }
    }
}

/// One DE candidate: a location and a free colour.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Gene {
    row: f32,
    col: f32,
    color: [f32; 3],
}

impl Gene {
    fn clamp(mut self, height: usize, width: usize) -> Gene {
        self.row = self.row.clamp(0.0, height as f32 - 1.0);
        self.col = self.col.clamp(0.0, width as f32 - 1.0);
        for c in &mut self.color {
            *c = c.clamp(0.0, 1.0);
        }
        self
    }

    fn location(&self) -> Location {
        Location::new(self.row.round() as u16, self.col.round() as u16)
    }

    fn pixel(&self) -> Pixel {
        Pixel(self.color)
    }
}

/// The SuOPA differential-evolution attack.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SuOpa {
    config: SuOpaConfig,
    goal: AttackGoal,
}

impl SuOpa {
    /// Creates the attack with `config` (untargeted).
    ///
    /// # Panics
    ///
    /// Panics if the population is smaller than 4 (DE/rand/1 needs four
    /// distinct members).
    pub fn new(config: SuOpaConfig) -> Self {
        assert!(
            config.population >= 4,
            "DE needs a population of at least 4"
        );
        SuOpa {
            config,
            goal: AttackGoal::Untargeted,
        }
    }

    /// Sets the attack goal (untargeted by default). Targeted DE minimizes
    /// the negated target score, as in Su et al.'s targeted variant.
    pub fn with_goal(mut self, goal: AttackGoal) -> Self {
        self.goal = goal;
        self
    }
}

impl Attack for SuOpa {
    fn name(&self) -> &'static str {
        "su-opa"
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

        // Evaluate one gene: Ok(fitness) where lower is better, or the
        // success/budget outcome. Every candidate is the base image with
        // one pixel replaced, so it goes through the pixel-delta query
        // path and incremental backends recompute only the dirty region.
        // DE can re-propose a gene, so each evaluation opens its own
        // guard scope. `phase` attributes the query to the initial
        // population scan or the per-generation refinement.
        enum Eval {
            Fitness(f32),
            Success(Gene),
            Budget,
        }
        let mut scores: Vec<f32> = Vec::with_capacity(clean.len());
        let mut eval = |oracle: &mut Oracle<'_>, gene: Gene, phase: Counter| -> Eval {
            oracle.begin_candidate_scope();
            match oracle.query_pixel_delta_into(image, gene.location(), gene.pixel(), &mut scores) {
                Ok(()) => {
                    telemetry::count(phase);
                    let trace_phase = if matches!(phase, Counter::QueryInitScan) {
                        "init_scan"
                    } else {
                        "refine"
                    };
                    record_oracle_query(
                        trace_phase,
                        spent(oracle),
                        Some((gene.location(), gene.pixel())),
                        &scores,
                        true_class,
                        self.goal,
                    );
                    if self.goal.is_adversarial(&scores, true_class) {
                        Eval::Success(gene)
                    } else {
                        Eval::Fitness(self.goal.fitness(&scores, true_class))
                    }
                }
                Err(_) => Eval::Budget,
            }
        };

        // Speculative batching: initial genes are pure RNG draws and each
        // generation's DE picks depend only on the RNG stream and the
        // member index, so both can be pre-drawn a chunk at a time (same
        // draws, same stream order) and speculatively evaluated as a
        // batch. Accepted mutants change the population, invalidating the
        // still-pending speculated mutants, so the attack re-prefetches
        // from the updated population at the next step, replacing the
        // stale speculation — accounting and scores are unaffected either
        // way.
        const PREFETCH_BATCH: usize = 8;
        let mut upcoming: Vec<(Location, Pixel)> = Vec::with_capacity(PREFETCH_BATCH);

        // Initial population: uniform locations, uniform colours. The
        // genes never depend on evaluation results, so the whole
        // population is drawn up front and prefetched in chunks.
        let genes: Vec<Gene> = (0..self.config.population)
            .map(|_| {
                Gene {
                    row: rng.gen_range(0.0..h as f32),
                    col: rng.gen_range(0.0..w as f32),
                    color: [rng.gen(), rng.gen(), rng.gen()],
                }
                .clamp(h, w)
            })
            .collect();
        let mut population = Vec::with_capacity(self.config.population);
        let mut fitness = Vec::with_capacity(self.config.population);
        for (i, &gene) in genes.iter().enumerate() {
            if !oracle.has_prefetched() {
                upcoming.clear();
                upcoming.extend(
                    genes[i..]
                        .iter()
                        .take(PREFETCH_BATCH)
                        .map(|g| (g.location(), g.pixel())),
                );
                oracle.prefetch_pixel_batch(image, &upcoming);
            }
            match eval(oracle, gene, Counter::QueryInitScan) {
                Eval::Fitness(f) => {
                    population.push(gene);
                    fitness.push(f);
                }
                Eval::Success(g) => {
                    return AttackOutcome::Success {
                        location: g.location(),
                        pixel: g.pixel(),
                        queries: spent(oracle),
                    }
                }
                Eval::Budget => {
                    return AttackOutcome::Failure {
                        queries: spent(oracle),
                    }
                }
            }
        }

        let f = self.config.differential_weight;
        let mutant_of = |population: &[Gene], (a, b, c): (usize, usize, usize)| {
            Gene {
                row: population[a].row + f * (population[b].row - population[c].row),
                col: population[a].col + f * (population[b].col - population[c].col),
                color: [
                    population[a].color[0] + f * (population[b].color[0] - population[c].color[0]),
                    population[a].color[1] + f * (population[b].color[1] - population[c].color[1]),
                    population[a].color[2] + f * (population[b].color[2] - population[c].color[2]),
                ],
            }
            .clamp(h, w)
        };

        let mut picks: std::collections::VecDeque<(usize, usize, usize)> =
            std::collections::VecDeque::with_capacity(PREFETCH_BATCH);
        let mut stale = false;
        for _ in 0..self.config.max_generations {
            picks.clear();
            for i in 0..population.len() {
                // DE/rand/1 member picks depend only on the RNG stream and
                // the target index, so a chunk is pre-drawn (in stream
                // order) and the corresponding mutants — computed from the
                // population *as of the prefetch* — batched speculatively.
                if picks.is_empty() {
                    let n = (population.len() - i).min(PREFETCH_BATCH);
                    for idx in i..i + n {
                        // Three distinct members, none equal to idx.
                        let mut pick = || loop {
                            let j = rng.gen_range(0..population.len());
                            if j != idx {
                                return j;
                            }
                        };
                        picks.push_back((pick(), pick(), pick()));
                    }
                }
                if stale || !oracle.has_prefetched() {
                    stale = false;
                    upcoming.clear();
                    upcoming.extend(picks.iter().map(|&abc| {
                        let m = mutant_of(&population, abc);
                        (m.location(), m.pixel())
                    }));
                    oracle.replace_pixel_batch(image, &upcoming);
                }
                let abc = picks.pop_front().expect("refilled above");
                let mutant = mutant_of(&population, abc);
                match eval(oracle, mutant, Counter::QueryRefine) {
                    Eval::Fitness(fit) => {
                        if fit < fitness[i] {
                            population[i] = mutant;
                            fitness[i] = fit;
                            stale = true;
                        }
                    }
                    Eval::Success(g) => {
                        return AttackOutcome::Success {
                            location: g.location(),
                            pixel: g.pixel(),
                            queries: spent(oracle),
                        }
                    }
                    Eval::Budget => {
                        return AttackOutcome::Failure {
                            queries: spent(oracle),
                        }
                    }
                }
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
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_config() -> SuOpaConfig {
        SuOpaConfig {
            population: 8,
            max_generations: 20,
            differential_weight: 0.5,
        }
    }

    /// Flips when any pixel is brighter than 0.95 in all channels; the
    /// true-class probability decreases with the brightest pixel, giving
    /// DE a fitness gradient.
    fn brightness_classifier() -> FnClassifier<impl Fn(&Image) -> Vec<f32>> {
        FnClassifier::new(2, |img: &Image| {
            let max = img.data().iter().copied().fold(0.0f32, f32::max);
            if max > 0.95 {
                vec![0.1, 0.9]
            } else {
                let conf = 0.95 - 0.3 * max;
                vec![conf, 1.0 - conf]
            }
        })
    }

    #[test]
    fn de_finds_bright_pixel_attack() {
        let clf = brightness_classifier();
        let attack = SuOpa::new(small_config());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut oracle = Oracle::new(&clf);
        let img = Image::filled(6, 6, Pixel([0.3, 0.3, 0.3]));
        let outcome = attack.attack(&mut oracle, &img, 0, &mut rng);
        match outcome {
            AttackOutcome::Success { pixel, .. } => {
                // The classifier flips when the brightest channel exceeds 0.95.
                assert!(pixel.0.iter().any(|&c| c > 0.95), "{pixel}");
            }
            other => panic!("expected success, got {other:?}"),
        }
    }

    #[test]
    fn minimum_queries_is_baseline_plus_population() {
        // On an unattackable classifier the first generation alone costs
        // population queries (plus the baseline).
        let clf = FnClassifier::new(2, |_: &Image| vec![0.9, 0.1]);
        let attack = SuOpa::new(SuOpaConfig {
            population: 8,
            max_generations: 0,
            differential_weight: 0.5,
        });
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut oracle = Oracle::new(&clf);
        let img = Image::filled(4, 4, Pixel([0.5, 0.5, 0.5]));
        let outcome = attack.attack(&mut oracle, &img, 0, &mut rng);
        assert_eq!(outcome, AttackOutcome::Failure { queries: 9 });
    }

    #[test]
    fn respects_oracle_budget_mid_generation() {
        let clf = FnClassifier::new(2, |_: &Image| vec![0.9, 0.1]);
        let attack = SuOpa::new(small_config());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut oracle = Oracle::with_budget(&clf, 13);
        let img = Image::filled(4, 4, Pixel([0.5, 0.5, 0.5]));
        let outcome = attack.attack(&mut oracle, &img, 0, &mut rng);
        assert_eq!(outcome, AttackOutcome::Failure { queries: 13 });
    }

    #[test]
    fn gene_clamping_keeps_candidates_valid() {
        let g = Gene {
            row: -3.0,
            col: 99.0,
            color: [1.5, -0.5, 0.5],
        }
        .clamp(8, 8);
        assert_eq!(g.location(), Location::new(0, 7));
        assert_eq!(g.pixel(), Pixel([1.0, 0.0, 0.5]));
    }

    #[test]
    #[should_panic(expected = "population of at least 4")]
    fn rejects_tiny_population() {
        SuOpa::new(SuOpaConfig {
            population: 3,
            max_generations: 1,
            differential_weight: 0.5,
        });
    }

    #[test]
    fn is_deterministic_under_seed() {
        let clf = brightness_classifier();
        let attack = SuOpa::new(small_config());
        let img = Image::filled(5, 5, Pixel([0.4, 0.4, 0.4]));
        let run = || {
            let mut rng = ChaCha8Rng::seed_from_u64(77);
            let mut oracle = Oracle::new(&clf);
            attack.attack(&mut oracle, &img, 0, &mut rng)
        };
        assert_eq!(run(), run());
    }
}
