//! Attack evaluation over a test set: per-image outcomes, success-rate
//! curves as a function of the query budget (the paper's Figure 3), and
//! query statistics (average / median, Tables 1 and 2).

use oppsla_attacks::{Attack, AttackOutcome};
use oppsla_core::image::Image;
use oppsla_core::oracle::{BatchClassifier, Classifier, Oracle};
use oppsla_core::parallel::parallel_map_with;
use oppsla_core::telemetry::{trace, FieldValue, MetricsSink};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Per-image outcomes of running one attack over a test set.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackEval {
    /// The report name of the evaluated attack.
    pub attack_name: String,
    /// Outcome per test image, in input order.
    pub outcomes: Vec<AttackOutcome>,
}

impl AttackEval {
    /// Number of *valid* images: those the classifier got right to begin
    /// with (misclassified images are discarded, as in the paper).
    pub fn num_valid(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !matches!(o, AttackOutcome::AlreadyMisclassified { .. }))
            .count()
    }

    /// Query counts of the successful attacks, in input order.
    pub fn success_queries(&self) -> Vec<u64> {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                AttackOutcome::Success { queries, .. } => Some(*queries),
                _ => None,
            })
            .collect()
    }

    /// Fraction of valid images successfully attacked within `budget`
    /// queries. Returns 0 when there are no valid images.
    pub fn success_rate_at(&self, budget: u64) -> f64 {
        let valid = self.num_valid();
        if valid == 0 {
            return 0.0;
        }
        let hits = self
            .success_queries()
            .iter()
            .filter(|&&q| q <= budget)
            .count();
        hits as f64 / valid as f64
    }

    /// Overall success rate (no budget cut).
    pub fn success_rate(&self) -> f64 {
        self.success_rate_at(u64::MAX)
    }

    /// Mean queries over successful attacks (`NaN` when none succeeded).
    pub fn avg_queries(&self) -> f64 {
        let qs = self.success_queries();
        if qs.is_empty() {
            return f64::NAN;
        }
        qs.iter().sum::<u64>() as f64 / qs.len() as f64
    }

    /// Median queries over successful attacks (`NaN` when none succeeded).
    /// Even-length medians average the two central values, matching the
    /// paper's fractional medians.
    pub fn median_queries(&self) -> f64 {
        let mut qs = self.success_queries();
        if qs.is_empty() {
            return f64::NAN;
        }
        qs.sort_unstable();
        let n = qs.len();
        if n % 2 == 1 {
            qs[n / 2] as f64
        } else {
            (qs[n / 2 - 1] + qs[n / 2]) as f64 / 2.0
        }
    }

    /// Samples the success-rate curve at the given budgets (the series of
    /// Figure 3).
    pub fn curve(&self, budgets: &[u64]) -> Vec<(u64, f64)> {
        budgets
            .iter()
            .map(|&b| (b, self.success_rate_at(b)))
            .collect()
    }
}

/// Runs `attack` on every `(image, true_class)` in `test`, each with a
/// fresh per-image oracle capped at `budget` queries. Randomized attacks
/// draw from a per-image seeded stream so evaluations are reproducible and
/// order-independent.
pub fn evaluate_attack(
    attack: &dyn Attack,
    classifier: &dyn Classifier,
    test: &[(Image, usize)],
    budget: u64,
    seed: u64,
) -> AttackEval {
    trace::begin_sweep("attack_eval", test.len(), attack.name());
    let outcomes = test
        .iter()
        .enumerate()
        .map(|(i, (image, true_class))| {
            let mut oracle = Oracle::with_budget(classifier, budget);
            let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(i as u64));
            trace::set_image(i);
            let outcome = attack.attack(&mut oracle, image, *true_class, &mut rng);
            trace::record_run(
                outcome.queries(),
                matches!(outcome, AttackOutcome::Success { .. }),
            );
            oppsla_core::telemetry::observe_image_queries(outcome.queries());
            outcome
        })
        .collect();
    AttackEval {
        attack_name: attack.name().to_owned(),
        outcomes,
    }
}

/// [`evaluate_attack`] fanned out over `threads` workers, each querying
/// through its own [`BatchClassifier::session`] handle. Per-image oracles
/// and per-image seeded random streams make the evaluation outcome
/// independent of scheduling: the result is identical to the sequential
/// function for any thread count.
pub fn evaluate_attack_parallel(
    attack: &(dyn Attack + Sync),
    classifier: &dyn BatchClassifier,
    test: &[(Image, usize)],
    budget: u64,
    seed: u64,
    threads: usize,
) -> AttackEval {
    trace::begin_sweep("attack_eval", test.len(), attack.name());
    let outcomes = parallel_map_with(
        threads,
        test,
        || classifier.session(),
        |session, i, (image, true_class)| {
            let mut oracle = Oracle::with_budget(&**session, budget);
            let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(i as u64));
            trace::set_image(i);
            let outcome = attack.attack(&mut oracle, image, *true_class, &mut rng);
            trace::record_run(
                outcome.queries(),
                matches!(outcome, AttackOutcome::Success { .. }),
            );
            oppsla_core::telemetry::observe_image_queries(outcome.queries());
            outcome
        },
    );
    AttackEval {
        attack_name: attack.name().to_owned(),
        outcomes,
    }
}

/// [`evaluate_attack_parallel`] with telemetry plumbing: the counters
/// recorded during this evaluation (phase queries, delta-cache traffic,
/// the per-image query histogram) are emitted to `sink` as one
/// `attack_eval` event tagged with the attack's name and the budget. The
/// returned evaluation is identical to the unplumbed call.
pub fn evaluate_attack_parallel_with_sink(
    attack: &(dyn Attack + Sync),
    classifier: &dyn BatchClassifier,
    test: &[(Image, usize)],
    budget: u64,
    seed: u64,
    threads: usize,
    sink: &mut dyn MetricsSink,
) -> AttackEval {
    let labels = [
        ("attack", FieldValue::Str(attack.name().to_owned())),
        ("budget", FieldValue::U64(budget)),
        ("images", FieldValue::U64(test.len() as u64)),
    ];
    crate::obs::with_phase(sink, "attack_eval", &labels, || {
        evaluate_attack_parallel(attack, classifier, test, budget, seed, threads)
    })
}

/// The standard budget grid used by the Figure 3 reproduction.
pub fn default_budget_grid() -> Vec<u64> {
    vec![10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10_000]
}

#[cfg(test)]
mod tests {
    use super::*;
    use oppsla_attacks::SketchProgramAttack;
    use oppsla_core::dsl::Program;
    use oppsla_core::oracle::FnClassifier;
    use oppsla_core::pair::{Location, Pixel};

    fn trigger_clf(target: Location) -> FnClassifier<impl Fn(&Image) -> Vec<f32>> {
        FnClassifier::new(2, move |img: &Image| {
            if img.pixel(target) == Pixel([1.0, 1.0, 1.0]) {
                vec![0.1, 0.9]
            } else {
                vec![0.9, 0.1]
            }
        })
    }

    fn grey_set(n: usize) -> Vec<(Image, usize)> {
        (0..n)
            .map(|i| {
                let v = 0.3 + 0.02 * i as f32;
                (Image::filled(4, 4, Pixel([v, v, v])), 0)
            })
            .collect()
    }

    #[test]
    fn evaluate_attack_runs_per_image_budgets() {
        let clf = trigger_clf(Location::new(1, 1));
        let attack = SketchProgramAttack::new(Program::constant(false));
        let eval = evaluate_attack(&attack, &clf, &grey_set(3), 10_000, 0);
        assert_eq!(eval.outcomes.len(), 3);
        assert_eq!(eval.num_valid(), 3);
        assert_eq!(eval.success_rate(), 1.0);
        assert!(eval.avg_queries() >= 2.0);
    }

    #[test]
    fn parallel_evaluation_matches_sequential_for_any_thread_count() {
        let clf = trigger_clf(Location::new(2, 1));
        let attack = SketchProgramAttack::new(Program::paper_example());
        let reference = evaluate_attack(&attack, &clf, &grey_set(5), 10_000, 3);
        for threads in [1, 2, 4, 8] {
            let parallel =
                evaluate_attack_parallel(&attack, &clf, &grey_set(5), 10_000, 3, threads);
            assert_eq!(parallel, reference, "threads = {threads}");
        }
    }

    #[test]
    fn success_rate_at_respects_budget_cut() {
        let clf = trigger_clf(Location::new(3, 3)); // far from centre → late
        let attack = SketchProgramAttack::new(Program::constant(false));
        let eval = evaluate_attack(&attack, &clf, &grey_set(2), 10_000, 0);
        assert_eq!(eval.success_rate(), 1.0);
        assert_eq!(eval.success_rate_at(1), 0.0, "one query cannot succeed");
        let needed = eval.success_queries()[0];
        assert_eq!(eval.success_rate_at(needed), 1.0);
        assert_eq!(eval.success_rate_at(needed - 1), 0.0);
    }

    #[test]
    fn budget_exhaustion_counts_as_failure() {
        let clf = trigger_clf(Location::new(3, 3));
        let attack = SketchProgramAttack::new(Program::constant(false));
        let eval = evaluate_attack(&attack, &clf, &grey_set(2), 3, 0);
        assert_eq!(eval.success_rate(), 0.0);
        assert!(eval.avg_queries().is_nan());
        assert!(eval.median_queries().is_nan());
    }

    #[test]
    fn misclassified_images_are_excluded_from_the_denominator() {
        // Classifier always answers class 1 → every class-0 image is
        // "already misclassified"; one class-1 image is valid but robust.
        let clf = FnClassifier::new(2, |_: &Image| vec![0.1, 0.9]);
        let attack = SketchProgramAttack::new(Program::constant(false));
        let mut test = grey_set(3); // labels 0 → all discarded
        test.push((Image::filled(4, 4, Pixel([0.5, 0.5, 0.5])), 1));
        let eval = evaluate_attack(&attack, &clf, &test, 10_000, 0);
        assert_eq!(eval.num_valid(), 1);
        assert_eq!(eval.success_rate(), 0.0);
    }

    #[test]
    fn median_averages_central_pair() {
        let eval = AttackEval {
            attack_name: "x".into(),
            outcomes: vec![
                AttackOutcome::Success {
                    location: Location::new(0, 0),
                    pixel: Pixel([0.0; 3]),
                    queries: 2,
                },
                AttackOutcome::Success {
                    location: Location::new(0, 0),
                    pixel: Pixel([0.0; 3]),
                    queries: 10,
                },
                AttackOutcome::Success {
                    location: Location::new(0, 0),
                    pixel: Pixel([0.0; 3]),
                    queries: 4,
                },
                AttackOutcome::Failure { queries: 100 },
            ],
        };
        assert_eq!(eval.median_queries(), 4.0);
        assert!((eval.avg_queries() - 16.0 / 3.0).abs() < 1e-9);
        assert_eq!(eval.success_rate_at(4), 0.5);
    }

    #[test]
    fn curve_is_monotone_in_budget() {
        let clf = trigger_clf(Location::new(2, 2));
        let attack = SketchProgramAttack::new(Program::constant(false));
        let eval = evaluate_attack(&attack, &clf, &grey_set(4), 10_000, 0);
        let curve = eval.curve(&default_budget_grid());
        for w in curve.windows(2) {
            assert!(w[0].1 <= w[1].1, "success rate must be monotone");
        }
    }
}
