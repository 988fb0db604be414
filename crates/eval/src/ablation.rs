//! The Appendix C ablation (Table 2): OPPSLA vs Sketch+False vs
//! Sketch+Random vs Sparse-RS, per classifier, reporting average and
//! median query counts over the test set.

use crate::curves::{evaluate_attack, evaluate_attack_parallel, AttackEval};
use crate::report::{fmt_rate, fmt_stat, Table};
use oppsla_attacks::{Attack, SketchProgramAttack, SparseRs, SparseRsConfig};
use oppsla_core::dsl::{random_program, ImageDims, Program};
use oppsla_core::oracle::{BatchClassifier, Classifier};
use oppsla_core::synth::{
    evaluate_programs, evaluate_programs_parallel, Evaluation, FilterFn, Labeled, SynthConfig,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The Sketch+Random baseline (Appendix C): samples `samples` random
/// instantiations of the sketch, evaluates each on the training set, and
/// returns the one with the lowest average query count, together with the
/// total queries the selection itself spent. The evaluations share one
/// score table per training image ([`evaluate_programs`]), so a candidate
/// many samples query is forwarded once; counted queries are unchanged.
///
/// # Panics
///
/// Panics if `samples` is zero or `train` is empty.
pub fn random_search_program(
    classifier: &dyn Classifier,
    train: &[Labeled],
    samples: usize,
    seed: u64,
    per_image_budget: Option<u64>,
) -> (Program, u64) {
    random_search_core(train, samples, seed, &mut |candidates| {
        evaluate_programs(candidates, classifier, train, per_image_budget)
    })
}

/// [`random_search_program`] with each candidate evaluated across the
/// training set on `threads` workers. The selected program and query total
/// are identical to the sequential function for any thread count.
pub fn random_search_program_parallel(
    classifier: &dyn BatchClassifier,
    train: &[Labeled],
    samples: usize,
    seed: u64,
    per_image_budget: Option<u64>,
    threads: usize,
) -> (Program, u64) {
    random_search_core(train, samples, seed, &mut |candidates| {
        evaluate_programs_parallel(candidates, classifier, train, per_image_budget, threads)
    })
}

fn random_search_core(
    train: &[Labeled],
    samples: usize,
    seed: u64,
    eval: &mut dyn FnMut(&[Program]) -> Vec<Evaluation>,
) -> (Program, u64) {
    assert!(samples > 0, "need at least one sample");
    assert!(!train.is_empty(), "training set is empty");
    let dims = ImageDims::new(train[0].0.height(), train[0].0.width());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut candidates: Vec<Program> = (0..samples)
        .map(|_| random_program(&mut rng, dims))
        .collect();
    let evaluations = eval(&candidates);
    // `min_by` keeps the first of equal averages: a later sample must be
    // strictly better to win.
    let best = (0..samples)
        .min_by(|&a, &b| {
            evaluations[a]
                .avg_queries
                .total_cmp(&evaluations[b].avg_queries)
        })
        .expect("samples > 0");
    let total_queries = evaluations.iter().map(|e| e.queries_spent).sum();
    (candidates.swap_remove(best), total_queries)
}

/// One row of the ablation: an attack's query statistics on a test set.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Report name of the approach.
    pub approach: String,
    /// Mean queries over successful attacks.
    pub avg_queries: f64,
    /// Median queries over successful attacks.
    pub median_queries: f64,
    /// Overall success rate on valid images.
    pub success_rate: f64,
}

/// The full ablation for one classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// Classifier label (e.g. the architecture id).
    pub classifier: String,
    /// One row per approach, in the paper's order.
    pub rows: Vec<AblationRow>,
}

/// Configuration of [`run_ablation`].
#[derive(Debug, Clone, PartialEq)]
pub struct AblationConfig {
    /// OPPSLA synthesis configuration (its `max_iterations` is also used
    /// as the Sketch+Random sample count, as in the paper's 210/210
    /// pairing).
    pub synth: SynthConfig,
    /// Per-image query budget for the test-set evaluation.
    pub eval_budget: u64,
    /// Sparse-RS configuration.
    pub sparse_rs: SparseRsConfig,
    /// Evaluation seed.
    pub seed: u64,
}

impl Default for AblationConfig {
    fn default() -> Self {
        AblationConfig {
            synth: SynthConfig::default(),
            eval_budget: 10_000,
            sparse_rs: SparseRsConfig::default(),
            seed: 0,
        }
    }
}

/// Runs the Table 2 ablation for one classifier: synthesizes an OPPSLA
/// program from `train`, selects a Sketch+Random program with the same
/// candidate count, and evaluates OPPSLA, Sketch+False, Sketch+Random and
/// Sparse-RS on `test`.
pub fn run_ablation(
    label: &str,
    classifier: &dyn Classifier,
    train: &[Labeled],
    test: &[Labeled],
    config: &AblationConfig,
) -> AblationResult {
    let oppsla_report = oppsla_core::synth::synthesize(classifier, train, &config.synth);
    let random_train = random_train_set(train, config, &mut |t| {
        oppsla_core::synth::filter_attackable(classifier, t)
    });
    let (random_prog, _) = random_search_program(
        classifier,
        &random_train,
        config.synth.max_iterations.max(1),
        config.synth.seed.wrapping_add(0x5EED),
        config.synth.per_image_budget,
    );
    ablation_core(
        label,
        config,
        oppsla_report.program,
        random_prog,
        &mut |a| evaluate_attack(a, classifier, test, config.eval_budget, config.seed),
    )
}

/// [`run_ablation`] with synthesis, random search and the test-set
/// evaluations fanned out over [`SynthConfig::threads`] workers. The
/// resulting table is identical to the sequential one for any thread
/// count.
pub fn run_ablation_parallel(
    label: &str,
    classifier: &dyn BatchClassifier,
    train: &[Labeled],
    test: &[Labeled],
    config: &AblationConfig,
) -> AblationResult {
    let threads = config.synth.threads;
    let oppsla_report = oppsla_core::synth::synthesize_parallel(classifier, train, &config.synth);
    let random_train = random_train_set(train, config, &mut |t| {
        oppsla_core::synth::filter_attackable_parallel(classifier, t, threads)
    });
    let (random_prog, _) = random_search_program_parallel(
        classifier,
        &random_train,
        config.synth.max_iterations.max(1),
        config.synth.seed.wrapping_add(0x5EED),
        config.synth.per_image_budget,
        threads,
    );
    ablation_core(
        label,
        config,
        oppsla_report.program,
        random_prog,
        &mut |a| {
            evaluate_attack_parallel(
                a,
                classifier,
                test,
                config.eval_budget,
                config.seed,
                threads,
            )
        },
    )
}

/// [`run_ablation_parallel`] with telemetry plumbing: counters recorded
/// across the whole ablation (synthesis, random search, and all four
/// attack evaluations) are emitted to `sink` as one `ablation` event
/// tagged with `label`. The returned result is identical to the unplumbed
/// call.
pub fn run_ablation_parallel_with_sink(
    label: &str,
    classifier: &dyn BatchClassifier,
    train: &[Labeled],
    test: &[Labeled],
    config: &AblationConfig,
    sink: &mut dyn oppsla_core::telemetry::MetricsSink,
) -> AblationResult {
    use oppsla_core::telemetry::FieldValue;
    let labels = [
        ("label", FieldValue::Str(label.to_owned())),
        ("train_images", FieldValue::U64(train.len() as u64)),
        ("test_images", FieldValue::U64(test.len() as u64)),
    ];
    crate::obs::with_phase(sink, "ablation", &labels, || {
        run_ablation_parallel(label, classifier, train, test, config)
    })
}

/// Gives the random-search baseline the same prefiltering advantage as
/// OPPSLA so the comparison isolates the *search strategy*.
fn random_train_set(
    train: &[Labeled],
    config: &AblationConfig,
    filter: &mut FilterFn<'_>,
) -> Vec<Labeled> {
    if config.synth.prefilter {
        let (kept, _) = filter(train);
        if kept.is_empty() {
            train.to_vec()
        } else {
            kept
        }
    } else {
        train.to_vec()
    }
}

fn ablation_core(
    label: &str,
    config: &AblationConfig,
    oppsla_program: Program,
    random_prog: Program,
    eval: &mut dyn FnMut(&(dyn Attack + Sync)) -> AttackEval,
) -> AblationResult {
    let approaches: Vec<Box<dyn Attack + Sync>> = vec![
        Box::new(SketchProgramAttack::named(oppsla_program, "oppsla")),
        Box::new(SketchProgramAttack::named(
            Program::constant(false),
            "sketch+false",
        )),
        Box::new(SketchProgramAttack::named(random_prog, "sketch+random")),
        Box::new(SparseRs::new(config.sparse_rs.clone())),
    ];

    let rows = approaches
        .iter()
        .map(|attack| row_from_eval(&eval(attack.as_ref())))
        .collect();

    AblationResult {
        classifier: label.to_owned(),
        rows,
    }
}

fn row_from_eval(eval: &AttackEval) -> AblationRow {
    AblationRow {
        approach: eval.attack_name.clone(),
        avg_queries: eval.avg_queries(),
        median_queries: eval.median_queries(),
        success_rate: eval.success_rate(),
    }
}

/// Renders ablation results as the paper's Table 2 (plus a success-rate
/// column, which the paper states is equal across sketch instantiations).
pub fn ablation_table(results: &[AblationResult]) -> Table {
    let mut table = Table::new(
        "Table 2: impact of the synthesized conditions and the stochastic search",
        vec![
            "Classifier".into(),
            "Approach".into(),
            "Average #Queries".into(),
            "Median #Queries".into(),
            "Success rate".into(),
        ],
    );
    for result in results {
        for (i, row) in result.rows.iter().enumerate() {
            table.push_row(vec![
                if i == 0 {
                    result.classifier.clone()
                } else {
                    String::new()
                },
                row.approach.clone(),
                fmt_stat(row.avg_queries),
                fmt_stat(row.median_queries),
                fmt_rate(row.success_rate),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use oppsla_core::image::Image;
    use oppsla_core::oracle::FnClassifier;
    use oppsla_core::pair::{Location, Pixel};
    use oppsla_core::synth::evaluate_program;

    /// Weak near the centre: white pixel in the central 3×3 flips it.
    fn weak_clf() -> FnClassifier<impl Fn(&Image) -> Vec<f32>> {
        FnClassifier::new(2, |img: &Image| {
            for row in 2..5u16 {
                for col in 2..5u16 {
                    if img.pixel(Location::new(row, col)) == Pixel([1.0, 1.0, 1.0]) {
                        return vec![0.2, 0.8];
                    }
                }
            }
            vec![0.8, 0.2]
        })
    }

    fn sets() -> (Vec<Labeled>, Vec<Labeled>) {
        let mk = |v: f32| (Image::filled(7, 7, Pixel([v, v, v])), 0usize);
        (vec![mk(0.3), mk(0.4)], vec![mk(0.35), mk(0.45), mk(0.5)])
    }

    #[test]
    fn random_search_returns_best_of_samples() {
        let clf = weak_clf();
        let (train, _) = sets();
        let (program, queries) = random_search_program(&clf, &train, 5, 0, None);
        assert!(queries > 0);
        // The selected program attacks the training set successfully.
        let eval = evaluate_program(&program, &clf, &train, None);
        assert!(eval.avg_queries.is_finite());
    }

    #[test]
    fn random_search_selects_what_per_program_evaluation_selects() {
        // Scores move with every pixel, so samples differ in cost; a white
        // pixel at (1, 5) flips the class.
        let clf = FnClassifier::new(2, |img: &Image| {
            if img.pixel(Location::new(1, 5)) == Pixel([1.0, 1.0, 1.0]) {
                return vec![0.3, 0.7];
            }
            let s = img
                .data()
                .iter()
                .enumerate()
                .map(|(i, v)| v * (i % 5) as f32)
                .sum::<f32>()
                / 1000.0;
            vec![1.0 - s, s]
        });
        let (train, _) = sets();
        let (samples, seed, budget) = (12, 3, Some(60));
        // The selection as a running minimum over table-free evaluations.
        let dims = ImageDims::new(7, 7);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut best: Option<(Program, f64)> = None;
        let mut total = 0;
        for _ in 0..samples {
            let candidate = random_program(&mut rng, dims);
            let eval = evaluate_program(&candidate, &clf, &train, budget);
            total += eval.queries_spent;
            if best.as_ref().is_none_or(|(_, avg)| eval.avg_queries < *avg) {
                best = Some((candidate, eval.avg_queries));
            }
        }
        let expected = (best.expect("samples > 0").0, total);
        assert_eq!(
            random_search_program(&clf, &train, samples, seed, budget),
            expected
        );
        for threads in [1, 3] {
            assert_eq!(
                random_search_program_parallel(&clf, &train, samples, seed, budget, threads),
                expected,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn ablation_produces_four_rows_with_equal_sketch_success() {
        let clf = weak_clf();
        let (train, test) = sets();
        let config = AblationConfig {
            synth: SynthConfig {
                max_iterations: 3,
                ..SynthConfig::default()
            },
            eval_budget: 10_000,
            sparse_rs: SparseRsConfig {
                max_iterations: 2_000,
                ..SparseRsConfig::default()
            },
            seed: 0,
        };
        let result = run_ablation("toy", &clf, &train, &test, &config);
        assert_eq!(result.rows.len(), 4);
        let names: Vec<&str> = result.rows.iter().map(|r| r.approach.as_str()).collect();
        assert_eq!(
            names,
            ["oppsla", "sketch+false", "sketch+random", "sparse-rs"]
        );
        // The paper: all sketch instantiations share the same success rate.
        assert_eq!(result.rows[0].success_rate, result.rows[1].success_rate);
        assert_eq!(result.rows[0].success_rate, result.rows[2].success_rate);
        assert_eq!(result.rows[0].success_rate, 1.0);
    }

    #[test]
    fn parallel_ablation_matches_sequential() {
        let clf = weak_clf();
        let (train, test) = sets();
        let config = AblationConfig {
            synth: SynthConfig {
                max_iterations: 3,
                prefilter: true,
                ..SynthConfig::default()
            },
            eval_budget: 10_000,
            sparse_rs: SparseRsConfig {
                max_iterations: 1_000,
                ..SparseRsConfig::default()
            },
            seed: 0,
        };
        let sequential = run_ablation("toy", &clf, &train, &test, &config);
        for threads in [1, 4] {
            let par_config = AblationConfig {
                synth: SynthConfig {
                    threads,
                    ..config.synth.clone()
                },
                ..config.clone()
            };
            let parallel = run_ablation_parallel("toy", &clf, &train, &test, &par_config);
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn ablation_table_renders_every_row() {
        let clf = weak_clf();
        let (train, test) = sets();
        let config = AblationConfig {
            synth: SynthConfig {
                max_iterations: 2,
                ..SynthConfig::default()
            },
            eval_budget: 10_000,
            sparse_rs: SparseRsConfig {
                max_iterations: 500,
                ..SparseRsConfig::default()
            },
            seed: 0,
        };
        let result = run_ablation("toy", &clf, &train, &test, &config);
        let table = ablation_table(&[result]);
        let s = table.to_string();
        assert!(s.contains("oppsla"), "{s}");
        assert!(s.contains("sketch+false"), "{s}");
        assert!(s.contains("sparse-rs"), "{s}");
    }
}
