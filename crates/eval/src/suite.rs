//! Per-class program suites.
//!
//! The paper synthesizes one adversarial program per class (e.g. ten
//! programs for CIFAR-10, one per 50-image class training set) and attacks
//! a test image with the program of its true class. [`ProgramSuite`]
//! bundles those programs; [`SuiteAttack`] dispatches per image.

use oppsla_attacks::{Attack, AttackOutcome, SketchProgramAttack};
use oppsla_core::dsl::Program;
use oppsla_core::image::Image;
use oppsla_core::oracle::{BatchClassifier, Classifier, Oracle};
use oppsla_core::prior::Prior;
use oppsla_core::synth::{synthesize, synthesize_parallel, Labeled, SynthConfig, SynthReport};
use rand::RngCore;
use std::fs;
use std::path::Path;
use std::sync::Arc;

/// A set of synthesized programs, one per class (or a single shared one).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSuite {
    programs: Vec<Program>,
}

impl ProgramSuite {
    /// A suite that uses the same program for every class.
    pub fn shared(program: Program) -> Self {
        ProgramSuite {
            programs: vec![program],
        }
    }

    /// A suite with one program per class.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty.
    pub fn per_class(programs: Vec<Program>) -> Self {
        assert!(!programs.is_empty(), "a suite needs at least one program");
        ProgramSuite { programs }
    }

    /// The program used for `class`.
    pub fn program_for(&self, class: usize) -> &Program {
        if self.programs.len() == 1 {
            &self.programs[0]
        } else {
            &self.programs[class % self.programs.len()]
        }
    }

    /// All programs in the suite.
    pub fn programs(&self) -> &[Program] {
        &self.programs
    }
}

/// Synthesizes a per-class suite: one OPPSLA run per class over that
/// class's slice of `train`. Returns the suite plus each class's
/// [`SynthReport`] (for query accounting).
///
/// Classes with no training images fall back to the fixed-prioritization
/// program.
pub fn synthesize_suite(
    classifier: &dyn Classifier,
    train: &[Labeled],
    num_classes: usize,
    config: &SynthConfig,
) -> (ProgramSuite, Vec<Option<SynthReport>>) {
    suite_core(
        train,
        num_classes,
        config,
        &mut |class_train, class_config| synthesize(classifier, class_train, class_config),
    )
}

/// [`synthesize_suite`] with each class's OPPSLA run evaluating candidates
/// on [`SynthConfig::threads`] workers. Per-class seeds and bit-identical
/// parallel evaluation make the resulting suite identical to the
/// sequential one for any thread count.
pub fn synthesize_suite_parallel(
    classifier: &dyn BatchClassifier,
    train: &[Labeled],
    num_classes: usize,
    config: &SynthConfig,
) -> (ProgramSuite, Vec<Option<SynthReport>>) {
    suite_core(
        train,
        num_classes,
        config,
        &mut |class_train, class_config| synthesize_parallel(classifier, class_train, class_config),
    )
}

/// [`synthesize_suite_parallel`] with telemetry plumbing: counters
/// recorded during the whole per-class synthesis sweep (candidate
/// programs, acceptances, phase queries, delta-cache traffic) are emitted
/// to `sink` as one `suite_synthesis` event. The returned suite is
/// identical to the unplumbed call.
pub fn synthesize_suite_parallel_with_sink(
    classifier: &dyn BatchClassifier,
    train: &[Labeled],
    num_classes: usize,
    config: &SynthConfig,
    sink: &mut dyn oppsla_core::telemetry::MetricsSink,
) -> (ProgramSuite, Vec<Option<SynthReport>>) {
    use oppsla_core::telemetry::FieldValue;
    let labels = [
        ("classes", FieldValue::U64(num_classes as u64)),
        ("train_images", FieldValue::U64(train.len() as u64)),
    ];
    crate::obs::with_phase(sink, "suite_synthesis", &labels, || {
        synthesize_suite_parallel(classifier, train, num_classes, config)
    })
}

/// The per-class loop shared by the sequential and parallel suite
/// synthesizers; `synth` runs OPPSLA on one class's training slice.
fn suite_core(
    train: &[Labeled],
    num_classes: usize,
    config: &SynthConfig,
    synth: &mut dyn FnMut(&[Labeled], &SynthConfig) -> SynthReport,
) -> (ProgramSuite, Vec<Option<SynthReport>>) {
    assert!(num_classes >= 2, "need at least two classes");
    let mut programs = Vec::with_capacity(num_classes);
    let mut reports = Vec::with_capacity(num_classes);
    for class in 0..num_classes {
        oppsla_core::telemetry::trace::begin_class(class as u32);
        let class_train: Vec<Labeled> =
            train.iter().filter(|(_, c)| *c == class).cloned().collect();
        if class_train.is_empty() {
            programs.push(Program::constant(false));
            reports.push(None);
            continue;
        }
        let mut class_config = config.clone();
        class_config.seed = config.seed.wrapping_add(class as u64);
        let report = synth(&class_train, &class_config);
        programs.push(report.program.clone());
        reports.push(Some(report));
    }
    (ProgramSuite::per_class(programs), reports)
}

/// Loads a suite from a JSON cache file.
///
/// # Errors
///
/// Returns an error string when the file is unreadable or malformed.
pub fn load_suite(path: &Path) -> Result<ProgramSuite, String> {
    let json = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let programs: Vec<Program> =
        serde_json::from_str(&json).map_err(|e| format!("parse {}: {e}", path.display()))?;
    if programs.is_empty() {
        return Err(format!("{}: empty suite", path.display()));
    }
    Ok(ProgramSuite { programs })
}

/// Saves a suite as JSON, creating parent directories.
///
/// # Errors
///
/// Returns an error string on filesystem or serialization failure.
pub fn save_suite(suite: &ProgramSuite, path: &Path) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
    }
    let json = serde_json::to_string_pretty(&suite.programs).map_err(|e| e.to_string())?;
    fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Synthesizes a per-class suite with a JSON file cache: a readable cache
/// file short-circuits synthesis (returning no reports); otherwise the
/// suite is synthesized and cached.
pub fn synthesize_suite_cached(
    classifier: &dyn Classifier,
    train: &[Labeled],
    num_classes: usize,
    config: &SynthConfig,
    cache_path: Option<&Path>,
) -> (ProgramSuite, Option<Vec<Option<SynthReport>>>) {
    cached_core(cache_path, &mut || {
        synthesize_suite(classifier, train, num_classes, config)
    })
}

/// [`synthesize_suite_cached`] on the parallel synthesis path; cache files
/// are interchangeable between the two (the suites are identical).
pub fn synthesize_suite_cached_parallel(
    classifier: &dyn BatchClassifier,
    train: &[Labeled],
    num_classes: usize,
    config: &SynthConfig,
    cache_path: Option<&Path>,
) -> (ProgramSuite, Option<Vec<Option<SynthReport>>>) {
    cached_core(cache_path, &mut || {
        synthesize_suite_parallel(classifier, train, num_classes, config)
    })
}

fn cached_core(
    cache_path: Option<&Path>,
    synth: &mut dyn FnMut() -> (ProgramSuite, Vec<Option<SynthReport>>),
) -> (ProgramSuite, Option<Vec<Option<SynthReport>>>) {
    if let Some(path) = cache_path {
        if let Ok(suite) = load_suite(path) {
            return (suite, None);
        }
    }
    let (suite, reports) = synth();
    if let Some(path) = cache_path {
        if let Err(e) = save_suite(&suite, path) {
            eprintln!("warning: failed to cache program suite: {e}");
        }
    }
    (suite, Some(reports))
}

/// An [`Attack`] that runs the suite program matching each image's class.
#[derive(Clone)]
pub struct SuiteAttack {
    suite: ProgramSuite,
    name: &'static str,
    /// Initial-queue prior; `None` = the paper's uniform order.
    prior: Option<Arc<dyn Prior>>,
}

impl std::fmt::Debug for SuiteAttack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuiteAttack")
            .field("suite", &self.suite)
            .field("name", &self.name)
            .field(
                "prior",
                &self.prior.as_ref().map_or("uniform", |p| p.name()),
            )
            .finish()
    }
}

impl PartialEq for SuiteAttack {
    fn eq(&self, other: &Self) -> bool {
        let same_prior = match (&self.prior, &other.prior) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        self.suite == other.suite && self.name == other.name && same_prior
    }
}

impl SuiteAttack {
    /// Wraps a suite under the report name `"oppsla"`.
    pub fn new(suite: ProgramSuite) -> Self {
        SuiteAttack {
            suite,
            name: "oppsla",
            prior: None,
        }
    }

    /// Wraps a suite under a custom report name.
    pub fn named(suite: ProgramSuite, name: &'static str) -> Self {
        SuiteAttack {
            suite,
            name,
            prior: None,
        }
    }

    /// Sets the initial-queue prior applied to every dispatched program
    /// (the paper's uniform centre-out order by default). The prior only
    /// permutes the starting order; success guarantees are untouched.
    pub fn with_prior(mut self, prior: Arc<dyn Prior>) -> Self {
        self.prior = Some(prior);
        self
    }

    /// The wrapped suite.
    pub fn suite(&self) -> &ProgramSuite {
        &self.suite
    }
}

impl Attack for SuiteAttack {
    fn name(&self) -> &'static str {
        self.name
    }

    fn attack(
        &self,
        oracle: &mut Oracle<'_>,
        image: &Image,
        true_class: usize,
        rng: &mut dyn RngCore,
    ) -> AttackOutcome {
        let program = self.suite.program_for(true_class).clone();
        let mut attack = SketchProgramAttack::new(program);
        if let Some(prior) = &self.prior {
            attack = attack.with_prior(Arc::clone(prior));
        }
        attack.attack(oracle, image, true_class, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TempDir;
    use oppsla_core::oracle::FnClassifier;
    use oppsla_core::pair::{Location, Pixel};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn shared_suite_serves_same_program_for_all_classes() {
        let suite = ProgramSuite::shared(Program::paper_example());
        assert_eq!(suite.program_for(0), suite.program_for(7));
    }

    #[test]
    fn per_class_suite_dispatches_by_class() {
        let a = Program::constant(false);
        let b = Program::paper_example();
        let suite = ProgramSuite::per_class(vec![a.clone(), b.clone()]);
        assert_eq!(*suite.program_for(0), a);
        assert_eq!(*suite.program_for(1), b);
    }

    #[test]
    fn synthesize_suite_produces_one_program_per_class() {
        let clf = FnClassifier::new(2, |img: &Image| {
            if img.pixel(Location::new(1, 1)) == Pixel([1.0, 1.0, 1.0]) {
                vec![0.1, 0.9]
            } else {
                vec![0.9, 0.1]
            }
        });
        let train = vec![
            (Image::filled(3, 3, Pixel([0.4, 0.4, 0.4])), 0),
            (Image::filled(3, 3, Pixel([0.5, 0.5, 0.5])), 0),
        ];
        let config = SynthConfig {
            max_iterations: 2,
            ..SynthConfig::default()
        };
        let (suite, reports) = synthesize_suite(&clf, &train, 2, &config);
        assert_eq!(suite.programs().len(), 2);
        assert!(reports[0].is_some(), "class 0 had training data");
        assert!(reports[1].is_none(), "class 1 had none → fallback");
        assert_eq!(*suite.program_for(1), Program::constant(false));
    }

    #[test]
    fn parallel_suite_matches_sequential_suite() {
        let clf = FnClassifier::new(2, |img: &Image| {
            if img.pixel(Location::new(1, 1)) == Pixel([1.0, 1.0, 1.0]) {
                vec![0.1, 0.9]
            } else {
                vec![0.9, 0.1]
            }
        });
        let train = vec![
            (Image::filled(3, 3, Pixel([0.4, 0.4, 0.4])), 0),
            (Image::filled(3, 3, Pixel([0.5, 0.5, 0.5])), 0),
            (Image::filled(3, 3, Pixel([0.6, 0.6, 0.6])), 1),
        ];
        let config = SynthConfig {
            max_iterations: 3,
            ..SynthConfig::default()
        };
        let (sequential, seq_reports) = synthesize_suite(&clf, &train, 2, &config);
        for threads in [1, 4] {
            let par_config = SynthConfig {
                threads,
                ..config.clone()
            };
            let (parallel, par_reports) = synthesize_suite_parallel(&clf, &train, 2, &par_config);
            assert_eq!(parallel, sequential, "threads = {threads}");
            // Reports differ only in the recorded thread count's effect on
            // nothing: evaluations, acceptance, and totals are identical.
            assert_eq!(par_reports, seq_reports, "threads = {threads}");
        }
    }

    #[test]
    fn suite_cache_round_trips() {
        let dir = TempDir::new("suite-test");
        let path = dir.join("suite.json");
        let suite = ProgramSuite::per_class(vec![
            Program::paper_example(),
            Program::constant(false),
            Program::constant(true),
        ]);
        save_suite(&suite, &path).unwrap();
        let loaded = load_suite(&path).unwrap();
        assert_eq!(loaded, suite);
    }

    #[test]
    fn load_suite_rejects_missing_and_malformed_files() {
        assert!(load_suite(std::path::Path::new("/nonexistent/suite.json")).is_err());
        let dir = TempDir::new("suite-bad");
        let path = dir.join("bad.json");
        std::fs::write(&path, "[not json").unwrap();
        assert!(load_suite(&path).is_err());
        std::fs::write(&path, "[]").unwrap();
        assert!(load_suite(&path).is_err(), "empty suites are rejected");
    }

    #[test]
    fn synthesize_suite_cached_short_circuits_on_hit() {
        let clf = FnClassifier::new(2, |img: &Image| {
            if img.pixel(Location::new(1, 1)) == Pixel([1.0, 1.0, 1.0]) {
                vec![0.1, 0.9]
            } else {
                vec![0.9, 0.1]
            }
        });
        let train = vec![(Image::filled(3, 3, Pixel([0.4, 0.4, 0.4])), 0)];
        let config = SynthConfig {
            max_iterations: 1,
            ..SynthConfig::default()
        };
        let dir = TempDir::new("suite-hit");
        let path = dir.join("cached.json");
        let (first, first_reports) = synthesize_suite_cached(&clf, &train, 2, &config, Some(&path));
        assert!(first_reports.is_some(), "cold cache synthesizes");
        let (second, second_reports) =
            synthesize_suite_cached(&clf, &train, 2, &config, Some(&path));
        assert!(second_reports.is_none(), "warm cache loads");
        assert_eq!(first, second);
    }

    #[test]
    fn suite_attack_succeeds_like_underlying_program() {
        let clf = FnClassifier::new(2, |img: &Image| {
            if img.pixel(Location::new(0, 0)) == Pixel([0.0, 0.0, 0.0]) {
                vec![0.1, 0.9]
            } else {
                vec![0.9, 0.1]
            }
        });
        let suite = ProgramSuite::shared(Program::constant(false));
        let attack = SuiteAttack::new(suite);
        let mut oracle = Oracle::new(&clf);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let img = Image::filled(3, 3, Pixel([0.6, 0.6, 0.6]));
        assert!(attack.attack(&mut oracle, &img, 0, &mut rng).is_success());
    }
}
