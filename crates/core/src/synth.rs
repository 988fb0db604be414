//! OPPSLA: the Metropolis–Hastings program synthesizer (Algorithm 2 /
//! Appendix B of the paper).
//!
//! The search space is every instantiation of the sketch's four
//! conditions. Candidates are scored by the *average number of queries*
//! their attack needs over a training set, `S(P) = exp(−β·Q̄_P)`, and a
//! mutated candidate `P'` replaces the incumbent `P` with probability
//! `min(1, S(P')/S(P)) = min(1, exp(−β·(Q̄_{P'} − Q̄_P)))`. We compute the
//! ratio in the exponent domain so large `Q̄` never underflows.

use crate::dsl::{mutate_in, random_program_in, GrammarConfig, ImageDims, Program};
use crate::image::Image;
use crate::oracle::{candidate_key, BatchClassifier, CandidateKey, Classifier, Oracle, WordHasher};
use crate::pair::{Location, Pixel};
use crate::parallel::parallel_map_with;
use crate::sketch::{run_sketch, SketchOutcome};
use crate::telemetry::trace;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Mutex;

/// A training example: an image with its true class label.
pub type Labeled = (Image, usize);

/// A prefilter callback: keeps the vulnerable subset of a training set
/// and reports the classifier queries spent deciding.
pub type FilterFn<'a> = dyn FnMut(&[Labeled]) -> (Vec<Labeled>, u64) + 'a;

/// Configuration of a synthesis run.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// `MAX_ITER`: number of mutate-evaluate-accept iterations. The paper
    /// uses 210.
    pub max_iterations: usize,
    /// The score exponent `β` in `S(P) = exp(−β·Q̄_P)`.
    pub beta: f64,
    /// Seed for the initial program, mutations and acceptance sampling.
    pub seed: u64,
    /// Per-image query cap during candidate evaluation. `None` lets every
    /// attack run to completion (at most `8·d₁·d₂ + 1` queries). A cap
    /// bounds synthesis cost on hard images; capped runs count as
    /// failures, mirroring the paper's treatment of unsuccessful inputs.
    pub per_image_budget: Option<u64>,
    /// When true, training images with *no* one-pixel corner attack at all
    /// are dropped before the search starts (detected by one uncapped run
    /// of the fixed-prioritization program per image, whose queries count
    /// toward the synthesis total). The paper's score already ignores
    /// unsuccessful inputs — "their number of queries is fixed" — so
    /// re-paying that fixed cost every iteration is pure waste; filtering
    /// preserves the score semantics while making each iteration cheap.
    pub prefilter: bool,
    /// The condition grammar the search draws from: the paper's atomic
    /// grammar by default, or the extended boolean-combinator grammar
    /// ([`GrammarConfig::extended`]).
    pub grammar: GrammarConfig,
    /// Worker threads used by [`synthesize_parallel`] (and the other
    /// `*_parallel` entry points) to spread candidate evaluation over the
    /// training set. Ignored by the sequential [`synthesize`]. Any value
    /// produces a bit-identical [`SynthReport`]: per-image query counts
    /// are exact integers reduced by order-independent sums, and the MH
    /// random stream never leaves the main thread.
    pub threads: usize,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            max_iterations: 210,
            beta: 0.01,
            seed: 0,
            per_image_budget: None,
            prefilter: false,
            grammar: GrammarConfig::paper(),
            threads: 1,
        }
    }
}

/// The evaluation of one candidate program on the training set.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// `Q̄_P`: mean queries over the training inputs the program attacked
    /// successfully (`f64::INFINITY` when it succeeded on none).
    pub avg_queries: f64,
    /// How many training inputs were attacked successfully.
    pub successes: usize,
    /// Total classifier queries this evaluation spent.
    pub queries_spent: u64,
}

/// One Metropolis–Hastings iteration, for trajectory analysis (Figure 4).
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Iteration number, starting at 1 (0 is the initial program).
    pub iteration: usize,
    /// The mutated candidate proposed this iteration.
    pub candidate: Program,
    /// The candidate's evaluation.
    pub evaluation: Evaluation,
    /// Whether the candidate was accepted as the new incumbent.
    pub accepted: bool,
    /// Total synthesis queries spent up to and including this iteration.
    pub cumulative_queries: u64,
}

/// The result of a synthesis run.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthReport {
    /// The final (incumbent) program.
    pub program: Program,
    /// How many training images the prefilter dropped as unattackable
    /// (0 when prefiltering is off).
    pub prefiltered: usize,
    /// The initial random program's evaluation.
    pub initial: Evaluation,
    /// The initial random program itself.
    pub initial_program: Program,
    /// Per-iteration records, in order.
    pub iterations: Vec<IterationRecord>,
    /// Total queries posed to the classifier during synthesis.
    pub total_queries: u64,
}

impl SynthReport {
    /// The accepted-program trajectory: `(iteration, cumulative_queries,
    /// program)` for the initial program and every accepted candidate —
    /// the x-axes and series of the paper's Figure 4.
    pub fn accepted_trajectory(&self) -> Vec<(usize, u64, Program)> {
        let initial_cumulative = self
            .iterations
            .first()
            .map(|r| r.cumulative_queries - r.evaluation.queries_spent)
            .unwrap_or(self.total_queries);
        let mut out = vec![(0, initial_cumulative, self.initial_program.clone())];
        for rec in &self.iterations {
            if rec.accepted {
                out.push((rec.iteration, rec.cumulative_queries, rec.candidate.clone()));
            }
        }
        out
    }
}

/// Attacks one training pair: `(queries spent, queries if successful)`.
fn attack_one(
    program: &Program,
    classifier: &dyn Classifier,
    image: &Image,
    true_class: usize,
    per_image_budget: Option<u64>,
) -> (u64, Option<u64>) {
    let mut oracle = match per_image_budget {
        Some(b) => Oracle::with_budget(classifier, b),
        None => Oracle::new(classifier),
    };
    let outcome = run_sketch(program, &mut oracle, image, true_class);
    let spent = outcome.queries();
    match outcome {
        SketchOutcome::Success { queries, .. } => (spent, Some(queries)),
        _ => (spent, None),
    }
}

/// [`attack_one`] bracketed by trace addressing: tags the worker's
/// subsequent records with the training-set index and closes the run
/// with its query count and outcome.
fn attack_one_traced(
    program: &Program,
    classifier: &dyn Classifier,
    index: usize,
    image: &Image,
    true_class: usize,
    per_image_budget: Option<u64>,
) -> (u64, Option<u64>) {
    trace::set_image(index);
    let result = attack_one(program, classifier, image, true_class, per_image_budget);
    trace::record_run(result.0, result.1.is_some());
    result
}

/// Reduces per-image attack results into an [`Evaluation`]. All sums are
/// exact integers, so the result is independent of the order (and thus the
/// thread assignment) the per-image results were produced in.
fn reduce_evaluation(per_image: impl IntoIterator<Item = (u64, Option<u64>)>) -> Evaluation {
    let mut total_queries = 0u64;
    let mut success_queries = 0u64;
    let mut successes = 0usize;
    for (spent, success) in per_image {
        total_queries += spent;
        if let Some(queries) = success {
            success_queries += queries;
            successes += 1;
        }
    }
    Evaluation {
        avg_queries: if successes == 0 {
            f64::INFINITY
        } else {
            success_queries as f64 / successes as f64
        },
        successes,
        queries_spent: total_queries,
    }
}

/// Evaluates `program` on the training set: runs the sketch attack on
/// every `(image, true_class)` pair and averages the query counts of the
/// successful ones (Algorithm 2's inner loop). Every query reaches
/// `classifier`: this is the reference that the score-table-backed
/// evaluations of [`synthesize`] and [`evaluate_programs`] reproduce.
///
/// # Panics
///
/// Panics if `train` is empty or a true class is out of range.
pub fn evaluate_program(
    program: &Program,
    classifier: &dyn Classifier,
    train: &[Labeled],
    per_image_budget: Option<u64>,
) -> Evaluation {
    assert!(!train.is_empty(), "training set is empty");
    reduce_evaluation(train.iter().enumerate().map(|(i, (image, c))| {
        attack_one_traced(program, classifier, i, image, *c, per_image_budget)
    }))
}

/// Evaluates each of `programs` on `train`, in order. Every
/// [`Evaluation`], query counts included, equals what
/// [`evaluate_program`] returns for that program alone; but the whole call
/// shares one score table per training-set position, so each (image,
/// candidate) pair reaches `classifier` at most once however many
/// programs query it.
///
/// # Panics
///
/// Panics if `train` is empty or a true class is out of range.
pub fn evaluate_programs(
    programs: &[Program],
    classifier: &dyn Classifier,
    train: &[Labeled],
    per_image_budget: Option<u64>,
) -> Vec<Evaluation> {
    assert!(!train.is_empty(), "training set is empty");
    let scorer = Scorer::new(Backend::Sequential(classifier), train);
    programs
        .iter()
        .map(|p| scorer.evaluate(p, per_image_budget))
        .collect()
}

/// [`evaluate_programs`] with each evaluation fanned out over `threads`
/// workers. The evaluations, and the set of classifier forwards, are
/// identical for any thread count.
///
/// # Panics
///
/// Panics if `train` is empty or a true class is out of range.
pub fn evaluate_programs_parallel(
    programs: &[Program],
    classifier: &dyn BatchClassifier,
    train: &[Labeled],
    per_image_budget: Option<u64>,
    threads: usize,
) -> Vec<Evaluation> {
    assert!(!train.is_empty(), "training set is empty");
    let scorer = Scorer::new(Backend::Parallel(classifier, threads), train);
    programs
        .iter()
        .map(|p| scorer.evaluate(p, per_image_budget))
        .collect()
}

/// The MH acceptance probability `min(1, exp(−β·(q_new − q_old)))`,
/// computed in the exponent domain. Handles infinite averages: a finite
/// candidate always beats an infinite incumbent and vice versa; two
/// infinite averages tie (probability 1, as `Q̄' − Q̄ = 0` conceptually).
pub fn acceptance_probability(beta: f64, q_old: f64, q_new: f64) -> f64 {
    match (q_old.is_infinite(), q_new.is_infinite()) {
        (true, true) => 1.0,
        (true, false) => 1.0,
        (false, true) => 0.0,
        (false, false) => (-beta * (q_new - q_old)).exp().min(1.0),
    }
}

/// Splits `train` into its attackable subset: runs the fixed-prioritization
/// program uncapped on every image and keeps those with a successful
/// one-pixel corner attack (a program-independent property of the sketch).
/// Returns the kept images and the queries the filtering spent.
///
/// # Panics
///
/// Panics if `train` is empty or a true class is out of range.
pub fn filter_attackable(classifier: &dyn Classifier, train: &[Labeled]) -> (Vec<Labeled>, u64) {
    assert!(!train.is_empty(), "training set is empty");
    let fixed = Program::constant(false);
    let probes = train
        .iter()
        .enumerate()
        .map(|(i, (image, c))| probe_one_traced(&fixed, classifier, i, image, *c))
        .collect::<Vec<_>>();
    keep_attackable(train, probes)
}

/// [`filter_attackable`] fanned out over `threads` workers via per-worker
/// [`BatchClassifier::session`] handles. The kept set and query total are
/// identical to the sequential function for any thread count.
///
/// # Panics
///
/// Panics if `train` is empty or a true class is out of range.
pub fn filter_attackable_parallel(
    classifier: &dyn BatchClassifier,
    train: &[Labeled],
    threads: usize,
) -> (Vec<Labeled>, u64) {
    assert!(!train.is_empty(), "training set is empty");
    let fixed = Program::constant(false);
    let probes = parallel_map_with(
        threads,
        train,
        || classifier.session(),
        |session, i, (image, c)| probe_one_traced(&fixed, &**session, i, image, *c),
    );
    keep_attackable(train, probes)
}

/// Probes one training pair with the fixed-prioritization program:
/// `(queries spent, attackable?)`.
fn probe_one(
    fixed: &Program,
    classifier: &dyn Classifier,
    image: &Image,
    true_class: usize,
) -> (u64, bool) {
    let mut oracle = Oracle::new(classifier);
    let outcome = run_sketch(fixed, &mut oracle, image, true_class);
    (outcome.queries(), outcome.is_success())
}

/// [`probe_one`] bracketed by trace addressing, like [`attack_one_traced`].
fn probe_one_traced(
    fixed: &Program,
    classifier: &dyn Classifier,
    index: usize,
    image: &Image,
    true_class: usize,
) -> (u64, bool) {
    trace::set_image(index);
    let result = probe_one(fixed, classifier, image, true_class);
    trace::record_run(result.0, result.1);
    result
}

/// Zips probe results back onto `train`, keeping the attackable pairs and
/// summing queries (exact, order-independent).
fn keep_attackable(train: &[Labeled], probes: Vec<(u64, bool)>) -> (Vec<Labeled>, u64) {
    let (kept, queries) = attackable_positions(&probes);
    (kept.iter().map(|&i| train[i].clone()).collect(), queries)
}

/// The positions whose probe found an attack, and the probes' summed
/// queries (exact, order-independent). Records the kept positions in the
/// trace.
fn attackable_positions(probes: &[(u64, bool)]) -> (Vec<usize>, u64) {
    let kept: Vec<usize> = (0..probes.len()).filter(|&i| probes[i].1).collect();
    trace::record_filter(&kept);
    (kept, probes.iter().map(|p| p.0).sum())
}

/// Runs OPPSLA: synthesizes an adversarial program for `classifier` from
/// `train` (Algorithm 2).
///
/// The call keeps one score table per training-set position, shared by
/// the prefilter and every program evaluation and dropped on return, so
/// each (image, candidate) pair reaches `classifier` at most once. The
/// table sits below each attack's [`Oracle`], which still counts and
/// budgets every query: the report is the one per-program
/// [`evaluate_program`] calls give.
///
/// # Panics
///
/// Panics if `train` is empty, images disagree on extents, or `beta` is
/// not positive.
pub fn synthesize(
    classifier: &dyn Classifier,
    train: &[Labeled],
    config: &SynthConfig,
) -> SynthReport {
    run_mh(Backend::Sequential(classifier), train, config)
}

/// [`synthesize`] with candidate evaluation fanned out over
/// [`SynthConfig::threads`] workers. The Metropolis–Hastings chain itself
/// (mutation, acceptance sampling) stays on the calling thread, and every
/// [`Evaluation`] is bit-identical to the sequential one, so the returned
/// [`SynthReport`] is identical for any thread count — only wall-clock
/// time changes. So are the classifier forwards: each position's table
/// sees the same query stream whichever worker serves it.
///
/// # Panics
///
/// Panics if `train` is empty, images disagree on extents, or `beta` is
/// not positive.
pub fn synthesize_parallel(
    classifier: &dyn BatchClassifier,
    train: &[Labeled],
    config: &SynthConfig,
) -> SynthReport {
    run_mh(Backend::Parallel(classifier, config.threads), train, config)
}

/// Scores a synthesis call has computed for one training image: its
/// baseline `N(x)` and every one-pixel candidate, keyed by exact
/// candidate bits. Scores live in one flat slab, `classes` per slot, so
/// an entry costs no allocation of its own.
#[derive(Default)]
struct ScoreTable {
    /// `N(x)`; empty until first computed.
    baseline: Vec<f32>,
    /// Each scored candidate's slot in `scores`.
    slots: HashMap<CandidateKey, usize, BuildHasherDefault<WordHasher>>,
    scores: Vec<f32>,
    /// Scratch for one batch: each candidate's slot, and the candidates
    /// not yet scored.
    batch_slots: Vec<usize>,
    misses: Vec<(Location, Pixel)>,
}

impl ScoreTable {
    /// The scores in `slot`.
    fn slot(&self, slot: usize, classes: usize) -> &[f32] {
        &self.scores[slot * classes..][..classes]
    }
}

/// A [`Classifier`] decorator that answers queries about one training
/// image from its [`ScoreTable`] and forwards only the misses to `inner`,
/// filling the table. It serves the calls an [`Oracle`] makes about that
/// exact image (by address, the reference the table was built for):
/// [`Classifier::scores_into`] for the baseline and the sequential and
/// batched pixel-delta calls, where a batch forwards its misses as one
/// smaller batch. Every other call, and any other image, goes straight
/// to `inner`.
///
/// Scores are a pure function of (image, candidate), and every route of a
/// backend returns the same bits, so a served score equals the forward it
/// replaces.
struct Tabled<'t> {
    inner: &'t dyn Classifier,
    image: &'t Image,
    classes: usize,
    table: RefCell<&'t mut ScoreTable>,
}

impl Tabled<'_> {
    /// True when `image` is the very image this table scores.
    fn serves(&self, image: &Image) -> bool {
        std::ptr::eq(image, self.image)
    }
}

impl Classifier for Tabled<'_> {
    fn num_classes(&self) -> usize {
        self.classes
    }

    fn scores(&self, image: &Image) -> Vec<f32> {
        self.inner.scores(image)
    }

    fn scores_into(&self, image: &Image, out: &mut Vec<f32>) {
        if !self.serves(image) {
            return self.inner.scores_into(image, out);
        }
        let table = &mut **self.table.borrow_mut();
        if table.baseline.is_empty() {
            self.inner.scores_into(image, &mut table.baseline);
        }
        out.clear();
        out.extend_from_slice(&table.baseline);
    }

    fn classify(&self, image: &Image) -> usize {
        self.inner.classify(image)
    }

    fn scores_pixel_delta_into(
        &self,
        base: &Image,
        location: Location,
        pixel: Pixel,
        out: &mut Vec<f32>,
    ) {
        if !self.serves(base) {
            return self
                .inner
                .scores_pixel_delta_into(base, location, pixel, out);
        }
        let table = &mut **self.table.borrow_mut();
        let key = candidate_key(location, pixel);
        if let Some(&slot) = table.slots.get(&key) {
            out.clear();
            out.extend_from_slice(table.slot(slot, self.classes));
            return;
        }
        self.inner
            .scores_pixel_delta_into(base, location, pixel, out);
        assert_eq!(out.len(), self.classes, "score vector length");
        let slot = table.scores.len() / self.classes;
        table.slots.insert(key, slot);
        table.scores.extend_from_slice(out);
    }

    fn scores_batch_into(&self, images: &[Image], out: &mut Vec<f32>) {
        self.inner.scores_batch_into(images, out);
    }

    fn scores_pixel_delta_batch_into(
        &self,
        base: &Image,
        candidates: &[(Location, Pixel)],
        out: &mut Vec<f32>,
    ) {
        if !self.serves(base) {
            return self
                .inner
                .scores_pixel_delta_batch_into(base, candidates, out);
        }
        let table = &mut **self.table.borrow_mut();
        // Misses take the next slots in order, so the forwarded batch's
        // scores append to the slab as one block; a candidate repeated
        // within the batch finds its slot already taken.
        let first = table.scores.len() / self.classes;
        table.batch_slots.clear();
        table.misses.clear();
        for &(location, pixel) in candidates {
            let slot = match table.slots.entry(candidate_key(location, pixel)) {
                Entry::Occupied(entry) => *entry.get(),
                Entry::Vacant(entry) => {
                    let slot = *entry.insert(first + table.misses.len());
                    table.misses.push((location, pixel));
                    slot
                }
            };
            table.batch_slots.push(slot);
        }
        if !table.misses.is_empty() {
            self.inner
                .scores_pixel_delta_batch_into(base, &table.misses, out);
            assert_eq!(
                out.len(),
                table.misses.len() * self.classes,
                "batched backend returned a wrong-size score block"
            );
            table.scores.extend_from_slice(out);
        }
        out.clear();
        for &slot in &table.batch_slots {
            out.extend_from_slice(table.slot(slot, self.classes));
        }
    }
}

/// How a synthesis call reaches the classifier.
#[derive(Clone, Copy)]
enum Backend<'a> {
    /// The caller's classifier, on the calling thread.
    Sequential(&'a dyn Classifier),
    /// One session per worker, on this many workers.
    Parallel(&'a dyn BatchClassifier, usize),
}

/// One training-set position of a call: the labeled image and its table.
struct Position<'a> {
    labeled: &'a Labeled,
    table: Mutex<ScoreTable>,
}

/// The training set as one call scores it: a fresh [`ScoreTable`] per
/// position, never shared between positions (not even bit-identical
/// ones) or outlived by the call.
struct Scorer<'a> {
    backend: Backend<'a>,
    positions: Vec<Position<'a>>,
}

impl<'a> Scorer<'a> {
    fn new(backend: Backend<'a>, train: &'a [Labeled]) -> Self {
        Scorer {
            backend,
            positions: train
                .iter()
                .map(|labeled| Position {
                    labeled,
                    table: Mutex::default(),
                })
                .collect(),
        }
    }

    /// Maps `f` over the positions, in order, on the call's backend.
    /// `f` gets the position's tabled classifier, its index (the trace
    /// address) and its pair. A position is served by one worker at a
    /// time, so its table lock is never contended.
    fn map<R: Send>(
        &self,
        f: impl Fn(&dyn Classifier, usize, &Image, usize) -> R + Sync,
    ) -> Vec<R> {
        let run = |classifier: &dyn Classifier, i: usize, position: &Position<'_>| {
            let (image, true_class) = position.labeled;
            let mut table = position.table.lock().expect("score table poisoned");
            let tabled = Tabled {
                inner: classifier,
                image,
                classes: classifier.num_classes(),
                table: RefCell::new(&mut table),
            };
            f(&tabled, i, image, *true_class)
        };
        match self.backend {
            Backend::Sequential(classifier) => self
                .positions
                .iter()
                .enumerate()
                .map(|(i, position)| run(classifier, i, position))
                .collect(),
            Backend::Parallel(classifier, threads) => parallel_map_with(
                threads,
                &self.positions,
                || classifier.session(),
                |session, i, position| run(&**session, i, position),
            ),
        }
    }

    fn evaluate(&self, program: &Program, per_image_budget: Option<u64>) -> Evaluation {
        reduce_evaluation(self.map(|classifier, i, image, c| {
            attack_one_traced(program, classifier, i, image, c, per_image_budget)
        }))
    }

    /// The prefilter ([`filter_attackable`] through the tables): keeps
    /// the attackable positions, dropping the others with their tables,
    /// and returns the probes' queries. Keeps every position when none is
    /// attackable.
    fn filter(&mut self) -> u64 {
        let fixed = Program::constant(false);
        let probes =
            self.map(|classifier, i, image, c| probe_one_traced(&fixed, classifier, i, image, c));
        let (kept, queries) = attackable_positions(&probes);
        if !kept.is_empty() {
            let mut probes = probes.iter();
            self.positions
                .retain(|_| probes.next().is_some_and(|&(_, attackable)| attackable));
        }
        queries
    }
}

/// The Metropolis–Hastings core shared by [`synthesize`] and
/// [`synthesize_parallel`]: the chain's control flow (and its random
/// stream) is written once, and `backend` only decides where the
/// per-image attacks run.
fn run_mh(backend: Backend<'_>, train: &[Labeled], config: &SynthConfig) -> SynthReport {
    assert!(!train.is_empty(), "training set is empty");
    assert!(config.beta > 0.0, "beta must be positive");
    let dims = ImageDims::new(train[0].0.height(), train[0].0.width());
    for (img, _) in train {
        assert_eq!(
            (img.height(), img.width()),
            (dims.height, dims.width),
            "training images disagree on extents"
        );
    }

    // Optional prefilter: drop images that no instantiation can attack
    // (the sketch's success set is program-independent), so iterations
    // stop re-paying their fixed exhaustive cost. With nothing
    // attackable the full set stays, so the run still returns a
    // (necessarily arbitrary) program.
    let mut scorer = Scorer::new(backend, train);
    let mut prefilter_queries = 0u64;
    if config.prefilter {
        trace::begin_sweep("prefilter", train.len(), "");
        prefilter_queries = scorer.filter();
    }
    let prefiltered = train.len() - scorer.positions.len();
    let kept = scorer.positions.len();
    let eval = |program: &Program| scorer.evaluate(program, config.per_image_budget);

    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut incumbent = random_program_in(&mut rng, dims, config.grammar);
    let initial_program = incumbent.clone();
    if trace::armed() {
        trace::begin_sweep("eval", kept, &incumbent.to_string());
    }
    let initial = eval(&incumbent);
    crate::telemetry::count(crate::telemetry::Counter::SynthPrograms);
    if trace::armed() {
        // The initial program is the step-0 incumbent by definition.
        trace::record_synth(0, &initial_program.to_string(), initial.avg_queries, true);
    }
    let mut incumbent_avg = initial.avg_queries;
    let mut cumulative = prefilter_queries + initial.queries_spent;
    let mut iterations = Vec::with_capacity(config.max_iterations);

    for iteration in 1..=config.max_iterations {
        let candidate = mutate_in(&mut rng, &incumbent, dims, config.grammar);
        if trace::armed() {
            trace::begin_sweep("eval", kept, &candidate.to_string());
        }
        let evaluation = eval(&candidate);
        crate::telemetry::count(crate::telemetry::Counter::SynthPrograms);
        cumulative += evaluation.queries_spent;
        let p = acceptance_probability(config.beta, incumbent_avg, evaluation.avg_queries);
        let accepted = rng.gen::<f64>() < p;
        if trace::armed() {
            trace::record_synth(
                iteration,
                &candidate.to_string(),
                evaluation.avg_queries,
                accepted,
            );
        }
        if accepted {
            crate::telemetry::count(crate::telemetry::Counter::SynthAccepted);
            incumbent = candidate.clone();
            incumbent_avg = evaluation.avg_queries;
        }
        iterations.push(IterationRecord {
            iteration,
            candidate,
            evaluation,
            accepted,
            cumulative_queries: cumulative,
        });
    }

    SynthReport {
        program: incumbent,
        prefiltered,
        initial,
        initial_program,
        iterations,
        total_queries: cumulative,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{FnClassifier, SharedSession};

    /// Classifier with a one-pixel weakness near the centre: any corner
    /// with a red channel of 1 at a location in the central 3×3 flips it.
    fn center_weak_classifier() -> FnClassifier<impl Fn(&Image) -> Vec<f32>> {
        FnClassifier::new(2, |img: &Image| {
            for row in 3..6u16 {
                for col in 3..6u16 {
                    let p = img.pixel(Location::new(row, col));
                    if p.0[0] == 1.0 && p.0[1] == 1.0 && p.0[2] == 1.0 {
                        return vec![0.2, 0.8];
                    }
                }
            }
            vec![0.8, 0.2]
        })
    }

    fn train_set(n: usize) -> Vec<Labeled> {
        (0..n)
            .map(|i| {
                let v = 0.3 + 0.05 * (i % 5) as f32;
                (Image::filled(9, 9, Pixel([v, v, v])), 0)
            })
            .collect()
    }

    #[test]
    fn evaluate_program_counts_successes_and_averages() {
        let clf = center_weak_classifier();
        let train = train_set(4);
        let eval = evaluate_program(&Program::constant(false), &clf, &train, None);
        assert_eq!(eval.successes, 4);
        assert!(eval.avg_queries.is_finite());
        assert!(eval.avg_queries >= 2.0);
        assert!(eval.queries_spent >= eval.avg_queries as u64 * 4);
    }

    #[test]
    fn evaluate_program_with_no_successes_is_infinite() {
        let clf = FnClassifier::new(2, |_: &Image| vec![0.9, 0.1]);
        let train = vec![(Image::filled(3, 3, Pixel([0.5, 0.5, 0.5])), 0)];
        let eval = evaluate_program(&Program::constant(false), &clf, &train, None);
        assert_eq!(eval.successes, 0);
        assert!(eval.avg_queries.is_infinite());
        assert_eq!(eval.queries_spent, 73);
    }

    #[test]
    fn per_image_budget_caps_spending() {
        let clf = FnClassifier::new(2, |_: &Image| vec![0.9, 0.1]);
        let train = vec![
            (Image::filled(5, 5, Pixel([0.5, 0.5, 0.5])), 0),
            (Image::filled(5, 5, Pixel([0.2, 0.2, 0.2])), 0),
        ];
        let eval = evaluate_program(&Program::constant(false), &clf, &train, Some(10));
        assert_eq!(eval.queries_spent, 20);
        assert_eq!(eval.successes, 0);
    }

    #[test]
    fn acceptance_probability_behaves_like_mh() {
        // Better candidate (fewer queries) is always accepted.
        assert_eq!(acceptance_probability(0.01, 100.0, 50.0), 1.0);
        assert_eq!(acceptance_probability(0.01, 100.0, 100.0), 1.0);
        // Worse candidate is accepted with exp(-β·Δ).
        let p = acceptance_probability(0.01, 100.0, 200.0);
        assert!((p - (-1.0f64).exp()).abs() < 1e-12, "{p}");
        // Infinite incumbents are always replaced; infinite candidates never
        // replace finite incumbents.
        assert_eq!(acceptance_probability(0.01, f64::INFINITY, 10.0), 1.0);
        assert_eq!(acceptance_probability(0.01, 10.0, f64::INFINITY), 0.0);
        assert_eq!(
            acceptance_probability(0.01, f64::INFINITY, f64::INFINITY),
            1.0
        );
    }

    #[test]
    fn acceptance_probability_never_underflows_to_nan() {
        let p = acceptance_probability(1.0, 0.0, 1e6);
        assert!(p >= 0.0 && !p.is_nan());
    }

    #[test]
    fn synthesize_runs_all_iterations_and_tracks_queries() {
        let clf = center_weak_classifier();
        let train = train_set(2);
        let config = SynthConfig {
            max_iterations: 5,
            beta: 0.01,
            seed: 42,
            ..SynthConfig::default()
        };
        let report = synthesize(&clf, &train, &config);
        assert_eq!(report.iterations.len(), 5);
        let sum: u64 = report.initial.queries_spent
            + report
                .iterations
                .iter()
                .map(|r| r.evaluation.queries_spent)
                .sum::<u64>();
        assert_eq!(report.total_queries, sum);
        // cumulative_queries is non-decreasing.
        let mut prev = report.initial.queries_spent;
        for rec in &report.iterations {
            assert!(rec.cumulative_queries >= prev);
            prev = rec.cumulative_queries;
        }
    }

    #[test]
    fn synthesize_is_deterministic_under_seed() {
        let clf = center_weak_classifier();
        let train = train_set(2);
        let config = SynthConfig {
            max_iterations: 4,
            beta: 0.01,
            seed: 7,
            ..SynthConfig::default()
        };
        let a = synthesize(&clf, &train, &config);
        let b = synthesize(&clf, &train, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn synthesized_program_is_no_worse_than_initial_on_training() {
        // MH keeps the incumbent only through accepted moves; with the
        // always-accept-on-improvement rule the final program's training
        // average should not be dramatically worse than the initial one.
        // We check the weaker, deterministic property: the final program's
        // evaluation equals the evaluation of the last accepted candidate.
        let clf = center_weak_classifier();
        let train = train_set(3);
        let config = SynthConfig {
            max_iterations: 12,
            beta: 0.05,
            seed: 3,
            ..SynthConfig::default()
        };
        let report = synthesize(&clf, &train, &config);
        let last_accepted = report
            .iterations
            .iter()
            .rev()
            .find(|r| r.accepted)
            .map(|r| r.candidate.clone());
        let expected = last_accepted.unwrap_or(report.initial_program.clone());
        assert_eq!(report.program, expected);
        // And re-evaluating it reproduces a finite average on this
        // attackable classifier.
        let eval = evaluate_program(&report.program, &clf, &train, None);
        assert!(eval.avg_queries.is_finite());
    }

    #[test]
    fn accepted_trajectory_starts_at_initial_and_is_monotone_in_queries() {
        let clf = center_weak_classifier();
        let train = train_set(2);
        let config = SynthConfig {
            max_iterations: 8,
            beta: 0.01,
            seed: 11,
            ..SynthConfig::default()
        };
        let report = synthesize(&clf, &train, &config);
        let traj = report.accepted_trajectory();
        assert_eq!(traj[0].0, 0);
        for w in traj.windows(2) {
            assert!(w[0].0 < w[1].0, "iterations increase");
            assert!(w[0].1 <= w[1].1, "queries increase");
        }
    }

    #[test]
    fn filter_attackable_keeps_only_vulnerable_images() {
        let clf = center_weak_classifier();
        let mut train = train_set(2);
        // Labelled 1 while the classifier answers 0: already misclassified,
        // so the sketch never reports a Success for it.
        train.push((Image::filled(9, 9, Pixel([0.9, 0.9, 0.9])), 1));
        let (kept, queries) = filter_attackable(&clf, &train);
        assert_eq!(kept.len(), 2, "only the genuinely attackable images remain");
        assert!(queries >= 2);
    }

    #[test]
    fn prefilter_reduces_iteration_cost_without_changing_result_program_validity() {
        let clf = center_weak_classifier();
        let mut train = train_set(2);
        // An already-misclassified image never becomes a Success, so the
        // prefilter drops it.
        train.push((Image::filled(9, 9, Pixel([0.7, 0.7, 0.7])), 1));
        let base = SynthConfig {
            max_iterations: 4,
            beta: 0.01,
            seed: 9,
            ..SynthConfig::default()
        };
        let without = synthesize(&clf, &train, &base);
        let with = synthesize(
            &clf,
            &train,
            &SynthConfig {
                prefilter: true,
                ..base
            },
        );
        assert_eq!(with.prefiltered, 1);
        assert_eq!(without.prefiltered, 0);
        // The prefiltered run spends fewer queries per iteration (the
        // dropped image costs a fixed amount every iteration otherwise).
        let per_iter_with = with.iterations[0].evaluation.queries_spent;
        let per_iter_without = without.iterations[0].evaluation.queries_spent;
        assert!(per_iter_with < per_iter_without);
        // And the synthesized program still attacks the attackable set.
        let eval = evaluate_program(&with.program, &clf, &train_set(2), None);
        assert!(eval.avg_queries.is_finite());
    }

    #[test]
    fn prefilter_falls_back_when_nothing_is_attackable() {
        let clf = FnClassifier::new(2, |_: &Image| vec![0.9, 0.1]);
        let train = vec![(Image::filled(3, 3, Pixel([0.5, 0.5, 0.5])), 0)];
        let report = synthesize(
            &clf,
            &train,
            &SynthConfig {
                max_iterations: 1,
                prefilter: true,
                ..SynthConfig::default()
            },
        );
        assert_eq!(report.prefiltered, 0, "fallback keeps the full set");
        assert!(report.initial.avg_queries.is_infinite());
    }

    #[test]
    fn extended_grammar_synthesis_runs_and_stays_well_typed() {
        let clf = center_weak_classifier();
        let train = train_set(2);
        let config = SynthConfig {
            max_iterations: 6,
            seed: 4,
            grammar: GrammarConfig::extended(3),
            ..SynthConfig::default()
        };
        let report = synthesize(&clf, &train, &config);
        let dims = ImageDims::new(9, 9);
        assert!(crate::dsl::is_well_typed(&report.program, dims));
        for rec in &report.iterations {
            assert!(
                crate::dsl::is_well_typed(&rec.candidate, dims),
                "{}",
                rec.candidate
            );
        }
        // And the result still attacks the training set.
        let eval = evaluate_program(&report.program, &clf, &train, None);
        assert!(eval.avg_queries.is_finite());
    }

    #[test]
    #[should_panic(expected = "training set is empty")]
    fn synthesize_rejects_empty_training_set() {
        let clf = FnClassifier::new(2, |_: &Image| vec![0.9, 0.1]);
        synthesize(&clf, &[], &SynthConfig::default());
    }

    #[test]
    fn parallel_evaluation_is_bit_identical_to_sequential() {
        // Several programs through one table per position (two of them
        // holding bit-identical images), against the table-free reference.
        let clf = graded_classifier();
        let train = table_train_set();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut programs = vec![Program::constant(false)];
        programs
            .extend((0..5).map(|_| {
                random_program_in(&mut rng, ImageDims::new(9, 9), GrammarConfig::paper())
            }));
        for budget in [None, Some(10), Some(200)] {
            let reference: Vec<Evaluation> = programs
                .iter()
                .map(|p| evaluate_program(p, &clf, &train, budget))
                .collect();
            assert_eq!(
                evaluate_programs(&programs, &clf, &train, budget),
                reference,
                "budget = {budget:?}"
            );
            for threads in [1, 2, 4, 16] {
                assert_eq!(
                    evaluate_programs_parallel(&programs, &clf, &train, budget, threads),
                    reference,
                    "threads = {threads}, budget = {budget:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_filter_is_identical_to_sequential() {
        let clf = center_weak_classifier();
        let mut train = train_set(5);
        train.push((Image::filled(9, 9, Pixel([0.9, 0.9, 0.9])), 1));
        let reference = filter_attackable(&clf, &train);
        for threads in [1, 2, 4] {
            assert_eq!(
                filter_attackable_parallel(&clf, &train, threads),
                reference,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_the_synthesis_trajectory() {
        // The headline determinism guarantee: same seed, different worker
        // counts, identical accepted-program trajectory and query totals.
        let clf = center_weak_classifier();
        let train = train_set(3);
        let base = SynthConfig {
            max_iterations: 6,
            beta: 0.01,
            seed: 13,
            prefilter: true,
            threads: 1,
            ..SynthConfig::default()
        };
        let one = synthesize_parallel(&clf, &train, &base);
        let four = synthesize_parallel(
            &clf,
            &train,
            &SynthConfig {
                threads: 4,
                ..base.clone()
            },
        );
        assert_eq!(one.accepted_trajectory(), four.accepted_trajectory());
        assert_eq!(one.total_queries, four.total_queries);
        assert_eq!(one, four);
        // And both agree with the sequential entry point.
        let sequential = synthesize(&clf, &train, &base);
        assert_eq!(sequential, one);
    }

    /// Classifier whose scores move with every pixel, so conditions (and
    /// costs) differ between programs; a white pixel at (1, 7), far from
    /// where the sketch starts, flips it.
    fn graded_classifier() -> FnClassifier<impl Fn(&Image) -> Vec<f32>> {
        FnClassifier::new(2, |img: &Image| {
            if img.pixel(Location::new(1, 7)) == Pixel([1.0, 1.0, 1.0]) {
                return vec![0.3, 0.7];
            }
            let s = img
                .data()
                .iter()
                .enumerate()
                .map(|(i, v)| v * (i % 7) as f32)
                .sum::<f32>()
                / 2000.0;
            vec![1.0 - s, s]
        })
    }

    /// Three graded images, a bit-identical copy of the first at position
    /// 3, and an already-misclassified image the prefilter drops.
    fn table_train_set() -> Vec<Labeled> {
        let mut train = train_set(3);
        train.push(train[0].clone());
        train.push((Image::filled(9, 9, Pixel([0.9, 0.9, 0.9])), 1));
        train
    }

    /// Records every forward reaching `inner` as (training-set position,
    /// candidate), `None` standing for the baseline. Positions are told
    /// apart by the image's address, like the score tables tell them.
    struct ForwardCounter<'a, C> {
        inner: C,
        train: &'a [Labeled],
        forwards: Mutex<Vec<(usize, Option<CandidateKey>)>>,
    }

    impl<'a, C> ForwardCounter<'a, C> {
        fn new(inner: C, train: &'a [Labeled]) -> Self {
            ForwardCounter {
                inner,
                train,
                forwards: Mutex::default(),
            }
        }

        fn record(&self, image: &Image, candidate: Option<CandidateKey>) {
            let position = self
                .train
                .iter()
                .position(|(t, _)| std::ptr::eq(t, image))
                .expect("every query names a training image");
            self.forwards.lock().unwrap().push((position, candidate));
        }
    }

    impl<C: Classifier> Classifier for ForwardCounter<'_, C> {
        fn num_classes(&self) -> usize {
            self.inner.num_classes()
        }

        fn scores(&self, image: &Image) -> Vec<f32> {
            self.record(image, None);
            self.inner.scores(image)
        }

        fn scores_pixel_delta_into(
            &self,
            base: &Image,
            location: Location,
            pixel: Pixel,
            out: &mut Vec<f32>,
        ) {
            self.record(base, Some(candidate_key(location, pixel)));
            self.inner
                .scores_pixel_delta_into(base, location, pixel, out);
        }
    }

    impl<C: Classifier + Sync> BatchClassifier for ForwardCounter<'_, C> {
        fn session(&self) -> Box<dyn Classifier + '_> {
            Box::new(SharedSession(self))
        }
    }

    #[test]
    fn synthesis_forwards_each_position_candidate_once_for_any_thread_count() {
        let train = table_train_set();
        let config = SynthConfig {
            max_iterations: 8,
            seed: 21,
            per_image_budget: Some(300),
            prefilter: true,
            ..SynthConfig::default()
        };
        let mut runs = Vec::new();
        for threads in [1, 2, 4] {
            let clf = ForwardCounter::new(graded_classifier(), &train);
            let report = synthesize_parallel(
                &clf,
                &train,
                &SynthConfig {
                    threads,
                    ..config.clone()
                },
            );
            let mut forwards = clf.forwards.into_inner().unwrap();
            forwards.sort_unstable();
            let total = forwards.len();
            forwards.dedup();
            assert_eq!(
                forwards.len(),
                total,
                "threads = {threads}: a (position, candidate) was forwarded twice"
            );
            assert!(
                (total as u64) < report.total_queries,
                "threads = {threads}: {total} forwards for {} queries",
                report.total_queries
            );
            // Bit-identical images at positions 0 and 3 keep separate
            // tables, so each forwards the same candidates.
            let at = |p: usize| forwards.iter().filter(move |f| f.0 == p).map(|f| f.1);
            assert!(at(0).count() > 1);
            assert!(at(0).eq(at(3)), "threads = {threads}");
            runs.push((report, forwards));
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn tabled_evaluations_equal_the_table_free_reference() {
        let clf = graded_classifier();
        let train = table_train_set();
        let config = SynthConfig {
            max_iterations: 8,
            seed: 21,
            per_image_budget: Some(300),
            prefilter: true,
            threads: 2,
            ..SynthConfig::default()
        };
        let (kept, prefilter_queries) = filter_attackable(&clf, &train);
        let reference =
            |program: &Program| evaluate_program(program, &clf, &kept, config.per_image_budget);
        for report in [
            synthesize(&clf, &train, &config),
            synthesize_parallel(&clf, &train, &config),
        ] {
            assert_eq!(report.prefiltered, train.len() - kept.len());
            assert_eq!(report.initial, reference(&report.initial_program));
            let mut cumulative = prefilter_queries + report.initial.queries_spent;
            for rec in &report.iterations {
                assert_eq!(
                    rec.evaluation,
                    reference(&rec.candidate),
                    "iteration {}",
                    rec.iteration
                );
                cumulative += rec.evaluation.queries_spent;
                assert_eq!(rec.cumulative_queries, cumulative);
            }
        }
    }

    #[test]
    fn a_table_serves_only_its_own_image() {
        let image = Image::filled(9, 9, Pixel([0.4, 0.4, 0.4]));
        // Bit-identical images at two addresses.
        let set = vec![(image.clone(), 0), (image, 0)];
        let clf = ForwardCounter::new(graded_classifier(), &set);
        let mut table = ScoreTable::default();
        let tabled = Tabled {
            inner: &clf,
            image: &set[0].0,
            classes: 2,
            table: RefCell::new(&mut table),
        };
        let (l, p) = (Location::new(1, 2), Pixel([1.0, 0.0, 1.0]));
        let batch = [
            (l, p),
            (Location::new(0, 0), Pixel([0.0, 0.0, 0.0])),
            (l, p),
        ];
        let (mut one, mut many) = (Vec::new(), Vec::new());
        for (base, _) in &set {
            tabled.scores_into(base, &mut one);
            tabled.scores_into(base, &mut many);
            assert_eq!(one, many);
            tabled.scores_pixel_delta_into(base, l, p, &mut one);
            tabled.scores_pixel_delta_batch_into(base, &batch, &mut many);
            assert_eq!(many.len(), 6);
            assert_eq!(many[..2], one[..]);
            assert_eq!(many[4..], one[..]);
        }
        let forwards = clf.forwards.into_inner().unwrap();
        let at = |p: usize| forwards.iter().filter(|f| f.0 == p).count();
        // Its own image: the baseline, `(l, p)` and the batch's one new
        // candidate. The twin: every call, in full.
        assert_eq!(at(0), 3);
        assert_eq!(at(1), 2 + 1 + batch.len());
    }
}
