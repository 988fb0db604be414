//! A committed reference for the sketch's query stream.
//!
//! The other determinism checks compare two runs of one build (stdout
//! across thread counts, speculation on against off, `jobs_fnv` with
//! metrics on and off), so a change every variant shares — a reordered
//! initial queue, say — passes them all. This test pins the stream itself:
//! it runs the paper's example program and Sketch+False on a few seeded
//! images, with speculation on and off and with and without a budget,
//! folds every query log into one FNV-1a 64 digest and compares it with a
//! constant. The classifier is plain `f32` arithmetic (sums of products in
//! a fixed order, no `exp`), so the digest does not depend on the
//! platform's libm.
//!
//! A change that alters which candidates are queried, in what order, or
//! what they score must update [`EXPECTED_DIGEST`] and say why.

use oppsla::core::dsl::Program;
use oppsla::core::image::Image;
use oppsla::core::oracle::{argmax, Classifier, FnClassifier, Oracle, QueryLogEntry};
use oppsla::core::sketch::{run_sketch, SketchOutcome};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The digest of every run below.
const EXPECTED_DIGEST: u64 = 0xdd9b_4ff8_d601_3ae7;

/// Weight of CHW value `i` toward sum `k`: a multiple of 1/16 in
/// [−0.5, 0.5) from a fixed integer hash of `(k, i)`.
fn weight(k: usize, i: usize) -> f32 {
    let h = (i as u32).wrapping_mul(0x9e37_79b9) ^ (k as u32 + 1).wrapping_mul(0x85eb_ca6b);
    ((h >> 24) % 16) as f32 / 16.0 - 0.5
}

/// Three classes: three weighted sums of the image's values, coupled by
/// the square of a fourth so `score_diff` does not move with one sum.
fn classifier() -> FnClassifier<impl Fn(&Image) -> Vec<f32>> {
    FnClassifier::new(3, |image: &Image| {
        let mut sums = [0.0f32; 4];
        for (i, &v) in image.data().iter().enumerate() {
            for (k, sum) in sums.iter_mut().enumerate() {
                *sum += v * weight(k, i);
            }
        }
        let coupling = sums[3] * sums[3] * 0.25;
        vec![sums[0] + coupling, sums[1] - coupling, sums[2]]
    })
}

/// Seeded images of mixed extents, every channel on {0, ¼, ½, ¾, 1}.
fn images() -> Vec<Image> {
    let mut rng = ChaCha8Rng::seed_from_u64(2025);
    [(5, 7), (6, 6), (8, 3), (1, 9), (7, 5), (4, 4), (3, 8)]
        .into_iter()
        .map(|(h, w)| {
            let data = (0..3 * h * w)
                .map(|_| rng.gen_range(0u8..5) as f32 / 4.0)
                .collect();
            Image::new(h, w, data)
        })
        .collect()
}

/// Folds `bytes` into the FNV-1a 64 state `h`.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Folds one run's query log (each entry's ordinal, candidate bits,
/// decision and score hash) and its length into `h`.
fn fold_log(h: &mut u64, log: &[QueryLogEntry]) {
    for entry in log {
        fnv(h, &entry.seq.to_le_bytes());
        match entry.pixel {
            None => fnv(h, &[0]),
            Some((row, col, rgb)) => {
                fnv(h, &[1]);
                fnv(h, &row.to_le_bytes());
                fnv(h, &col.to_le_bytes());
                for channel in rgb {
                    fnv(h, &channel.to_le_bytes());
                }
            }
        }
        fnv(h, &entry.pred.to_le_bytes());
        fnv(h, &entry.score_hash.to_le_bytes());
    }
    fnv(h, &(log.len() as u64).to_le_bytes());
}

#[test]
fn sketch_query_stream_matches_the_committed_digest() {
    let clf = classifier();
    let programs = [Program::paper_example(), Program::constant(false)];
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let (mut successes, mut exhausted, mut out_of_budget) = (0, 0, 0);
    for image in images() {
        let true_class = argmax(&clf.scores(&image));
        for program in &programs {
            for budget in [None, Some(40)] {
                let mut logs = Vec::new();
                for speculate in [true, false] {
                    let oracle = match budget {
                        Some(b) => Oracle::with_budget(&clf, b),
                        None => Oracle::new(&clf),
                    };
                    let mut oracle = if speculate {
                        oracle
                    } else {
                        oracle.without_speculation()
                    };
                    oracle.enable_query_log();
                    let outcome = run_sketch(program, &mut oracle, &image, true_class);
                    let log = oracle.take_query_log();
                    assert_eq!(log.len() as u64, outcome.queries());
                    match outcome {
                        SketchOutcome::Success { .. } => successes += 1,
                        SketchOutcome::Exhausted { .. } => exhausted += 1,
                        SketchOutcome::OutOfBudget { .. } => out_of_budget += 1,
                        SketchOutcome::AlreadyMisclassified { .. } => {
                            unreachable!("the true class is the image's decision")
                        }
                    }
                    fold_log(&mut digest, &log);
                    logs.push(log);
                }
                assert_eq!(logs[0], logs[1], "speculation changed the query log");
            }
        }
    }
    // Every way a run can end is covered.
    assert!(
        successes > 0 && exhausted > 0 && out_of_budget > 0,
        "outcomes: {successes} successes, {exhausted} exhausted, {out_of_budget} out of budget"
    );
    assert_eq!(
        digest, EXPECTED_DIGEST,
        "query stream digest {digest:#018x} differs from the committed {EXPECTED_DIGEST:#018x}"
    );
}
