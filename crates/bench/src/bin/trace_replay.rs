//! Deterministic trace replay verification: re-executes every oracle
//! query recorded in a `--trace` file against freshly rebuilt models and
//! image sets, and checks that scores, query accounting, and synthesis
//! bookkeeping come out byte-identical.
//!
//! ```text
//! cargo run --release -p oppsla-bench --bin trace_replay -- \
//!     --trace PATH           (trace JSONL written by fig3/table1 --trace)
//!     [--max-mismatches N]   (mismatches printed before truncation, default 20)
//! ```
//!
//! For every section the replayer rebuilds the model named by the section
//! header (`train_or_load` with the default zoo config — the same call the
//! experiment binaries make) and regenerates the image set from its
//! recorded `(scale, per_class, set_seed)`. It then walks the section's
//! metadata in emission order, mirrors the `Class`/`Filter` set
//! narrowings, and re-issues each sweep's queries image by image through a
//! fresh unbudgeted [`Oracle`], verifying per query that
//!
//! - the 1-based ordinal matches the oracle's count (`seq`),
//! - margin, predicted class, and label flip recomputed from the replayed
//!   scores match the recorded values **bit-for-bit**,
//!
//! and per run / per synthesis step that
//!
//! - the run's recorded query count equals both the replayed oracle count
//!   and the number of query records,
//! - each Metropolis–Hastings score equals the exact integer-sum average
//!   recomputed from the step's run records,
//! - each prefilter `Filter` record lists exactly the successful probes.
//!
//! Margins are recomputed under the untargeted goal (the paper's
//! setting); a trace recorded from a targeted attack will report margin
//! mismatches. Oracle routing (`full`/`delta`/`batch_*`) is an execution
//! strategy, not a result, so it is deliberately *not* verified — replay
//! runs sequentially and may route differently while producing identical
//! scores.
//!
//! Exits 0 when everything verifies, 1 on any mismatch (or a trace whose
//! recorder dropped records).

use oppsla_core::goal::AttackGoal;
use oppsla_core::image::Image;
use oppsla_core::oracle::{argmax, BatchClassifier, Oracle};
use oppsla_core::pair::{Location, Pixel};
use oppsla_core::telemetry::trace::{Body, Record, END_SECTION, NO_PIXEL};
use oppsla_eval::cli::Args;
use oppsla_eval::zoo::{attack_test_set, train_or_load, Scale, ZooClassifier, ZooConfig};
use oppsla_nn::models::Arch;
use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;

fn parse_arch(id: &str) -> Option<Arch> {
    [
        Arch::VggSmall,
        Arch::ResNetSmall,
        Arch::GoogLeNetSmall,
        Arch::DenseNetSmall,
        Arch::Mlp,
    ]
    .into_iter()
    .find(|a| a.id() == id)
}

fn parse_scale(id: &str) -> Option<Scale> {
    [Scale::Cifar, Scale::ImageNetLike]
        .into_iter()
        .find(|s| s.id() == id)
}

/// One section's records: coordinating-thread metadata in emission order,
/// per-image runs keyed by `(round, image)` with records in emission
/// order.
struct SectionRecords {
    lane0: Vec<Record>,
    runs: BTreeMap<(u32, u32), Vec<Record>>,
}

/// Replay state shared across sections: model and image-set caches (both
/// keyed by the reconstruction recipe, so repeated sections rebuild
/// nothing) and the mismatch log.
struct Replayer {
    classifiers: HashMap<(String, String), ZooClassifier>,
    sets: HashMap<(String, u32, u64), Vec<(Image, usize)>>,
    mismatches: Vec<String>,
    max_mismatches: usize,
    suppressed: u64,
    queries_verified: u64,
    runs_verified: u64,
    sweeps_verified: u64,
}

impl Replayer {
    fn mismatch(&mut self, msg: String) {
        if self.mismatches.len() < self.max_mismatches {
            self.mismatches.push(msg);
        } else {
            self.suppressed += 1;
        }
    }

    fn ensure_classifier(&mut self, scale: Scale, arch: Arch) {
        self.classifiers
            .entry((scale.id().to_owned(), arch.id().to_owned()))
            .or_insert_with(|| {
                eprintln!("rebuilding {}/{}", scale.id(), arch.id());
                train_or_load(arch, scale, &ZooConfig::default()).classifier()
            });
    }

    fn base_set(&mut self, scale: Scale, per_class: u32, set_seed: u64) -> Vec<(Image, usize)> {
        self.sets
            .entry((scale.id().to_owned(), per_class, set_seed))
            .or_insert_with(|| attack_test_set(scale, per_class as usize, set_seed))
            .clone()
    }

    fn replay_section(&mut self, section: u32, recs: &SectionRecords) {
        let mut lane0 = recs.lane0.iter();
        let Some(first) = lane0.next() else { return };
        let Body::Section {
            label,
            scale,
            arch,
            per_class,
            set_seed,
            ..
        } = &first.body
        else {
            self.mismatch(format!(
                "section {section}: first metadata record is {:?}, expected a section header",
                first.kind()
            ));
            return;
        };
        let (Some(scale), Some(arch)) = (parse_scale(scale), parse_arch(arch)) else {
            self.mismatch(format!(
                "section {section} ({label}): unknown scale/arch {scale:?}/{arch:?}"
            ));
            return;
        };
        let base = self.base_set(scale, *per_class, *set_seed);
        let mut current = base.clone();
        // Results of the most recent sweep, for the Synth/Filter records
        // that summarize it: (sweep kind, per-image (queries, success)).
        let mut last_sweep: Option<(String, Vec<(u64, bool)>)> = None;

        for rec in lane0 {
            match &rec.body {
                Body::Section { .. } => {
                    self.mismatch(format!(
                        "section {section} ({label}): second section header at sub {}",
                        rec.sub
                    ));
                    return;
                }
                Body::Class { class } => {
                    current = base
                        .iter()
                        .filter(|(_, c)| *c == *class as usize)
                        .cloned()
                        .collect();
                }
                Body::Filter { kept } => {
                    match &last_sweep {
                        Some((kind, results)) if kind == "prefilter" => {
                            let expected: Vec<u32> = results
                                .iter()
                                .enumerate()
                                .filter(|(_, (_, success))| *success)
                                .map(|(i, _)| i as u32)
                                .collect();
                            if *kept != expected {
                                self.mismatch(format!(
                                    "section {section} ({label}): filter kept {kept:?}, but the \
                                     prefilter probes succeeded on {expected:?}"
                                ));
                            }
                        }
                        _ => self.mismatch(format!(
                            "section {section} ({label}): filter record without a preceding \
                             prefilter sweep"
                        )),
                    }
                    // An empty prefilter keeps the full set (the
                    // synthesizer's nothing-attackable fallback).
                    if kept.iter().any(|&k| k as usize >= current.len()) {
                        self.mismatch(format!(
                            "section {section} ({label}): filter index out of range for a set \
                             of {}",
                            current.len()
                        ));
                        return;
                    }
                    if !kept.is_empty() {
                        current = kept.iter().map(|&k| current[k as usize].clone()).collect();
                    }
                }
                Body::Sweep { sweep, n, .. } => {
                    if *n as usize != current.len() {
                        self.mismatch(format!(
                            "section {section} ({label}) round {}: sweep over {n} image(s), but \
                             the reconstructed set holds {}",
                            rec.round,
                            current.len()
                        ));
                    }
                    let results =
                        self.replay_sweep(section, label, rec.round, &current, (scale, arch), recs);
                    last_sweep = Some((sweep.clone(), results));
                    self.sweeps_verified += 1;
                }
                Body::Synth { step, score, .. } => match &last_sweep {
                    Some((kind, results)) if kind == "eval" => {
                        let successes: Vec<u64> = results
                            .iter()
                            .filter(|(_, success)| *success)
                            .map(|(q, _)| *q)
                            .collect();
                        // The synthesizer's exact integer-sum average.
                        let expected = if successes.is_empty() {
                            f64::INFINITY
                        } else {
                            successes.iter().sum::<u64>() as f64 / successes.len() as f64
                        };
                        if expected.to_bits() != score.to_bits() {
                            self.mismatch(format!(
                                "section {section} ({label}) synth step {step}: recorded score \
                                 {score}, replayed runs average to {expected}"
                            ));
                        }
                    }
                    _ => self.mismatch(format!(
                        "section {section} ({label}) synth step {step}: no preceding eval sweep"
                    )),
                },
                other => self.mismatch(format!(
                    "section {section} ({label}): unexpected {:?} record in the metadata lane",
                    other
                )),
            }
            if self.suppressed > 0 {
                return; // the log is full; stop burning queries
            }
        }
    }

    /// Re-issues one sweep's queries image by image; returns per-image
    /// `(queries, success)` from the run records for the caller's
    /// synthesis cross-checks.
    fn replay_sweep(
        &mut self,
        section: u32,
        label: &str,
        round: u32,
        current: &[(Image, usize)],
        (scale, arch): (Scale, Arch),
        recs: &SectionRecords,
    ) -> Vec<(u64, bool)> {
        self.ensure_classifier(scale, arch);
        // Mismatches collect locally so the classifier map can stay
        // immutably borrowed across the query loop.
        let mut errs: Vec<String> = Vec::new();
        let mut queries_verified = 0u64;
        let mut runs_verified = 0u64;
        let mut results = Vec::with_capacity(current.len());
        {
            let classifier = &self.classifiers[&(scale.id().to_owned(), arch.id().to_owned())];
            let session = classifier.session();
            let mut buf: Vec<f32> = Vec::new();
            for (i, (image, true_class)) in current.iter().enumerate() {
                let at = |sub: u64| {
                    format!("section {section} ({label}) round {round} image {i} sub {sub}")
                };
                let Some(run) = recs.runs.get(&(round, i as u32)) else {
                    errs.push(format!(
                        "section {section} ({label}) round {round}: no records for image {i}"
                    ));
                    results.push((0, false));
                    continue;
                };
                let mut oracle = Oracle::new(&*session);
                oracle.begin_candidate_scope();
                let mut closed = false;
                let mut run_result = (0u64, false);
                for rec in run {
                    if closed {
                        errs.push(format!("{}: record after the run summary", at(rec.sub)));
                        break;
                    }
                    match &rec.body {
                        Body::Query {
                            seq,
                            row,
                            col,
                            r,
                            g,
                            b,
                            margin,
                            pred,
                            flip,
                            ..
                        } => {
                            let queried = if *row == NO_PIXEL {
                                oracle.query_into(image, &mut buf)
                            } else {
                                oracle.query_pixel_delta_into(
                                    image,
                                    Location::new(*row as u16, *col as u16),
                                    Pixel([*r, *g, *b]),
                                    &mut buf,
                                )
                            };
                            if queried.is_err() {
                                errs.push(format!("{}: replay oracle out of budget", at(rec.sub)));
                                break;
                            }
                            if oracle.queries() != *seq {
                                errs.push(format!(
                                    "{}: recorded ordinal {seq}, replay count {}",
                                    at(rec.sub),
                                    oracle.queries()
                                ));
                            }
                            let m = AttackGoal::Untargeted.margin(&buf, *true_class);
                            let p = argmax(&buf);
                            if m.to_bits() != margin.to_bits() || p as u32 != *pred {
                                errs.push(format!(
                                    "{}: recorded margin/pred {margin}/{pred}, replayed {m}/{p}",
                                    at(rec.sub)
                                ));
                            }
                            if (p != *true_class) != *flip {
                                errs.push(format!(
                                "{}: recorded flip {flip} disagrees with replayed prediction {p} \
                                 (true class {true_class})",
                                at(rec.sub)
                            ));
                            }
                            queries_verified += 1;
                        }
                        Body::Cond { .. } => {}
                        Body::Run { queries, success } => {
                            if *queries != oracle.queries() {
                                errs.push(format!(
                                    "{}: run summary says {queries} queries, replay issued {}",
                                    at(rec.sub),
                                    oracle.queries()
                                ));
                            }
                            run_result = (*queries, *success);
                            closed = true;
                            runs_verified += 1;
                        }
                        other => errs.push(format!(
                            "{}: unexpected {other:?} record in a per-image run",
                            at(rec.sub)
                        )),
                    }
                }
                if !closed {
                    errs.push(format!(
                        "section {section} ({label}) round {round} image {i}: run never closed \
                     (no run summary record)"
                    ));
                }
                results.push(run_result);
            }
        }
        for e in errs {
            self.mismatch(e);
        }
        self.queries_verified += queries_verified;
        self.runs_verified += runs_verified;
        results
    }
}

fn main() -> ExitCode {
    let args = Args::parse(&["max-mismatches", "trace"]);
    let path = args.get_str("trace", "");
    assert!(
        !path.is_empty(),
        "usage: trace_replay --trace PATH [--max-mismatches N]"
    );
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut records = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Record::parse(line) {
            Ok(rec) => records.push(rec),
            Err(e) => {
                eprintln!("error: {path}:{}: {e}", lineno + 1);
                return ExitCode::FAILURE;
            }
        }
    }

    let mut replayer = Replayer {
        classifiers: HashMap::new(),
        sets: HashMap::new(),
        mismatches: Vec::new(),
        max_mismatches: args.get_usize("max-mismatches", 20),
        suppressed: 0,
        queries_verified: 0,
        runs_verified: 0,
        sweeps_verified: 0,
    };

    // End-of-trace accounting: a complete trace carries exactly one
    // summary, covering every record before it, with nothing dropped.
    let summaries: Vec<&Record> = records
        .iter()
        .filter(|r| matches!(r.body, Body::Summary { .. }))
        .collect();
    match summaries.as_slice() {
        [one] => {
            if let Body::Summary {
                records: written,
                dropped,
            } = &one.body
            {
                if *dropped > 0 {
                    eprintln!(
                        "error: the recorder dropped {dropped} record(s); the trace is \
                         incomplete and cannot verify"
                    );
                    return ExitCode::FAILURE;
                }
                if *written != (records.len() - 1) as u64 {
                    replayer.mismatch(format!(
                        "summary says {written} record(s) were written, the file holds {}",
                        records.len() - 1
                    ));
                }
            }
        }
        [] => {
            eprintln!("error: no summary record; the trace was truncated mid-run");
            return ExitCode::FAILURE;
        }
        many => {
            eprintln!(
                "error: {} summary records (concatenated traces?)",
                many.len()
            );
            return ExitCode::FAILURE;
        }
    }

    let mut sections: BTreeMap<u32, SectionRecords> = BTreeMap::new();
    for rec in records {
        if rec.section == END_SECTION {
            continue; // ops timings and the summary, handled above
        }
        let entry = sections
            .entry(rec.section)
            .or_insert_with(|| SectionRecords {
                lane0: Vec::new(),
                runs: BTreeMap::new(),
            });
        if rec.lane == 0 {
            entry.lane0.push(rec);
        } else {
            let key = (rec.round, rec.image);
            entry.runs.entry(key).or_default().push(rec);
        }
    }
    for recs in sections.values_mut() {
        recs.lane0.sort_by_key(|r| r.sub);
        for run in recs.runs.values_mut() {
            run.sort_by_key(|r| r.sub);
        }
    }

    let n_sections = sections.len();
    for (section, recs) in &sections {
        replayer.replay_section(*section, recs);
    }

    println!(
        "replayed {n_sections} section(s): {} sweep(s), {} run(s), {} quer{} re-executed and \
         verified bit-identical",
        replayer.sweeps_verified,
        replayer.runs_verified,
        replayer.queries_verified,
        if replayer.queries_verified == 1 {
            "y"
        } else {
            "ies"
        },
    );
    if replayer.mismatches.is_empty() {
        println!("trace verifies: OK");
        ExitCode::SUCCESS
    } else {
        for m in &replayer.mismatches {
            eprintln!("MISMATCH: {m}");
        }
        if replayer.suppressed > 0 {
            eprintln!(
                "... and {} further mismatch(es) suppressed",
                replayer.suppressed
            );
        }
        println!("trace verifies: FAILED ({} mismatch(es))", {
            replayer.mismatches.len() as u64 + replayer.suppressed
        });
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_and_scale_ids_round_trip() {
        for arch in [
            Arch::VggSmall,
            Arch::ResNetSmall,
            Arch::GoogLeNetSmall,
            Arch::DenseNetSmall,
            Arch::Mlp,
        ] {
            assert_eq!(parse_arch(arch.id()), Some(arch));
        }
        for scale in [Scale::Cifar, Scale::ImageNetLike] {
            assert_eq!(parse_scale(scale.id()).map(|s| s.id()), Some(scale.id()));
        }
        assert_eq!(parse_arch("no-such-arch"), None);
        assert_eq!(parse_scale("no-such-scale"), None);
    }
}
