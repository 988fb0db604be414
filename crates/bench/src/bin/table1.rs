//! Table 1 reproduction: transferability of synthesized programs across
//! the CIFAR-scale classifiers (GoogLeNet / ResNet18 / VGG-16-BN stand-ins).
//!
//! ```text
//! cargo run --release -p oppsla-bench --bin table1 -- \
//!     [--test-per-class N]   (default 2)
//!     [--budget B]           (default 8192)
//!     [--synth-train N]      (default 3)
//!     [--synth-iters N]      (default 40)
//!     [--synth-budget B]     (default 1500)
//!     [--no-prefilter]       (keep unattackable training images)
//!     [--seed S]             (default 0)
//!     [--fresh]
//!     [--threads N]          (worker threads; 0 = auto, default 0)
//!     [--telemetry PATH]     (append per-phase telemetry events as JSONL)
//!     [--trace PATH]         (record per-query trace records as JSONL;
//!                             build with --features trace)
//! ```
//!
//! Results are bit-identical for any `--threads` value and with or
//! without `--telemetry` (which writes only to `PATH` and stderr).

use oppsla_bench::cli::Args;
use oppsla_bench::{
    cifar_archs, finish_trace, print_telemetry_summary, reports_dir, start_trace, suites_dir,
    telemetry_sink, threads_from,
};
use oppsla_core::dsl::GrammarConfig;
use oppsla_core::oracle::{BatchClassifier, Classifier};
use oppsla_core::synth::SynthConfig;
use oppsla_core::telemetry::{trace, FieldValue};
use oppsla_eval::obs::with_phase;
use oppsla_eval::suite::{synthesize_suite_cached_parallel, ProgramSuite};
use oppsla_eval::transfer::{run_transfer_parallel_traced, transfer_table};
use oppsla_eval::zoo::{attack_test_set, train_or_load, Scale, ZooClassifier, ZooConfig};
use std::time::Instant;

fn main() {
    let args = Args::parse(&[
        "budget",
        "fresh",
        "no-prefilter",
        "seed",
        "synth-budget",
        "synth-iters",
        "synth-train",
        "telemetry",
        "test-per-class",
        "threads",
        "trace",
    ]);
    let test_per_class = args.get_usize("test-per-class", 2);
    let budget = args.get_u64("budget", 8192);
    let threads = threads_from(&args);
    eprintln!("running on {threads} worker thread(s)");
    let synth = SynthConfig {
        max_iterations: args.get_usize("synth-iters", 40),
        beta: 0.01,
        seed: args.get_u64("seed", 0),
        per_image_budget: Some(args.get_u64("synth-budget", 1500)),
        prefilter: !args.has("no-prefilter"),
        grammar: GrammarConfig::paper(),
        threads,
    };
    let synth_train_per_class = args.get_usize("synth-train", 3);
    let seed = args.get_u64("seed", 0);
    let mut sink = telemetry_sink(&args);
    let tracing = start_trace(&args);

    let scale = Scale::Cifar;
    let mut labels = Vec::new();
    let mut classifiers: Vec<ZooClassifier> = Vec::new();
    let mut suites: Vec<ProgramSuite> = Vec::new();
    for arch in cifar_archs() {
        let t0 = Instant::now();
        let model = train_or_load(arch, scale, &ZooConfig::default());
        eprintln!(
            "[{arch}] model ready in {:.1?} (test acc {:.3})",
            t0.elapsed(),
            model.test_accuracy
        );
        let train = attack_test_set(scale, synth_train_per_class, seed.wrapping_add(10));
        let cache = (!args.has("fresh")).then(|| {
            suites_dir().join(format!(
                "{}-{}-i{}-t{}-s{}.json",
                arch.id(),
                scale.id(),
                synth.max_iterations,
                synth_train_per_class,
                synth.seed
            ))
        });
        // Engine-backed weight snapshot: allocation-free forward passes,
        // shareable across worker threads (the model itself is not `Sync`).
        let classifier = model.classifier();
        let t1 = Instant::now();
        let synth_labels = [
            ("arch", FieldValue::Str(arch.id().to_owned())),
            ("train_images", FieldValue::U64(train.len() as u64)),
        ];
        trace::begin_section(trace::SectionMeta {
            label: format!("table1/{}/synthesis", arch.id()),
            scale: scale.id().to_owned(),
            arch: arch.id().to_owned(),
            set: "synth_train".to_owned(),
            per_class: synth_train_per_class as u32,
            set_seed: seed.wrapping_add(10),
            budget: synth.per_image_budget.unwrap_or(0),
            attack: "synthesis".to_owned(),
            attack_seed: synth.seed,
        });
        let (suite, reports) = with_phase(&mut *sink, "suite_synthesis", &synth_labels, || {
            synthesize_suite_cached_parallel(
                &classifier,
                &train,
                model.num_classes(),
                &synth,
                cache.as_deref(),
            )
        });
        eprintln!(
            "[{arch}] suite {} in {:.1?}",
            if reports.is_some() {
                "synthesized"
            } else {
                "loaded from cache"
            },
            t1.elapsed()
        );
        labels.push(arch.id().to_owned());
        classifiers.push(classifier);
        suites.push(suite);
    }

    let classifier_refs: Vec<&dyn BatchClassifier> = classifiers
        .iter()
        .map(|c| c as &dyn BatchClassifier)
        .collect();
    let test = attack_test_set(scale, test_per_class, seed.wrapping_add(999));
    let t2 = Instant::now();
    let transfer_labels = [
        ("classifiers", FieldValue::U64(labels.len() as u64)),
        ("test_images", FieldValue::U64(test.len() as u64)),
        ("budget", FieldValue::U64(budget)),
    ];
    let transfer_meta = trace::SectionMeta {
        label: "table1/transfer".to_owned(),
        scale: scale.id().to_owned(),
        arch: String::new(), // stamped per (source, target) cell
        set: "test".to_owned(),
        per_class: test_per_class as u32,
        set_seed: seed.wrapping_add(999),
        budget,
        attack: String::new(), // stamped per (source, target) cell
        attack_seed: seed,
    };
    let result = with_phase(&mut *sink, "transfer", &transfer_labels, || {
        run_transfer_parallel_traced(
            &labels,
            &classifier_refs,
            &suites,
            &test,
            budget,
            seed,
            threads,
            &transfer_meta,
        )
    });
    eprintln!("transfer matrix computed in {:.1?}", t2.elapsed());

    let table = transfer_table(&result);
    println!("{table}");

    // Success rates are reported separately (the paper notes they are
    // independent of which classifier a program was synthesized for).
    let mut rates =
        oppsla_eval::report::Table::new("Transfer success rates (valid images, within budget)", {
            let mut h = vec!["Target \\ Synthesized for".to_owned()];
            h.extend(labels.iter().cloned());
            h
        });
    for (target, label) in labels.iter().enumerate() {
        let mut row = vec![label.clone()];
        row.extend(
            result.success_rate[target]
                .iter()
                .map(|&r| oppsla_eval::report::fmt_rate(r)),
        );
        rates.push_row(row);
    }
    println!("{rates}");

    let path = reports_dir().join("table1.csv");
    match table.write_csv(&path) {
        Ok(()) => println!("table written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    print_telemetry_summary();
    finish_trace(tracing);
}
