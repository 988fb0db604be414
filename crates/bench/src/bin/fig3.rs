//! Figure 3 reproduction: success rate vs. query budget for OPPSLA,
//! Sparse-RS, SuOPA and DeepSearch on the CIFAR-scale and ImageNet-scale
//! classifier rosters.
//!
//! ```text
//! cargo run --release -p oppsla-bench --bin fig3 -- \
//!     [--scale cifar|imagenet|both]  (default cifar)
//!     [--test-per-class N]           (default 2)
//!     [--budget B]                   (default 8192)
//!     [--synth-train N]              (images per class for synthesis, default 3)
//!     [--synth-iters N]              (MH iterations, default 40)
//!     [--synth-budget B]             (per-image cap during synthesis, default 1500)
//!     [--no-prefilter]               (keep unattackable training images)
//!     [--seed S]                     (default 0)
//!     [--fresh]                      (ignore cached program suites)
//!     [--threads N]                  (worker threads; 0 = auto, default 0)
//!     [--prior PATH]                 (mined saliency prior JSON reordering the
//!                                     OPPSLA initial queue; see oppsla_eval::prior)
//!     [--telemetry PATH]             (append per-phase telemetry events as JSONL)
//!     [--trace PATH]                 (record per-query trace records as JSONL)
//! ```
//!
//! Results are bit-identical for any `--threads` value; the knob only
//! changes wall-clock time. `--telemetry` and `--trace` write only to
//! `PATH` and stderr, never stdout — table and chart output stays
//! byte-identical with or without them.
//!
//! Defaults are scaled down to finish in minutes on a laptop; the paper's
//! full setting is `--test-per-class 100 --budget 10000 --synth-train 50
//! --synth-iters 210`.

use oppsla_attacks::{Attack, DeepSearch, SparseRs, SparseRsConfig, SuOpa, SuOpaConfig};
use oppsla_bench::{
    cifar_archs, finish_trace, imagenet_archs, print_telemetry_summary, reports_dir, start_trace,
    suites_dir, telemetry_sink, threads_from,
};
use oppsla_core::dsl::GrammarConfig;
use oppsla_core::oracle::Classifier;
use oppsla_core::synth::SynthConfig;
use oppsla_core::telemetry::{trace, FieldValue};
use oppsla_eval::cli::Args;
use oppsla_eval::curves::evaluate_attack_parallel_with_sink;
use oppsla_eval::obs::with_phase;
use oppsla_eval::plot::{render_chart, ChartConfig, Series};
use oppsla_eval::report::{fmt_rate, fmt_stat, Table};
use oppsla_eval::suite::{synthesize_suite_cached_parallel, SuiteAttack};
use oppsla_eval::zoo::{attack_test_set, train_or_load, Scale, ZooConfig};
use oppsla_nn::models::Arch;
use std::time::Instant;

/// One curve series: (classifier id, attack name, sampled curve).
type CurveRow = (String, String, Vec<(u64, f64)>);

fn main() {
    let args = Args::parse(&[
        "budget",
        "fresh",
        "no-prefilter",
        "prior",
        "scale",
        "seed",
        "synth-budget",
        "synth-iters",
        "synth-train",
        "telemetry",
        "test-per-class",
        "threads",
        "trace",
    ]);
    let scales: Vec<Scale> = match args.get_str("scale", "cifar").as_str() {
        "cifar" => vec![Scale::Cifar],
        "imagenet" => vec![Scale::ImageNetLike],
        "both" => vec![Scale::Cifar, Scale::ImageNetLike],
        other => panic!("--scale must be cifar|imagenet|both, got {other:?}"),
    };
    let test_per_class = args.get_usize("test-per-class", 2);
    let budget = args.get_u64("budget", 8192);
    let threads = threads_from(&args);
    eprintln!("running on {threads} worker thread(s)");
    let synth = SynthConfig {
        max_iterations: args.get_usize("synth-iters", 40),
        beta: 0.01,
        seed: args.get_u64("seed", 0),
        per_image_budget: Some(args.get_u64("synth-budget", 1500)),
        prefilter: !args.flag("no-prefilter"),
        grammar: GrammarConfig::paper(),
        threads,
    };
    let synth_train_per_class = args.get_usize("synth-train", 3);
    let seed = args.get_u64("seed", 0);
    let prior = args.get_opt_str("prior").map(|path| {
        let prior = oppsla_eval::prior::load_prior(std::path::Path::new(path))
            .unwrap_or_else(|e| panic!("--prior: {e}"));
        eprintln!(
            "loaded saliency prior ({0}x{0} grid) from {path}",
            prior.grid()
        );
        std::sync::Arc::new(prior)
    });
    let mut sink = telemetry_sink(&args);
    let tracing = start_trace(&args);

    let checkpoints: Vec<u64> = [100u64, 500, 1000, budget]
        .into_iter()
        .filter(|&q| q <= budget)
        .collect();
    let grid: Vec<u64> = (1..=40).map(|i| i * budget / 40).collect();

    for scale in scales {
        let archs: Vec<Arch> = match scale {
            Scale::Cifar => cifar_archs().to_vec(),
            Scale::ImageNetLike => imagenet_archs().to_vec(),
        };
        let mut headers = vec!["Classifier".to_owned(), "Attack".to_owned()];
        headers.extend(checkpoints.iter().map(|q| format!("q<={q}")));
        headers.push("Avg #Q (succ)".into());
        let mut table = Table::new(
            format!("Figure 3 ({scale}): success rate by query budget"),
            headers,
        );
        let mut curve_rows: Vec<CurveRow> = Vec::new();

        for arch in archs {
            let t0 = Instant::now();
            let model = train_or_load(arch, scale, &ZooConfig::default());
            eprintln!(
                "[{scale}/{arch}] model ready in {:.1?} (test acc {:.3})",
                t0.elapsed(),
                model.test_accuracy
            );

            let train = attack_test_set(scale, synth_train_per_class, seed.wrapping_add(10));
            let cache = (!args.flag("fresh")).then(|| {
                suites_dir().join(format!(
                    "{}-{}-i{}-t{}-s{}.json",
                    arch.id(),
                    scale.id(),
                    synth.max_iterations,
                    synth_train_per_class,
                    synth.seed
                ))
            });
            // The engine-backed classifier snapshot serves every query of
            // synthesis and evaluation: allocation-free forward passes,
            // shareable across worker threads.
            let classifier = model.classifier();
            let t1 = Instant::now();
            let synth_labels = [
                ("scale", FieldValue::Str(scale.to_string())),
                ("arch", FieldValue::Str(arch.id().to_owned())),
                ("train_images", FieldValue::U64(train.len() as u64)),
            ];
            trace::begin_section(trace::SectionMeta {
                label: format!("fig3/{scale}/{}/synthesis", arch.id()),
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
            match reports {
                Some(reports) => {
                    let synth_queries: u64 =
                        reports.iter().flatten().map(|r| r.total_queries).sum();
                    eprintln!(
                        "[{scale}/{arch}] synthesized suite in {:.1?} ({synth_queries} synthesis queries)",
                        t1.elapsed()
                    );
                }
                None => eprintln!("[{scale}/{arch}] loaded cached program suite"),
            }

            let test = attack_test_set(scale, test_per_class, seed.wrapping_add(999));
            let mut suite_attack = SuiteAttack::new(suite);
            if let Some(prior) = &prior {
                suite_attack = suite_attack.with_prior(prior.clone());
            }
            let attacks: Vec<Box<dyn Attack + Sync>> = vec![
                Box::new(suite_attack),
                Box::new(SparseRs::new(SparseRsConfig {
                    max_iterations: budget,
                    ..SparseRsConfig::default()
                })),
                Box::new(SuOpa::new(SuOpaConfig::default())),
                Box::new(DeepSearch::default()),
            ];
            for attack in &attacks {
                let t2 = Instant::now();
                trace::begin_section(trace::SectionMeta {
                    label: format!("fig3/{scale}/{}/{}", arch.id(), attack.name()),
                    scale: scale.id().to_owned(),
                    arch: arch.id().to_owned(),
                    set: "test".to_owned(),
                    per_class: test_per_class as u32,
                    set_seed: seed.wrapping_add(999),
                    budget,
                    attack: attack.name().to_owned(),
                    attack_seed: seed,
                });
                let eval = evaluate_attack_parallel_with_sink(
                    attack.as_ref(),
                    &classifier,
                    &test,
                    budget,
                    seed,
                    threads,
                    &mut *sink,
                );
                eprintln!(
                    "[{scale}/{arch}] {}: {} valid, success {} in {:.1?}",
                    attack.name(),
                    eval.num_valid(),
                    fmt_rate(eval.success_rate()),
                    t2.elapsed()
                );
                let mut row = vec![arch.id().to_owned(), attack.name().to_owned()];
                row.extend(
                    checkpoints
                        .iter()
                        .map(|&q| fmt_rate(eval.success_rate_at(q))),
                );
                row.push(fmt_stat(eval.avg_queries()));
                table.push_row(row);
                curve_rows.push((
                    arch.id().to_owned(),
                    attack.name().to_owned(),
                    eval.curve(&grid),
                ));
            }
        }

        println!("{table}");

        // One ASCII panel per classifier, matching the paper's layout.
        let mut by_arch: Vec<&str> = curve_rows.iter().map(|(a, _, _)| a.as_str()).collect();
        by_arch.dedup();
        for arch in by_arch {
            let series: Vec<Series> = curve_rows
                .iter()
                .filter(|(a, _, _)| a == arch)
                .map(|(_, attack, curve)| {
                    Series::new(
                        attack.clone(),
                        curve.iter().map(|&(q, r)| (q as f64, r)).collect(),
                    )
                })
                .collect();
            let chart = render_chart(
                &series,
                &ChartConfig {
                    width: 60,
                    height: 12,
                    title: format!("{arch}: success rate vs queries (log x)"),
                    x_label: "queries".into(),
                    y_label: "success rate".into(),
                    log_x: true,
                },
            );
            println!("{chart}");
        }

        let mut csv = Table::new(
            format!("fig3-{scale}"),
            vec![
                "classifier".into(),
                "attack".into(),
                "budget".into(),
                "success_rate".into(),
            ],
        );
        for (arch, attack, curve) in &curve_rows {
            for (q, rate) in curve {
                csv.push_row(vec![
                    arch.clone(),
                    attack.clone(),
                    q.to_string(),
                    format!("{rate:.4}"),
                ]);
            }
        }
        let path = reports_dir().join(format!("fig3-{scale}.csv"));
        match csv.write_csv(&path) {
            Ok(()) => println!("curve data written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    print_telemetry_summary();
    finish_trace(tracing);
}
