//! Figure 4 reproduction: average attack queries of the intermediate
//! accepted programs as a function of synthesis queries (left panel) and
//! iterations (right panel), compared against the fixed-prioritization
//! (Sketch+False) baseline.
//!
//! The paper runs this on VGG-16-BN with a 50-image Airplane training set
//! and a 1000-image Airplane test set; we run it on the VGG-family
//! stand-in with one `shapes32` class.
//!
//! ```text
//! cargo run --release -p oppsla-bench --bin fig4 -- \
//!     [--class C]        (default 0)
//!     [--train N]        (training images of that class, default 4)
//!     [--test N]         (test images of that class, default 8)
//!     [--iters N]        (MH iterations, default 40)
//!     [--synth-budget B] (per-image cap during synthesis, default 1500)
//!     [--no-prefilter]   (keep unattackable training images)
//!     [--budget B]       (evaluation budget, default 8192)
//!     [--seed S]         (default 0)
//!     [--threads N]      (worker threads; 0 = auto, default 0)
//!     [--telemetry PATH] (append per-phase telemetry events as JSONL)
//! ```
//!
//! Results are bit-identical for any `--threads` value and with or
//! without `--telemetry` (which writes only to `PATH` and stderr).

use oppsla_bench::{print_telemetry_summary, reports_dir, telemetry_sink, threads_from};
use oppsla_core::dsl::GrammarConfig;
use oppsla_core::synth::SynthConfig;
use oppsla_eval::cli::Args;
use oppsla_eval::plot::{render_chart, ChartConfig, Series};
use oppsla_eval::report::Table;
use oppsla_eval::trajectory::{run_trajectory_parallel_with_sink, trajectory_table};
use oppsla_eval::zoo::{attack_test_set, train_or_load, Scale, ZooConfig};
use oppsla_nn::models::Arch;
use std::time::Instant;

fn main() {
    let args = Args::parse(&[
        "budget",
        "class",
        "iters",
        "no-prefilter",
        "seed",
        "synth-budget",
        "telemetry",
        "test",
        "threads",
        "train",
    ]);
    let class = args.get_usize("class", 0);
    let train_n = args.get_usize("train", 4);
    let test_n = args.get_usize("test", 8);
    let budget = args.get_u64("budget", 8192);
    let threads = threads_from(&args);
    eprintln!("running on {threads} worker thread(s)");
    let synth = SynthConfig {
        max_iterations: args.get_usize("iters", 40),
        beta: 0.01,
        seed: args.get_u64("seed", 0),
        per_image_budget: Some(args.get_u64("synth-budget", 1500)),
        prefilter: !args.flag("no-prefilter"),
        grammar: GrammarConfig::paper(),
        threads,
    };
    let seed = args.get_u64("seed", 0);
    let mut sink = telemetry_sink(&args);

    let scale = Scale::Cifar;
    let t0 = Instant::now();
    let model = train_or_load(Arch::VggSmall, scale, &ZooConfig::default());
    eprintln!(
        "model ready in {:.1?} (test acc {:.3})",
        t0.elapsed(),
        model.test_accuracy
    );

    // One-class training and test sets, like the paper's Airplane setup.
    let of_class = |per_class: usize, seed: u64| -> Vec<_> {
        attack_test_set(scale, per_class, seed)
            .into_iter()
            .filter(|(_, c)| *c == class)
            .collect()
    };
    let train = of_class(train_n, seed.wrapping_add(10));
    let test = of_class(test_n, seed.wrapping_add(999));
    eprintln!(
        "class {class}: {} training images, {} test images",
        train.len(),
        test.len()
    );

    // Engine-backed weight snapshot: allocation-free forward passes,
    // shareable across worker threads (the model itself is not `Sync`).
    let classifier = model.classifier();
    let t1 = Instant::now();
    let result = run_trajectory_parallel_with_sink(
        &classifier,
        &train,
        &test,
        &synth,
        budget,
        seed,
        &mut *sink,
    );
    eprintln!(
        "trajectory computed in {:.1?} ({} accepted programs, {} total synthesis queries)",
        t1.elapsed(),
        result.points.len(),
        result.report.total_queries
    );

    let table = trajectory_table(&result);
    println!("{table}");

    // The two panels of Figure 4 as ASCII charts, with the Sketch+False
    // line as a flat comparison series.
    for (title, x_label, xs) in [
        (
            "avg #queries vs synthesis queries",
            "synthesis queries",
            result
                .points
                .iter()
                .map(|p| p.synthesis_queries as f64)
                .collect::<Vec<_>>(),
        ),
        (
            "avg #queries vs iterations",
            "iteration",
            result.points.iter().map(|p| p.iteration as f64).collect(),
        ),
    ] {
        let oppsla_series = Series::new(
            "oppsla (accepted programs)",
            xs.iter()
                .zip(&result.points)
                .map(|(&x, p)| (x, p.test_avg_queries))
                .collect(),
        );
        let baseline = Series::new(
            "sketch+false",
            xs.iter().map(|&x| (x, result.fixed_baseline_avg)).collect(),
        );
        let chart = render_chart(
            &[oppsla_series, baseline],
            &ChartConfig {
                width: 60,
                height: 12,
                title: title.into(),
                x_label: x_label.into(),
                y_label: "avg #queries (test)".into(),
                log_x: false,
            },
        );
        println!("{chart}");
    }
    if let Some(last) = result.points.last() {
        let improvement = result.fixed_baseline_avg / last.test_avg_queries;
        println!(
            "final accepted program vs Sketch+False baseline: {:.2}x fewer queries",
            improvement
        );
        println!("final program: {}", last.program);
    }

    let mut csv = Table::new(
        "fig4",
        vec![
            "iteration".into(),
            "synthesis_queries".into(),
            "test_avg_queries".into(),
            "test_success_rate".into(),
        ],
    );
    for p in &result.points {
        csv.push_row(vec![
            p.iteration.to_string(),
            p.synthesis_queries.to_string(),
            format!("{:.3}", p.test_avg_queries),
            format!("{:.4}", p.test_success_rate),
        ]);
    }
    let path = reports_dir().join("fig4.csv");
    match csv.write_csv(&path) {
        Ok(()) => println!("trajectory data written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    print_telemetry_summary();
}
