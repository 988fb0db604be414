//! Table 2 (Appendix C) reproduction: average and median query counts of
//! OPPSLA vs Sketch+False vs Sketch+Random vs Sparse-RS on the CIFAR-scale
//! classifiers.
//!
//! ```text
//! cargo run --release -p oppsla-bench --bin table2 -- \
//!     [--test-per-class N]  (default 2)
//!     [--budget B]          (default 8192)
//!     [--synth-train N]     (default 3)
//!     [--synth-iters N]     (default 40; also the Sketch+Random sample count)
//!     [--synth-budget B]    (default 1500)
//!     [--no-prefilter]      (keep unattackable training images)
//!     [--seed S]            (default 0)
//!     [--threads N]         (worker threads; 0 = auto, default 0)
//!     [--telemetry PATH]    (append per-phase telemetry events as JSONL)
//! ```
//!
//! Results are bit-identical for any `--threads` value and with or
//! without `--telemetry` (which writes only to `PATH` and stderr).
//!
//! The paper pairs 210 MH iterations with 210 random samples; the default
//! here is scaled down — pass `--synth-iters 210` for the full setting.

use oppsla_attacks::SparseRsConfig;
use oppsla_bench::{
    cifar_archs, print_telemetry_summary, reports_dir, telemetry_sink, threads_from,
};
use oppsla_core::dsl::GrammarConfig;
use oppsla_core::synth::SynthConfig;
use oppsla_eval::ablation::{ablation_table, run_ablation_parallel_with_sink, AblationConfig};
use oppsla_eval::cli::Args;
use oppsla_eval::zoo::{attack_test_set, train_or_load, Scale, ZooConfig};
use std::time::Instant;

fn main() {
    let args = Args::parse(&[
        "budget",
        "no-prefilter",
        "seed",
        "synth-budget",
        "synth-iters",
        "synth-train",
        "telemetry",
        "test-per-class",
        "threads",
    ]);
    let test_per_class = args.get_usize("test-per-class", 2);
    let budget = args.get_u64("budget", 8192);
    let threads = threads_from(&args);
    eprintln!("running on {threads} worker thread(s)");
    let config = AblationConfig {
        synth: SynthConfig {
            max_iterations: args.get_usize("synth-iters", 40),
            beta: 0.01,
            seed: args.get_u64("seed", 0),
            per_image_budget: Some(args.get_u64("synth-budget", 1500)),
            prefilter: !args.flag("no-prefilter"),
            grammar: GrammarConfig::paper(),
            threads,
        },
        eval_budget: budget,
        sparse_rs: SparseRsConfig {
            max_iterations: budget,
            ..SparseRsConfig::default()
        },
        seed: args.get_u64("seed", 0),
    };
    let synth_train_per_class = args.get_usize("synth-train", 3);
    let seed = args.get_u64("seed", 0);
    let mut sink = telemetry_sink(&args);

    let scale = Scale::Cifar;
    // The ablation trains on a mixed multi-class set (one OPPSLA program
    // per run), matching the Appendix C per-classifier comparison.
    let train = attack_test_set(scale, synth_train_per_class, seed.wrapping_add(10));
    let test = attack_test_set(scale, test_per_class, seed.wrapping_add(999));

    let mut results = Vec::new();
    for arch in cifar_archs() {
        let t0 = Instant::now();
        let model = train_or_load(arch, scale, &ZooConfig::default());
        eprintln!(
            "[{arch}] model ready in {:.1?} (test acc {:.3})",
            t0.elapsed(),
            model.test_accuracy
        );
        // Engine-backed weight snapshot: allocation-free forward passes,
        // shareable across worker threads (the model itself is not `Sync`).
        let classifier = model.classifier();
        let t1 = Instant::now();
        let result = run_ablation_parallel_with_sink(
            arch.id(),
            &classifier,
            &train,
            &test,
            &config,
            &mut *sink,
        );
        eprintln!("[{arch}] ablation done in {:.1?}", t1.elapsed());
        results.push(result);
    }

    let table = ablation_table(&results);
    println!("{table}");

    let path = reports_dir().join("table2.csv");
    match table.write_csv(&path) {
        Ok(()) => println!("table written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    print_telemetry_summary();
}
