//! Search-efficiency benchmark: average queries-to-success with and
//! without the cross-restart query memo (`BENCH_search.json`).
//!
//! Runs a fixed attack roster — the paper's example sketch program and
//! the DeepSearch coarse-to-fine baseline — over the fig3 test set for
//! each architecture, `--restarts` times per arm. The `memo_off` arm
//! pays every oracle query in every restart; the `memo_on` arm shares
//! one per-classifier [`MemoBank`] across the whole roster and all
//! restarts, so a candidate is only ever paid for once (the
//! crash-recovery / CI-retry / re-evaluation scenario the memo exists
//! for). Both arms run the *same* evaluations with the same seeds and
//! budgets; the binary asserts the memo changed query counts only
//! downward and outcomes not at all before reporting.
//!
//! ```text
//! cargo run --release -p oppsla-bench --bin search_bench -- \
//!     [--archs mlp,vgg-small,resnet-small]  (cifar-scale roster)
//!     [--test-per-class N]   (default 1)
//!     [--budget B]           (default 600)
//!     [--restarts R]         (default 3; evaluations per arm)
//!     [--seed S]             (default 0)
//!     [--threads N]          (0 = auto)
//!     [--out PATH]           (one JSON row per arch + a summary row)
//!     [--require-speedup X]  (exit nonzero unless the geomean
//!                             queries-to-success speedup is >= X)
//!     [--trace PATH]         (record both arms' counted queries;
//!                             build with --features trace — replaying
//!                             the memo-on arm proves memo hits are
//!                             never counted as oracle queries)
//! ```
//!
//! Rows carry `arch`/`input`/`queries_speedup` in the shape
//! `scripts/bench_gate.sh` scans, so CI gates the geomean
//! queries-to-success ratio against the committed `BENCH_search.json`.
//! Query counts are exact integers from a deterministic evaluation —
//! unlike the timing benches there is no run-to-run noise, so the gate's
//! regression margin is pure headroom.

use oppsla_attacks::{Attack, DeepSearch, SketchProgramAttack};
use oppsla_bench::cli::Args;
use oppsla_bench::{finish_trace, reports_dir, start_trace, threads_from};
use oppsla_core::dsl::Program;
use oppsla_core::oracle::{MemoBank, DEFAULT_MEMO_CAPACITY};
use oppsla_core::telemetry::trace;
use oppsla_eval::curves::{
    evaluate_attack_parallel, evaluate_attack_parallel_with_memo, AttackEval,
};
use oppsla_eval::zoo::{attack_test_set, train_or_load, Scale, ZooConfig};
use oppsla_nn::models::Arch;
use std::fmt::Write as _;
use std::time::Instant;

fn parse_archs(spec: &str) -> Vec<Arch> {
    spec.split(',')
        .map(|id| {
            [
                Arch::VggSmall,
                Arch::ResNetSmall,
                Arch::GoogLeNetSmall,
                Arch::DenseNetSmall,
                Arch::Mlp,
            ]
            .into_iter()
            .find(|a| a.id() == id.trim())
            .unwrap_or_else(|| panic!("--archs: unknown arch {id:?}"))
        })
        .collect()
}

/// Totals of one arm: counted queries and successes over every
/// (attack, restart) evaluation.
#[derive(Default)]
struct Arm {
    queries: u64,
    successes: u64,
    evals: Vec<AttackEval>,
}

impl Arm {
    fn absorb(&mut self, eval: AttackEval) {
        self.queries += eval.outcomes.iter().map(|o| o.queries()).sum::<u64>();
        self.successes += eval.success_queries().len() as u64;
        self.evals.push(eval);
    }

    /// Total counted queries per success — the paper's efficiency metric
    /// with the failures' spend honestly included in the numerator.
    fn avg_queries_to_success(&self) -> Option<f64> {
        (self.successes > 0).then(|| self.queries as f64 / self.successes as f64)
    }
}

fn main() {
    let args = Args::parse();
    let archs = parse_archs(&args.get_str("archs", "mlp,vgg-small,resnet-small"));
    let per_class = args.get_usize("test-per-class", 1);
    let budget = args.get_u64("budget", 600);
    let restarts = args.get_usize("restarts", 3).max(1);
    let seed = args.get_u64("seed", 0);
    let threads = threads_from(&args);
    let require: Option<f64> = args.get_opt_str("require-speedup").map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--require-speedup expects a number, got {v:?}"))
    });
    let tracing = start_trace(&args);

    let scale = Scale::Cifar;
    let attacks: Vec<Box<dyn Attack + Sync>> = vec![
        Box::new(SketchProgramAttack::new(Program::paper_example())),
        Box::new(DeepSearch::default()),
    ];

    let mut rows: Vec<String> = Vec::new();
    let mut speedups: Vec<f64> = Vec::new();
    for arch in archs {
        let t0 = Instant::now();
        let model = train_or_load(arch, scale, &ZooConfig::default());
        let classifier = model.classifier();
        let test = attack_test_set(scale, per_class, seed.wrapping_add(999));
        eprintln!(
            "[{arch}] model ready in {:.1?} (test acc {:.3}), {} image(s)",
            t0.elapsed(),
            model.test_accuracy,
            test.len()
        );

        // One memo bank per classifier, shared across attacks and
        // restarts; never across archs (memo keys carry no classifier
        // identity).
        let bank = MemoBank::new(test.len(), DEFAULT_MEMO_CAPACITY);
        let mut arms = [Arm::default(), Arm::default()];
        for (arm_idx, arm_name) in [(0usize, "memo_off"), (1, "memo_on")] {
            for attack in &attacks {
                trace::begin_section(trace::SectionMeta {
                    label: format!("search/{}/{}/{arm_name}", arch.id(), attack.name()),
                    scale: scale.id().to_owned(),
                    arch: arch.id().to_owned(),
                    set: "test".to_owned(),
                    per_class: per_class as u32,
                    set_seed: seed.wrapping_add(999),
                    budget,
                    attack: attack.name().to_owned(),
                    attack_seed: seed,
                });
                for _restart in 0..restarts {
                    let eval = if arm_idx == 1 {
                        evaluate_attack_parallel_with_memo(
                            attack.as_ref(),
                            &classifier,
                            &test,
                            budget,
                            seed,
                            threads,
                            &bank,
                        )
                    } else {
                        evaluate_attack_parallel(
                            attack.as_ref(),
                            &classifier,
                            &test,
                            budget,
                            seed,
                            threads,
                        )
                    };
                    arms[arm_idx].absorb(eval);
                }
            }
        }
        let [off, on] = &arms;

        // Honest-accounting A/B: the memo may only remove queries, never
        // change what the attack finds.
        assert_eq!(
            off.evals.len(),
            on.evals.len(),
            "arms ran different numbers of evaluations"
        );
        for (o, n) in off.evals.iter().zip(&on.evals) {
            assert_eq!(o.outcomes.len(), n.outcomes.len());
            for (a, b) in o.outcomes.iter().zip(&n.outcomes) {
                assert!(
                    b.queries() <= a.queries(),
                    "[{arch}] memo-on run spent {} > memo-off's {}",
                    b.queries(),
                    a.queries()
                );
            }
        }
        assert!(
            on.successes >= off.successes,
            "[{arch}] memo-on lost successes: {} < {}",
            on.successes,
            off.successes
        );

        let evals = off.evals.len();
        let mut row = format!(
            "{{\"bench\": \"search\", \"arch\": \"{}\", \"input\": \"{}\", \"images\": {}, \
             \"attacks\": {}, \"restarts\": {restarts}, \"budget\": {budget}, \
             \"evals_per_arm\": {evals}, \"queries_off\": {}, \"queries_on\": {}, \
             \"successes_off\": {}, \"successes_on\": {}",
            arch.id(),
            scale.id(),
            test.len(),
            attacks.len(),
            off.queries,
            on.queries,
            off.successes,
            on.successes,
        );
        match (off.avg_queries_to_success(), on.avg_queries_to_success()) {
            (Some(a_off), Some(a_on)) => {
                let speedup = a_off / a_on;
                write!(
                    row,
                    ", \"avg_queries_off\": {a_off:.3}, \"avg_queries_on\": {a_on:.3}, \
                     \"queries_speedup\": {speedup:.4}}}"
                )
                .expect("write to String");
                println!("[{arch}] avg queries-to-success {a_off:.1} -> {a_on:.1} ({speedup:.2}x)");
                speedups.push(speedup);
            }
            _ => {
                row.push('}');
                eprintln!(
                    "warning: [{arch}] no successful attacks in an arm; row carries no \
                     queries_speedup (raise --budget or --test-per-class)"
                );
            }
        }
        rows.push(row);
    }

    let geomean = (!speedups.is_empty())
        .then(|| (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp());
    if let Some(g) = geomean {
        println!(
            "geomean queries-to-success speedup over {} arch(es): {g:.2}x",
            speedups.len()
        );
        rows.push(format!(
            "{{\"bench\": \"search_summary\", \"geomean_queries_speedup\": {g:.4}}}"
        ));
    }

    let out = args
        .get_opt_str("out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| reports_dir().join("BENCH_search.json"));
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    let body = rows.iter().fold(String::new(), |mut acc, r| {
        acc.push_str(r);
        acc.push('\n');
        acc
    });
    match std::fs::write(&out, body) {
        Ok(()) => println!("report written to {}", out.display()),
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", out.display());
            std::process::exit(1);
        }
    }
    finish_trace(tracing);

    if let Some(min) = require {
        match geomean {
            Some(g) if g >= min => {}
            Some(g) => {
                eprintln!("FAIL: geomean speedup {g:.2}x < required {min:.2}x");
                std::process::exit(1);
            }
            None => {
                eprintln!("FAIL: no comparable cells produced a speedup");
                std::process::exit(1);
            }
        }
    }
}
