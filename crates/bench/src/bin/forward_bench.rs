//! Forward-pass microbenchmark: tape-based `ConvNet::scores` vs. the
//! compiled allocation-free [`InferencePlan`] hot path, plus parallel
//! query throughput and the incremental pixel-delta engine, for every zoo
//! architecture.
//!
//! Emits machine-readable JSON reports (default `BENCH_forward.json` and
//! `BENCH_incremental.json` at the current directory) so CI and future
//! sessions can track the query hot path's cost without parsing criterion
//! output.
//!
//! ```text
//! cargo run --release -p oppsla-bench --bin forward_bench -- \
//!     [--iters N]     (timed queries per window, default 200)
//!     [--batch N]     (images per throughput measurement, default 64)
//!     [--batch-k N]   (candidates per batched sweep, default 8)
//!     [--threads N]   (worker threads; 0 = auto, default 0)
//!     [--out PATH]    (default BENCH_forward.json)
//!     [--inc-out PATH] (default BENCH_incremental.json)
//!     [--batched-out PATH] (default BENCH_batched.json)
//! ```
//!
//! `engine_speedup` is the seed repo's per-query cost (the allocating
//! autograd tape, still exercised by `ConvNet::scores`) divided by the
//! compiled plan's per-query cost on the same weights and input.
//! `incremental_speedup` is the compiled plan's full-forward cost divided
//! by the dirty-region pixel-delta cost on the same base image, measured
//! over a sweep of candidate pixels that mirrors the attack's query
//! pattern (one cached base, many single-pixel candidates). The sweep
//! cycles through a fixed set of [`SWEEP_CYCLE`] candidates, so every
//! `--iters` that is a multiple of it times the same mix.
//!
//! Every figure is the median of `WINDOWS` (five) timed windows. The
//! windows are interleaved path by path, so drift on the host (frequency,
//! steal, a neighbour's burst) lands on every path of a row alike instead
//! of on whichever path happened to run during it.

use oppsla_bench::threads_from;
use oppsla_core::parallel::parallel_map_with;
use oppsla_eval::cli::Args;
use oppsla_nn::delta::BaseActivations;
use oppsla_nn::infer::InferenceEngine;
use oppsla_nn::models::{Arch, ConvNet, InputSpec};
use oppsla_tensor::{gemm, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// Timed windows per path; each reported figure is their median.
const WINDOWS: usize = 5;

/// Candidates in the delta sweeps' fixed cycle: CI's `--iters 40`, which
/// the default `--batch-k 8` divides, so a short run and a long one time
/// the same candidates in the same proportions.
const SWEEP_CYCLE: usize = 40;

/// The RGB-corner values the sweep cycles through, like the sketch's
/// pair queue.
const CORNERS: [[f32; 3]; 4] = [
    [0.0, 0.0, 0.0],
    [1.0, 0.0, 1.0],
    [0.0, 1.0, 1.0],
    [1.0, 1.0, 1.0],
];

/// Candidate `q` of a delta sweep over an `h`×`w` image: candidate
/// `c = q mod SWEEP_CYCLE` of the cycle, the pixel `(13c mod h, 29c mod w)`
/// set to corner `c mod 4`.
fn candidate(q: usize, h: usize, w: usize) -> (usize, usize, [f32; 3]) {
    let c = q % SWEEP_CYCLE;
    ((c * 13) % h, (c * 29) % w, CORNERS[c % CORNERS.len()])
}

/// The median of an odd number of window timings.
fn median(mut windows: Vec<f64>) -> f64 {
    windows.sort_by(f64::total_cmp);
    windows[windows.len() / 2]
}

/// Times one window of `calls` calls of `call` and returns nanoseconds per
/// call. The same calls run once untimed first, refilling the caches the
/// path timed before evicted, so the window measures the steady state and
/// not the switch between paths.
fn window(calls: usize, mut call: impl FnMut(usize)) -> f64 {
    for i in 0..calls {
        call(i);
    }
    let t = Instant::now();
    for i in 0..calls {
        call(i);
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// One architecture's measurements, all in nanoseconds per query or
/// queries per second.
struct Row {
    arch: &'static str,
    input: String,
    tape_ns: f64,
    engine_ns: f64,
    incremental_ns: f64,
    batched_delta_ns: f64,
    sequential_qps: f64,
    parallel_qps: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.tape_ns / self.engine_ns
    }

    fn incremental_speedup(&self) -> f64 {
        self.engine_ns / self.incremental_ns
    }

    /// Batched candidate throughput over the sequential delta path.
    fn batched_speedup(&self) -> f64 {
        self.incremental_ns / self.batched_delta_ns
    }
}

fn main() {
    let args = Args::parse(&[
        "batch",
        "batch-k",
        "batched-out",
        "inc-out",
        "iters",
        "out",
        "threads",
    ]);
    let iters = args.get_usize("iters", 200).max(1);
    let batch = args.get_usize("batch", 64).max(1);
    let batch_k = args.get_usize("batch-k", 8).max(1);
    let threads = threads_from(&args);
    let simd_isa = gemm::simd_isa();
    let out_path = args.get_str("out", "BENCH_forward.json");
    let inc_out_path = args.get_str("inc-out", "BENCH_incremental.json");
    let batched_out_path = args.get_str("batched-out", "BENCH_batched.json");

    eprintln!(
        "{iters} iters, {batch}-image batches, {batch_k}-candidate sweeps, {threads} worker \
         thread(s), simd {simd_isa}"
    );

    let cases: [(Arch, InputSpec, usize); 7] = [
        (Arch::VggSmall, InputSpec::RGB32, 10),
        (Arch::ResNetSmall, InputSpec::RGB32, 10),
        (Arch::GoogLeNetSmall, InputSpec::RGB32, 10),
        (Arch::DenseNetSmall, InputSpec::RGB32, 10),
        (Arch::Mlp, InputSpec::RGB32, 10),
        (Arch::ResNetSmall, InputSpec::RGB64, 20),
        (Arch::DenseNetSmall, InputSpec::RGB64, 20),
    ];

    let mut rows = Vec::new();
    for (arch, input, classes) in cases {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let net = ConvNet::build(arch, input, classes, &mut rng);
        let engine = InferenceEngine::new(&net);
        let plan = engine.plan();
        let image = Tensor::from_fn([input.channels, input.height, input.width], |i| {
            (i % 97) as f32 / 97.0
        });

        // Warm-up both paths (first tape call grows its arena; first plan
        // call touches the workspace pages).
        let tape_scores = net.scores(&image);
        let engine_scores = engine.scores(&image);
        assert_eq!(
            tape_scores, engine_scores,
            "[{arch}] engine disagrees with the tape"
        );

        let mut ws = plan.workspace();
        let mut buf = Vec::with_capacity(plan.num_classes());

        // Incremental path: one cached base, many single-pixel candidates
        // — the attack's actual query pattern.
        let delta = engine.delta_plan();
        let acts = BaseActivations::capture(plan, &mut ws, &image);
        let mut dws = delta.workspace(&acts);
        let (h, w) = (input.height, input.width);
        // Sanity: the incremental path must be bit-identical to a full
        // forward on the poked image.
        {
            let (row, col) = (h / 3, w / 2);
            let rgb = CORNERS[1];
            delta.scores_pixel_delta_into(plan, &acts, &mut dws, row, col, rgb, &mut buf);
            let mut poked = image.clone();
            let area = h * w;
            for (c, v) in rgb.iter().enumerate() {
                poked.data_mut()[c * area + row * w + col] = *v;
            }
            let mut full = Vec::new();
            plan.scores_into(&mut ws, &poked, &mut full);
            assert_eq!(
                buf, full,
                "[{arch}] incremental disagrees with full forward"
            );
        }

        // Batched candidate path: the same pixel-candidate sweep, `batch_k`
        // candidates per layer-major sweep over shared base activations.
        let mut batch_dws: Vec<_> = (0..batch_k).map(|_| delta.workspace(&acts)).collect();
        let mut scratch = oppsla_nn::delta::DeltaBatchScratch::new();
        let mut cands: Vec<(usize, usize, [f32; 3])> = Vec::with_capacity(batch_k);
        let mut batch_buf: Vec<f32> = Vec::with_capacity(batch_k * plan.num_classes());
        let sweeps = (iters / batch_k).max(1);
        let fill_cands = |cands: &mut Vec<(usize, usize, [f32; 3])>, sweep: usize| {
            cands.clear();
            for j in 0..batch_k {
                cands.push(candidate(sweep * batch_k + j, h, w));
            }
        };

        // Throughput over a batch of distinct images, sequential vs. the
        // scoped-thread parallel map used by synthesis and evaluation.
        let images: Vec<Tensor> = (0..batch)
            .map(|b| {
                Tensor::from_fn([input.channels, input.height, input.width], |i| {
                    ((i + b * 31) % 97) as f32 / 97.0
                })
            })
            .collect();
        let run_batch = |threads: usize| -> f64 {
            let t = Instant::now();
            let top: Vec<usize> = parallel_map_with(
                threads,
                &images,
                || (plan.workspace(), Vec::with_capacity(plan.num_classes())),
                |(ws, buf), _, image| {
                    plan.scores_into(ws, image, buf);
                    buf.iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1))
                        .map(|(i, _)| i)
                        .unwrap_or(0)
                },
            );
            black_box(top);
            images.len() as f64 / t.elapsed().as_secs_f64()
        };
        run_batch(threads); // warm-up (thread spawn, page faults)

        let (mut tape, mut full, mut incremental, mut batched, mut seq_qps, mut par_qps) =
            (vec![], vec![], vec![], vec![], vec![], vec![]);
        for _ in 0..WINDOWS {
            // Seed path: autograd tape, allocating per query.
            tape.push(window(iters, |_| {
                black_box(net.scores(black_box(&image)));
            }));
            // Compiled path: reused workspace + score buffer, zero
            // steady-state allocations.
            full.push(window(iters, |_| {
                plan.scores_into(&mut ws, black_box(&image), &mut buf);
                black_box(&buf);
            }));
            incremental.push(window(iters, |q| {
                let (row, col, rgb) = candidate(q, h, w);
                delta.scores_pixel_delta_into(
                    plan,
                    &acts,
                    &mut dws,
                    black_box(row),
                    black_box(col),
                    rgb,
                    &mut buf,
                );
                black_box(&buf);
            }));
            let per_sweep = window(sweeps, |sweep| {
                fill_cands(&mut cands, sweep);
                delta.scores_pixel_delta_batch_into(
                    plan,
                    &acts,
                    &mut batch_dws,
                    black_box(&cands),
                    &mut scratch,
                    &mut batch_buf,
                );
                black_box(&batch_buf);
            });
            batched.push(per_sweep / batch_k as f64);
            seq_qps.push(run_batch(1));
            par_qps.push(run_batch(threads));
        }

        let row = Row {
            arch: arch.id(),
            input: format!("{}x{}x{}", input.channels, input.height, input.width),
            tape_ns: median(tape),
            engine_ns: median(full),
            incremental_ns: median(incremental),
            batched_delta_ns: median(batched),
            sequential_qps: median(seq_qps),
            parallel_qps: median(par_qps),
        };
        eprintln!(
            "[{arch} {}] tape {:.0} ns/q, engine {:.0} ns/q ({:.2}x), incr {:.0} ns/q ({:.2}x), batched-delta {:.0} ns/q ({:.2}x), {:.0} q/s seq, {:.0} q/s x{threads}",
            row.input,
            row.tape_ns,
            row.engine_ns,
            row.speedup(),
            row.incremental_ns,
            row.incremental_speedup(),
            row.batched_delta_ns,
            row.batched_speedup(),
            row.sequential_qps,
            row.parallel_qps,
        );
        rows.push(row);
    }

    // Hand-rolled JSON: flat schema, stable key order, no serde needed.
    //
    // Cost of the disarmed observability hooks, which every build carries
    // on the query path: an op timer (one per forward op) and a trace
    // query record (route tag plus record, one per query). Disarmed, each
    // is one relaxed load and a branch; CI fails a report where either
    // exceeds 0.1% of the cheapest forward. Measured in-process because
    // wall-clock A/B diffs between separately compiled binaries drown in
    // code-layout noise.
    let hook_iters = 200_000u32;
    let hook_ns = {
        let th = Instant::now();
        for _ in 0..hook_iters {
            let t = oppsla_core::telemetry::op_timer(oppsla_core::telemetry::OpKind::Conv);
            black_box(&t);
        }
        th.elapsed().as_nanos() as f64 / f64::from(hook_iters)
    };
    let trace_hook_ns = {
        use oppsla_core::telemetry::trace;
        let th = Instant::now();
        for i in 0..hook_iters {
            trace::tag_route(trace::RouteTag::Delta);
            trace::record_query(trace::QueryInfo {
                phase: "bench",
                seq: u64::from(i),
                pixel: None,
                margin: 0.0,
                pred: 0,
                flip: false,
            });
        }
        th.elapsed().as_nanos() as f64 / f64::from(hook_iters)
    };
    eprintln!(
        "disarmed hooks: op timer ~{hook_ns:.1} ns, trace query record ~{trace_hook_ns:.1} ns"
    );

    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"forward_pass\",\n");
    json.push_str(&format!("  \"iters\": {iters},\n"));
    json.push_str(&format!("  \"batch\": {batch},\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"simd_isa\": \"{simd_isa}\",\n"));
    json.push_str(&format!("  \"telemetry_hook_ns_per_op\": {hook_ns:.1},\n"));
    json.push_str(&format!(
        "  \"trace_hook_ns_per_op\": {trace_hook_ns:.1},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            concat!(
                "    {{\"arch\": \"{}\", \"input\": \"{}\", ",
                "\"tape_ns_per_query\": {:.1}, \"engine_ns_per_query\": {:.1}, ",
                "\"engine_speedup\": {:.3}, \"sequential_queries_per_sec\": {:.1}, ",
                "\"parallel_queries_per_sec\": {:.1}}}{}\n"
            ),
            row.arch,
            row.input,
            row.tape_ns,
            row.engine_ns,
            row.speedup(),
            row.sequential_qps,
            row.parallel_qps,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");

    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("report written to {out_path}"),
        Err(e) => {
            eprintln!("warning: could not write {out_path}: {e}");
            println!("{json}");
        }
    }

    // Companion report: the incremental pixel-delta engine against the
    // full compiled forward, same flat hand-rolled schema.
    let mut inc = String::from("{\n");
    inc.push_str("  \"benchmark\": \"incremental_pixel_delta\",\n");
    inc.push_str(&format!("  \"iters\": {iters},\n"));
    inc.push_str(&format!("  \"simd_isa\": \"{simd_isa}\",\n"));
    inc.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        inc.push_str(&format!(
            concat!(
                "    {{\"arch\": \"{}\", \"input\": \"{}\", ",
                "\"full_ns_per_query\": {:.1}, \"incremental_ns_per_query\": {:.1}, ",
                "\"incremental_speedup\": {:.3}}}{}\n"
            ),
            row.arch,
            row.input,
            row.engine_ns,
            row.incremental_ns,
            row.incremental_speedup(),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    inc.push_str("  ]\n}\n");

    match std::fs::write(&inc_out_path, &inc) {
        Ok(()) => println!("report written to {inc_out_path}"),
        Err(e) => {
            eprintln!("warning: could not write {inc_out_path}: {e}");
            println!("{inc}");
        }
    }

    // Companion report: batched candidate inference (layer-major sweeps
    // over shared base activations) against the sequential delta path,
    // same flat hand-rolled schema.
    let mut bat = String::from("{\n");
    bat.push_str("  \"benchmark\": \"batched_inference\",\n");
    bat.push_str(&format!("  \"iters\": {iters},\n"));
    bat.push_str(&format!("  \"batch_k\": {batch_k},\n"));
    bat.push_str(&format!("  \"simd_isa\": \"{simd_isa}\",\n"));
    bat.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        bat.push_str(&format!(
            concat!(
                "    {{\"arch\": \"{}\", \"input\": \"{}\", ",
                "\"sequential_delta_ns_per_candidate\": {:.1}, ",
                "\"batched_delta_ns_per_candidate\": {:.1}, ",
                "\"batched_candidates_per_sec\": {:.1}, ",
                "\"batched_speedup\": {:.3}}}{}\n"
            ),
            row.arch,
            row.input,
            row.incremental_ns,
            row.batched_delta_ns,
            1e9 / row.batched_delta_ns,
            row.batched_speedup(),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    bat.push_str("  ]\n}\n");

    match std::fs::write(&batched_out_path, &bat) {
        Ok(()) => println!("report written to {batched_out_path}"),
        Err(e) => {
            eprintln!("warning: could not write {batched_out_path}: {e}");
            println!("{bat}");
        }
    }
}
