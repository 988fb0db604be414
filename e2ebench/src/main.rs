//! End-to-end benchmark of the attack, synthesis and serving paths.
//!
//! ```text
//! e2ebench --workload <attack_vgg|synth_mlp|serve_mlp|serve_vgg|all>
//!          --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload runs in its own process (`all` starts one child per
//! workload) through the library's public entry points. An untimed child
//! process first fills the weight cache under the build's target directory
//! (`$CARGO_TARGET_DIR`, default `target`). Set-up is then timed several
//! times and reported as the median. The measured phase runs whole passes
//! over the workload's items, so every run covers the same item mix,
//! until `--seconds` of passes the hypervisor did not steal from were
//! measured (or 1.25 times that in all). Timings come from those undisturbed
//! passes, as medians (of each item's time in-process, of pass rates when
//! serving), so host noise moves a pass, not the run.
//!
//! Each workload process runs on one CPU (`host::pin_to_one_cpu`). With
//! two vCPUs, a serving closed loop spends most of a job waking threads on
//! the other vCPU, and the hypervisor's wake-up latency swung pass rates
//! 3x within a run; on one CPU every handoff is a context switch, the run
//! is CPU-bound, and pass rates held within ±10%.
//!
//! Every end-to-end timing is reported at a nominal host speed. A shared
//! host's speed drifts by up to 2x within minutes without any steal (a
//! busy sibling hyperthread, a lower clock), and that moves every timing
//! of a run together. So the benchmark times a fixed reference kernel of
//! its own (`host::Reference`, chosen per workload) beside the program:
//! after every item in-process, and at every pass boundary when serving,
//! where all clients have drained and the daemon is idle. A run's timings
//! are divided by how much slower than nominal the reference ran over its
//! timed passes (rates multiplied). No change to the program moves the
//! reference; a slower program still reads slower. Per-layer timings are
//! as measured, with the host's slowdown printed beside them
//! (`host.slowdown`).
//!
//! Inputs: each workload attacks a fixed image pool from
//! `attack_test_set`, screened to the images the model classifies
//! correctly. The seed draws the order of the items and the per-job seeds
//! of served jobs. Quality figures (`avg_queries`, `success_rate`) are
//! therefore a property of the system alone. A seed-drawn pool would move
//! them by more than any bound: one-pixel attacks succeed on one image in
//! six to twelve here, and a run holds a few dozen distinct images.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the same
//! plain phase, then a traced phase that measures each layer from outside
//! (a forwarding classifier decorator, client-side protocol timing, and
//! the daemon's own metrics snapshot), and prints the per-layer metrics
//! plus the tracing overhead. Spans are kept in memory and written to
//! `<target>/e2ebench/` when the run ends.
//!
//! Every item's output is checked outside the timed phase; the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

use oppsla_attacks::{Attack, AttackOutcome, SketchProgramAttack};
use oppsla_core::dsl::{parse_program, GrammarConfig, Program};
use oppsla_core::image::Image;
use oppsla_core::oracle::{BatchClassifier, Classifier, Oracle};
use oppsla_core::pair::{Location, Pixel};
use oppsla_core::synth::{synthesize_parallel, Labeled, SynthConfig, SynthReport};
use oppsla_e2ebench::host::{self, peak_rss_mib, HostSample, Reference};
use oppsla_e2ebench::route::{derive_oracle, RouteStats, RouteTotals, Traced, TracedSession};
use oppsla_e2ebench::{
    median, percentile, ratio, tail_percentile, END_TO_END, PER_LAYER, WORKLOADS,
};
use oppsla_eval::zoo::{attack_test_set, train_or_load, Scale, ZooClassifier, ZooConfig};
use oppsla_nn::models::Arch;
use oppsla_server::protocol::{
    read_frame, write_frame, ImageSpec, InlineImage, JobOutcome, JobRequest, Request, Response,
};
use oppsla_server::server::{Server, ServerConfig};
use oppsla_server::session::digest_query_log;
use oppsla_server::zoo::ModelShard;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Set-ups timed per run, `setup_s` being their median: at least the
/// minimum, then more until two seconds of set-up were measured.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MAX_REPEATS: usize = 25;
const SETUP_MIN_SECONDS: f64 = 2.0;
/// Every workload attacks 32×32 images (the paper's CIFAR scale).
const SCALE: Scale = Scale::Cifar;
/// A pass is undisturbed when the hypervisor stole at most this share of
/// the machine's CPU time during it. Timings come from undisturbed passes
/// (the least disturbed third when none was): on a shared host, steal
/// bursts halve the serving throughput for as long as they last.
const MAX_STEAL_SHARE: f64 = 0.05;
/// A phase ends at the first pass boundary after `--seconds` of
/// undisturbed passes, or after this many times `--seconds` in all.
const MAX_PHASE_FACTOR: f64 = 1.25;

/// `attack_vgg`: fig3's test-set seed (its default `--seed 0` + 999).
const ATTACK_POOL_SEED: u64 = 999;
const ATTACK_POOL_PER_CLASS: usize = 6;
const ATTACK_BUDGET: u64 = 1000;
/// The reference attack timings are read against (see [`Reference`]).
const ATTACK_REFERENCE: Reference = Reference::MatMul;

/// `synth_mlp`: fig3's synthesis training set (`--seed 0` + 10,
/// `--synth-train 3`) and per-class seeds (`--seed 0` + class).
const SYNTH_TRAIN_SEED: u64 = 10;
const SYNTH_TRAIN_PER_CLASS: usize = 3;
const SYNTH_ITERATIONS: usize = 10;
const SYNTH_CAP: u64 = 1500;
/// The reference synthesis timings are read against (see [`Reference`]).
const SYNTH_REFERENCE: Reference = Reference::MatMulMatVec;

/// `serve_*`: two closed-loop clients, one connection each.
const SERVE_POOL_SEED: u64 = 999;
const SERVE_POOL_PER_CLASS: usize = 4;
const SERVE_BUDGET: u64 = 600;
const SERVE_CLIENTS: usize = 2;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {} or all)",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--prime") {
        return prime(argv.get(2).map_or("", String::as_str));
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.workload == "all" {
        return run_all(&opts);
    }
    // Before any thread starts, so that every thread inherits it.
    let cpu = host::pin_to_one_cpu();
    let result = match opts.workload.as_str() {
        "attack_vgg" => run_attack(&opts),
        "synth_mlp" => run_synth(&opts),
        "serve_mlp" => run_serve(&opts, Arch::Mlp),
        "serve_vgg" => run_serve(&opts, Arch::VggSmall),
        _ => unreachable!("validated by parse_args"),
    };
    match result {
        Ok(mut report) => {
            report.notes.push(match cpu {
                Some(c) => format!("ran on CPU {c} alone"),
                None => "could not pin to one CPU; ran on all".into(),
            });
            report.print(&opts);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", opts.workload);
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in its own child process, one after another.
fn run_all(opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2ebench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("e2ebench: workload {w} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("e2ebench: cannot start workload {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The build's target directory, inside the checkout.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// The default zoo configuration with its weight cache under the build's
/// own target directory, so two checkouts never share weights.
fn zoo_config() -> ZooConfig {
    ZooConfig {
        cache_dir: Some(target_dir().join("oppsla-models")),
        ..ZooConfig::default()
    }
}

fn arch_from_id(id: &str) -> Option<Arch> {
    [Arch::VggSmall, Arch::Mlp]
        .into_iter()
        .find(|a| a.id() == id)
}

/// `--prime <arch>`: trains (first run) or loads the model into the
/// weight cache. Runs as a child process so training memory never counts
/// toward the workload's peak RSS.
fn prime(arch_id: &str) -> ExitCode {
    match arch_from_id(arch_id) {
        Some(arch) => {
            let model = train_or_load(arch, SCALE, &zoo_config());
            eprintln!(
                "e2ebench: {} ready (held-out accuracy {:.3})",
                arch.id(),
                model.test_accuracy
            );
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("e2ebench: --prime needs vgg-small or mlp, got {arch_id:?}");
            ExitCode::from(2)
        }
    }
}

/// The untimed priming step, in a child process.
fn prime_cache(arch: Arch) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let status = std::process::Command::new(exe)
        .args(["--prime", arch.id()])
        .status()
        .map_err(|e| format!("cannot start the priming step: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("priming {} failed: {status}", arch.id()))
    }
}

/// Seconds since `t`.
fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The item order: the pool's indices shuffled by the workload seed.
fn item_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    order
}

/// `attack_test_set` images the classifier gets right (the paper drops
/// the rest before attacking).
fn screened_pool(clf: &dyn BatchClassifier, per_class: usize, seed: u64) -> Vec<Labeled> {
    let session = clf.session();
    attack_test_set(SCALE, per_class, seed)
        .into_iter()
        .filter(|(image, class)| session.classify(image) == *class)
        .collect()
}

/// Reference samples taken after each set-up to put it at nominal speed.
const SETUP_REFERENCE_SAMPLES: usize = 3;
/// Set-up parses and compiles: scalar work, read like serving.
const SETUP_REFERENCE: Reference = Reference::MatMul;
/// Reference samples taken at each serving pass boundary.
const BOUNDARY_REFERENCE_SAMPLES: usize = 10;
/// The reference serving timings are read against (see [`Reference`]).
const SERVE_REFERENCE: Reference = Reference::MatMul;

/// Repeats a set-up whose `once` returns its two timed parts and what it
/// built; keeps the last build. The previous build is dropped before the
/// next set-up starts, outside the timing. Both parts are reported at
/// nominal host speed.
fn repeat_setup<T>(
    mut once: impl FnMut() -> Result<(f64, f64, T), String>,
) -> Result<(Vec<(f64, f64)>, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    loop {
        drop(last.take());
        let (a, b, built) = once()?;
        let samples: Vec<f64> = (0..SETUP_REFERENCE_SAMPLES)
            .map(|_| SETUP_REFERENCE.sample())
            .collect();
        let slow = SETUP_REFERENCE.slowdown(&samples);
        times.push((a / slow, b / slow));
        last = Some(built);
        let spent: f64 = times.iter().map(|(a, b)| a + b).sum();
        if times.len() >= SETUP_MAX_REPEATS
            || (times.len() >= SETUP_MIN_REPEATS && spent >= SETUP_MIN_SECONDS)
        {
            return Ok((times, last.expect("one set-up ran")));
        }
    }
}

/// Timed set-up of an in-process workload: `(load_s, compile_s)` per
/// repeat, and the last repeat's classifier.
fn inprocess_setup(arch: Arch) -> Result<(Vec<(f64, f64)>, ZooClassifier), String> {
    repeat_setup(|| {
        let t0 = Instant::now();
        let model = train_or_load(arch, SCALE, &zoo_config());
        let load = secs(t0);
        let t1 = Instant::now();
        let clf = model.classifier();
        Ok((load, secs(t1), clf))
    })
}

/// Pass boundaries of a phase: how much the host stole during each pass,
/// and when the phase has measured enough.
struct PassClock {
    start: Instant,
    last: (f64, HostSample),
    calm_s: f64,
    steal: Vec<f64>,
}

impl PassClock {
    fn new(start: Instant) -> Self {
        PassClock {
            start,
            last: (secs(start), HostSample::now()),
            calm_s: 0.0,
            steal: Vec::new(),
        }
    }

    /// Closes the pass that ends now; true when the phase should stop.
    fn boundary(&mut self, seconds: f64) -> bool {
        let (now, host) = (secs(self.start), HostSample::now());
        let wall = now - self.last.0;
        let share = host.steal_share_since(&self.last.1, wall);
        if share <= MAX_STEAL_SHARE {
            self.calm_s += wall;
        }
        self.steal.push(share);
        self.last = (now, host);
        self.calm_s >= seconds || now >= MAX_PHASE_FACTOR * seconds
    }
}

/// One measured phase: whole passes over the item order until enough
/// undisturbed passes were measured.
struct Phase<T> {
    /// `(pool index, item ms, result)` in item order: pass `k` is
    /// `items[k * pool..(k + 1) * pool]`. Item times are as measured.
    items: Vec<(usize, f64, T)>,
    /// Items per pass.
    pool: usize,
    /// Seconds each complete pass took, reference sampling excluded.
    pass_s: Vec<f64>,
    /// How much slower than nominal the host ran during each complete
    /// pass (see [`Reference::slowdown`]).
    slowdown: Vec<f64>,
    /// Share of the machine's CPU time stolen during each pass.
    steal: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    steal_s: f64,
}

impl<T> Phase<T> {
    /// Steal share of each complete pass.
    fn pass_steal(&self) -> &[f64] {
        &self.steal[..self.pass_s.len().min(self.steal.len())]
    }

    /// The median slowdown of the timed passes, which every timing of the
    /// phase is divided by. One figure for the run: a pass's own reading
    /// varies more from pass to pass than its timings do.
    fn median_slowdown(&self) -> f64 {
        let timed: Vec<f64> = self
            .timed_passes()
            .into_iter()
            .map(|k| self.slowdown[k])
            .collect();
        median(&timed)
    }

    /// The complete passes timings come from: the undisturbed ones, or
    /// the least disturbed third when the host disturbed every pass.
    fn timed_passes(&self) -> Vec<usize> {
        let steal = self.pass_steal();
        let calm: Vec<usize> = (0..steal.len())
            .filter(|&k| steal[k] <= MAX_STEAL_SHARE)
            .collect();
        if !calm.is_empty() {
            return calm;
        }
        let mut least: Vec<usize> = (0..steal.len()).collect();
        least.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
        least.truncate(steal.len().div_ceil(3));
        least.sort_unstable();
        least
    }

    fn pass(&self, k: usize) -> &[(usize, f64, T)] {
        &self.items[k * self.pool..(k + 1) * self.pool]
    }

    /// Item latencies (ms, at nominal speed) of the timed passes that
    /// `keep` accepts.
    fn timed_latencies(&self, keep: impl Fn(&T) -> bool) -> Vec<f64> {
        let slow = self.median_slowdown();
        self.timed_passes()
            .into_iter()
            .flat_map(|k| self.pass(k))
            .filter(|(_, _, r)| keep(r))
            .map(|(_, ms, _)| ms / slow)
            .collect()
    }

    /// Seconds of a pass in which every item takes its median time (at
    /// nominal speed) over the timed passes: for one worker, the pass time
    /// a burst of host noise in one pass does not move.
    fn median_pass_s(&self) -> f64 {
        let mut times: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for k in self.timed_passes() {
            for (i, ms, _) in self.pass(k) {
                times.entry(*i).or_default().push(*ms);
            }
        }
        times.values().map(|t| median(t)).sum::<f64>() / 1e3 / self.median_slowdown()
    }

    /// The median over timed passes of `count(pass items)` per second,
    /// at nominal speed.
    fn pass_rate(&self, count: impl Fn(&[(usize, f64, T)]) -> f64) -> f64 {
        let rates: Vec<f64> = self
            .timed_passes()
            .into_iter()
            .map(|k| ratio(count(self.pass(k)), self.pass_s[k]))
            .collect();
        median(&rates) * self.median_slowdown()
    }

    /// How many complete passes the host left undisturbed and how fast it
    /// ran, for the report.
    fn timed_note(&self) -> String {
        let steal = self.pass_steal();
        let calm = steal.iter().filter(|&&s| s <= MAX_STEAL_SHARE).count();
        let used = if calm == 0 {
            format!(", least disturbed {} timed", steal.len().div_ceil(3))
        } else {
            String::new()
        };
        format!(
            "{calm}/{} passes undisturbed{used}, host slowdown {:.3}",
            self.pass_s.len(),
            self.median_slowdown()
        )
    }
}

/// Whole passes of `run` over `order`, the host read with `reference`
/// after every item.
fn run_passes<T>(
    order: &[usize],
    seconds: f64,
    reference: Reference,
    mut run: impl FnMut(usize) -> T,
) -> Phase<T> {
    let host0 = HostSample::now();
    let start = Instant::now();
    let mut clock = PassClock::new(start);
    let mut items = Vec::new();
    let (mut pass_s, mut slowdown) = (Vec::new(), Vec::new());
    loop {
        let mut item_s = 0.0;
        let mut samples = Vec::with_capacity(order.len());
        for &i in order {
            let t0 = Instant::now();
            let r = run(i);
            let s = secs(t0);
            items.push((i, s * 1e3, r));
            item_s += s;
            samples.push(reference.sample());
        }
        pass_s.push(item_s);
        slowdown.push(reference.slowdown(&samples));
        if clock.boundary(seconds) {
            break;
        }
    }
    let wall_s = secs(start);
    let (cpu_s, steal_s) = HostSample::now().since(&host0);
    Phase {
        items,
        pool: order.len(),
        pass_s,
        slowdown,
        steal: clock.steal,
        wall_s,
        cpu_s,
        steal_s,
    }
}

/// The end-to-end figures of one measured phase.
struct Summary {
    items: usize,
    wall_s: f64,
    items_per_s: f64,
    latencies_ms: Vec<f64>,
    candidates_per_s: f64,
    avg_queries: f64,
    success_rate: f64,
    cpu_s: f64,
    steal_s: f64,
    /// Median host slowdown over the timed passes.
    slowdown: f64,
    /// Undisturbed out of complete passes.
    timed: String,
}

impl Summary {
    fn item_ms_p50(&self) -> f64 {
        median(&self.latencies_ms)
    }
}

/// Everything a run prints.
struct Report {
    workload: &'static str,
    setup_s: f64,
    plain: Summary,
    attempted: usize,
    failed: usize,
    layers: Option<BTreeMap<&'static str, f64>>,
    notes: Vec<String>,
}

impl Report {
    fn e2e_value(&self, name: &str) -> f64 {
        match name {
            "setup_s" => self.setup_s,
            "items_per_s" => self.plain.items_per_s,
            "item_ms_p50" => self.plain.item_ms_p50(),
            "candidates_per_s" => self.plain.candidates_per_s,
            "avg_queries" => self.plain.avg_queries,
            "success_rate" => self.plain.success_rate,
            "peak_rss_mb" => peak_rss_mib().unwrap_or(0.0),
            _ => unreachable!("END_TO_END lists only the names above"),
        }
    }

    fn print(&self, opts: &Opts) {
        let p = &self.plain;
        println!(
            "== {} (seed {}, {} s, trace {}) ==",
            self.workload,
            opts.seed,
            opts.seconds,
            u8::from(opts.trace)
        );
        for (name, unit) in END_TO_END {
            println!("{name:<28} {:>14.4} {unit}", self.e2e_value(name));
            if name == "item_ms_p50" {
                match tail_percentile(p.latencies_ms.len()) {
                    Some(pm) if pm >= 900 => {
                        let v = percentile(&p.latencies_ms, 900).unwrap_or(0.0);
                        println!(
                            "{:<28} {v:>14.4} ms (n={})",
                            "item_ms_p90",
                            p.latencies_ms.len()
                        );
                        if pm > 900 {
                            let v = percentile(&p.latencies_ms, pm).unwrap_or(0.0);
                            let name = format!("item_ms_p{}", pm as f64 / 10.0);
                            println!("{name:<28} {v:>14.4} ms");
                        }
                    }
                    _ => println!(
                        "{:<28} {:>14} ms (n={} < 100 items)",
                        "item_ms_p90",
                        "n/a",
                        p.latencies_ms.len()
                    ),
                }
            }
        }
        println!(
            "{:<28} {:>14.4} ratio ({} of {} attempted)",
            "failed_ratio",
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        println!(
            "{:<28} {:>14} ({} items in {:.2} s, {}; host.cpu_s {:.2}, host.steal_s {:.2})",
            "measured_phase", "", p.items, p.wall_s, p.timed, p.cpu_s, p.steal_s
        );
        if let Some(layers) = &self.layers {
            for (name, unit) in PER_LAYER {
                println!(
                    "{name:<28} {:>14.4} {unit}",
                    layers.get(name).copied().unwrap_or(0.0)
                );
            }
        }
        for note in &self.notes {
            println!("note: {note}");
        }
        let mut metrics = String::new();
        let mut emit = |name: &str, unit: &str, value: f64| {
            let value = if value.is_finite() { value } else { 0.0 };
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        };
        match &self.layers {
            None => {
                for (name, unit) in END_TO_END {
                    emit(name, unit, self.e2e_value(name));
                }
            }
            Some(layers) => {
                for (name, unit) in PER_LAYER {
                    emit(name, unit, layers.get(name).copied().unwrap_or(0.0));
                }
            }
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
    }
}

/// Writes the traced run's spans as JSON lines under the target dir and
/// says where.
fn write_spans(workload: &str, seed: u64, lines: &[String]) -> String {
    let dir = target_dir().join("e2ebench");
    let path = dir.join(format!("spans-{workload}-s{seed}.jsonl"));
    let mut text = lines.join("\n");
    text.push('\n');
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => format!("spans written to {}", path.display()),
        Err(e) => format!("could not write spans to {}: {e}", path.display()),
    }
}

// ---------------------------------------------------------------- attack

/// The failure query counts a sketch attack can end with: the budget, or
/// the exhausted corner space `8·h·w + 1`.
fn is_exhausted_count(queries: u64, budget: u64, image: &Image) -> bool {
    queries == budget || queries == 8 * (image.height() * image.width()) as u64 + 1
}

/// A success must flip the true class when re-classified by a separate
/// session.
fn flips(checker: &dyn Classifier, image: &Image, class: usize, loc: Location, px: Pixel) -> bool {
    checker.classify(&image.with_pixel(loc, px)) != class
}

fn check_attack(outcome: &AttackOutcome, item: &Labeled, checker: &dyn Classifier) -> bool {
    let (image, class) = item;
    match outcome {
        AttackOutcome::Success {
            location, pixel, ..
        } => flips(checker, image, *class, *location, *pixel),
        AttackOutcome::Failure { queries } => is_exhausted_count(*queries, ATTACK_BUDGET, image),
        // Screening keeps only correctly classified images.
        AttackOutcome::AlreadyMisclassified { .. } => false,
    }
}

fn attack_one(session: &dyn Classifier, item: &Labeled) -> AttackOutcome {
    let attack = SketchProgramAttack::new(Program::paper_example());
    let mut oracle = Oracle::with_budget(session, ATTACK_BUDGET);
    // The sketch attack is deterministic; its random source is unused.
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    attack.attack(&mut oracle, &item.0, item.1, &mut rng)
}

/// Counts phase items whose outcome fails its check or differs from
/// `reference` (the first pass of the plain phase).
fn failed_attack_items(
    phase: &Phase<AttackOutcome>,
    reference: &BTreeMap<usize, AttackOutcome>,
    verdict: &BTreeMap<usize, bool>,
) -> usize {
    phase
        .items
        .iter()
        .filter(|(i, _, o)| !verdict[i] || reference.get(i) != Some(o))
        .count()
}

fn attack_summary(phase: &Phase<AttackOutcome>, pool: usize) -> Summary {
    // Quality over the first pass: every pool item exactly once.
    let first = &phase.items[..pool];
    let wins: Vec<u64> = first
        .iter()
        .filter(|(_, _, o)| o.is_success())
        .map(|(_, _, o)| o.queries())
        .collect();
    Summary {
        items: phase.items.len(),
        wall_s: phase.wall_s,
        items_per_s: pool as f64 / phase.median_pass_s(),
        latencies_ms: phase.timed_latencies(|_| true),
        // Every pass spends the first pass's queries (checked per item).
        candidates_per_s: first.iter().map(|(_, _, o)| o.queries()).sum::<u64>() as f64
            / phase.median_pass_s(),
        avg_queries: ratio(wins.iter().sum::<u64>() as f64, wins.len() as f64),
        success_rate: ratio(wins.len() as f64, pool as f64),
        cpu_s: phase.cpu_s,
        steal_s: phase.steal_s,
        slowdown: phase.median_slowdown(),
        timed: phase.timed_note(),
    }
}

fn run_attack(opts: &Opts) -> Result<Report, String> {
    let arch = Arch::VggSmall;
    prime_cache(arch)?;
    let (setups, clf) = inprocess_setup(arch)?;
    let pool = screened_pool(&clf, ATTACK_POOL_PER_CLASS, ATTACK_POOL_SEED);
    if pool.is_empty() {
        return Err("screening kept no images".into());
    }
    let order = item_order(pool.len(), opts.seed);

    let session = clf.session();
    let plain = run_passes(&order, opts.seconds, ATTACK_REFERENCE, |i| {
        attack_one(&*session, &pool[i])
    });
    drop(session);

    let checker = clf.session();
    let reference: BTreeMap<usize, AttackOutcome> = plain.items[..pool.len()]
        .iter()
        .map(|(i, _, o)| (*i, o.clone()))
        .collect();
    let verdict: BTreeMap<usize, bool> = reference
        .iter()
        .map(|(i, o)| (*i, check_attack(o, &pool[*i], &*checker)))
        .collect();
    let mut failed = failed_attack_items(&plain, &reference, &verdict);
    let mut attempted = plain.items.len();
    let summary = attack_summary(&plain, pool.len());

    let mut layers = None;
    let mut notes = Vec::new();
    if opts.trace {
        let stats = RouteStats::default();
        let session = TracedSession::new(clf.session(), &stats);
        let traced = run_passes(&order, opts.seconds, ATTACK_REFERENCE, |i| {
            let before = stats.totals();
            let outcome = attack_one(&session, &pool[i]);
            (outcome, stats.totals().since(&before))
        });
        let (outcomes, routes) = split_routes(traced);
        failed += failed_attack_items(&outcomes, &reference, &verdict);
        attempted += outcomes.items.len();
        let traced_summary = attack_summary(&outcomes, pool.len());
        let queries: u64 = outcomes.items.iter().map(|(_, _, o)| o.queries()).sum();
        let m = inprocess_layers(
            &setups,
            &summary,
            &traced_summary,
            &outcomes,
            &stats.totals(),
            queries,
        );
        let lines = item_span_lines("attack_vgg", &outcomes, &routes, |o| {
            (o.queries(), o.is_success())
        });
        notes.push(write_spans("attack_vgg", opts.seed, &lines));
        layers = Some(m);
    }
    Ok(Report {
        workload: "attack_vgg",
        setup_s: median(&setups.iter().map(|(l, c)| l + c).collect::<Vec<_>>()),
        plain: summary,
        attempted,
        failed,
        layers,
        notes,
    })
}

/// Splits a traced phase into its results and each item's route totals.
fn split_routes<T>(phase: Phase<(T, RouteTotals)>) -> (Phase<T>, Vec<RouteTotals>) {
    let (items, per_item) = phase
        .items
        .into_iter()
        .map(|(i, ms, (r, route))| ((i, ms, r), route))
        .unzip();
    (
        Phase {
            items,
            pool: phase.pool,
            pass_s: phase.pass_s,
            slowdown: phase.slowdown,
            steal: phase.steal,
            wall_s: phase.wall_s,
            cpu_s: phase.cpu_s,
            steal_s: phase.steal_s,
        },
        per_item,
    )
}

/// The per-layer figures every in-process workload shares; `r` holds
/// the route totals of the traced `phase`, which counted `queries`.
fn inprocess_layers<T>(
    setups: &[(f64, f64)],
    plain: &Summary,
    traced: &Summary,
    phase: &Phase<T>,
    r: &RouteTotals,
    queries: u64,
) -> BTreeMap<&'static str, f64> {
    let ms = |ns: u64| ns as f64 / 1e6;
    let item_ms: f64 = phase.items.iter().map(|(_, ms, _)| ms).sum();
    let nn_ms = ms(r.nn_ns());
    let core_ms = item_ms - nn_ms;
    let mut m = BTreeMap::new();
    m.insert(
        "zoo.load_s",
        median(&setups.iter().map(|s| s.0).collect::<Vec<_>>()),
    );
    m.insert(
        "zoo.compile_s",
        median(&setups.iter().map(|s| s.1).collect::<Vec<_>>()),
    );
    m.insert("nn.full.calls", r.full_calls as f64);
    m.insert("nn.full.ms", ms(r.full_ns));
    m.insert("nn.delta_seq.cands", r.delta_seq_cands as f64);
    m.insert("nn.delta_seq.ms", ms(r.delta_seq_ns));
    m.insert(
        "nn.delta_seq.us_per_cand",
        ratio(r.delta_seq_ns as f64 / 1e3, r.delta_seq_cands as f64),
    );
    m.insert("nn.delta_batch.calls", r.delta_batch_calls as f64);
    m.insert("nn.delta_batch.cands", r.delta_batch_cands as f64);
    m.insert("nn.delta_batch.ms", ms(r.delta_batch_ns));
    m.insert(
        "nn.delta_batch.us_per_cand",
        ratio(r.delta_batch_ns as f64 / 1e3, r.delta_batch_cands as f64),
    );
    m.insert("nn.busy_share", ratio(nn_ms, item_ms));
    m.insert("core.self_ms", core_ms);
    m.insert(
        "core.self_us_per_query",
        ratio(core_ms * 1e3, queries as f64),
    );
    m.insert("host.cpu_s", phase.cpu_s);
    m.insert("host.steal_s", phase.steal_s);
    m.insert("host.slowdown", plain.slowdown);
    m.insert(
        "trace.overhead",
        ratio(plain.items_per_s, traced.items_per_s),
    );
    m.insert("trace.item_share", ratio(item_ms, phase.wall_s * 1e3));
    let fig = derive_oracle(queries, r);
    m.insert("oracle.queries", queries as f64);
    m.insert("oracle.batch_coverage", fig.batch_coverage);
    m.insert("oracle.spec_waste", fig.spec_waste);
    m
}

/// One JSON line per item: workload → item → per-route totals.
fn item_span_lines<T>(
    workload: &str,
    phase: &Phase<T>,
    routes: &[RouteTotals],
    outcome: impl Fn(&T) -> (u64, bool),
) -> Vec<String> {
    let mut lines = vec![format!(
        "{{\"span\": \"workload\", \"workload\": \"{workload}\", \"wall_s\": {}, \"items\": {}}}",
        phase.wall_s,
        phase.items.len()
    )];
    for (k, ((pool, ms, r), route)) in phase.items.iter().zip(routes).enumerate() {
        let (queries, success) = outcome(r);
        lines.push(format!(
            "{{\"span\": \"item\", \"parent\": \"{workload}\", \"item\": {k}, \"pool\": {pool}, \
             \"ms\": {ms}, \"queries\": {queries}, \"success\": {success}, \
             \"full_calls\": {}, \"full_ns\": {}, \"delta_seq_cands\": {}, \"delta_seq_ns\": {}, \
             \"delta_batch_calls\": {}, \"delta_batch_cands\": {}, \"delta_batch_ns\": {}}}",
            route.full_calls,
            route.full_ns,
            route.delta_seq_cands,
            route.delta_seq_ns,
            route.delta_batch_calls,
            route.delta_batch_cands,
            route.delta_batch_ns
        ));
    }
    lines
}

// ----------------------------------------------------------------- synth

/// What the benchmark keeps of one class's synthesis run.
#[derive(Debug, Clone, PartialEq)]
struct SynthItem {
    program: String,
    total_queries: u64,
    /// Mean queries of the final program over the images it attacks.
    final_avg: f64,
    final_successes: usize,
    /// Images the run searched over (after the prefilter).
    kept: usize,
    programs: usize,
    accepted: usize,
    prefilter_queries: u64,
    /// The report passed its output checks.
    ok: bool,
}

fn synth_item(report: &SynthReport, train_len: usize) -> SynthItem {
    let final_eval = report
        .iterations
        .iter()
        .rev()
        .find(|it| it.accepted)
        .map_or(&report.initial, |it| &it.evaluation);
    let eval_queries: u64 = report.initial.queries_spent
        + report
            .iterations
            .iter()
            .map(|it| it.evaluation.queries_spent)
            .sum::<u64>();
    // Per-iteration cumulative queries must step by each evaluation, so
    // the last one is the total; what precedes the initial evaluation is
    // the prefilter's share.
    let prefilter_queries = report.total_queries.checked_sub(eval_queries);
    let mut ok = prefilter_queries.is_some();
    let mut cumulative = prefilter_queries.unwrap_or(0) + report.initial.queries_spent;
    for it in &report.iterations {
        cumulative += it.evaluation.queries_spent;
        ok &= it.cumulative_queries == cumulative;
    }
    let printed = report.program.to_string();
    ok &= parse_program(&printed).is_ok_and(|p| p == report.program);
    SynthItem {
        program: printed,
        total_queries: report.total_queries,
        final_avg: final_eval.avg_queries,
        final_successes: final_eval.successes,
        kept: train_len - report.prefiltered,
        programs: 1 + report.iterations.len(),
        accepted: report.iterations.iter().filter(|it| it.accepted).count(),
        prefilter_queries: prefilter_queries.unwrap_or(0),
        ok,
    }
}

fn synth_config(class: usize) -> SynthConfig {
    SynthConfig {
        max_iterations: SYNTH_ITERATIONS,
        beta: 0.01,
        seed: class as u64,
        per_image_budget: Some(SYNTH_CAP),
        prefilter: true,
        grammar: GrammarConfig::paper(),
        threads: 1,
    }
}

fn synth_summary(phase: &Phase<SynthItem>, classes: usize) -> Summary {
    let first = &phase.items[..classes];
    let finite: Vec<f64> = first
        .iter()
        .map(|(_, _, s)| s.final_avg)
        .filter(|q| q.is_finite())
        .collect();
    let successes: usize = first.iter().map(|(_, _, s)| s.final_successes).sum();
    let kept: usize = first.iter().map(|(_, _, s)| s.kept).sum();
    Summary {
        items: phase.items.len(),
        wall_s: phase.wall_s,
        items_per_s: classes as f64 / phase.median_pass_s(),
        latencies_ms: phase.timed_latencies(|_| true),
        // Every pass spends the first pass's queries (checked per item).
        candidates_per_s: first.iter().map(|(_, _, s)| s.total_queries).sum::<u64>() as f64
            / phase.median_pass_s(),
        avg_queries: ratio(finite.iter().sum(), finite.len() as f64),
        success_rate: ratio(successes as f64, kept as f64),
        cpu_s: phase.cpu_s,
        steal_s: phase.steal_s,
        slowdown: phase.median_slowdown(),
        timed: phase.timed_note(),
    }
}

fn failed_synth_items(phase: &Phase<SynthItem>, reference: &BTreeMap<usize, SynthItem>) -> usize {
    phase
        .items
        .iter()
        .filter(|(c, _, s)| !s.ok || reference.get(c) != Some(s))
        .count()
}

fn run_synth(opts: &Opts) -> Result<Report, String> {
    let arch = Arch::Mlp;
    prime_cache(arch)?;
    let (setups, clf) = inprocess_setup(arch)?;
    let train = screened_pool(&clf, SYNTH_TRAIN_PER_CLASS, SYNTH_TRAIN_SEED);
    // One item per class with training images, exactly the classes
    // `synthesize_suite_parallel` runs the synthesizer on.
    let slices: BTreeMap<usize, Vec<Labeled>> = (0..clf.num_classes())
        .map(|c| (c, train.iter().filter(|(_, l)| *l == c).cloned().collect()))
        .filter(|(_, v): &(usize, Vec<Labeled>)| !v.is_empty())
        .collect();
    let classes: Vec<usize> = slices.keys().copied().collect();
    if classes.is_empty() {
        return Err("screening kept no training images".into());
    }
    let order: Vec<usize> = item_order(classes.len(), opts.seed)
        .into_iter()
        .map(|k| classes[k])
        .collect();
    let run = |clf: &dyn BatchClassifier, class: usize| {
        let slice = &slices[&class];
        synth_item(
            &synthesize_parallel(clf, slice, &synth_config(class)),
            slice.len(),
        )
    };

    let plain = run_passes(&order, opts.seconds, SYNTH_REFERENCE, |c| run(&clf, c));
    let reference: BTreeMap<usize, SynthItem> = plain.items[..classes.len()]
        .iter()
        .map(|(c, _, s)| (*c, s.clone()))
        .collect();
    let mut failed = failed_synth_items(&plain, &reference);
    let mut attempted = plain.items.len();
    let summary = synth_summary(&plain, classes.len());

    let mut layers = None;
    let mut notes = Vec::new();
    if opts.trace {
        let stats = RouteStats::default();
        let traced_clf = Traced::new(&clf, &stats);
        let traced = run_passes(&order, opts.seconds, SYNTH_REFERENCE, |c| {
            let before = stats.totals();
            let item = run(&traced_clf, c);
            (item, stats.totals().since(&before))
        });
        let (items, routes) = split_routes(traced);
        failed += failed_synth_items(&items, &reference);
        attempted += items.items.len();
        let traced_summary = synth_summary(&items, classes.len());
        let queries: u64 = items.items.iter().map(|(_, _, s)| s.total_queries).sum();
        let mut m = inprocess_layers(
            &setups,
            &summary,
            &traced_summary,
            &items,
            &stats.totals(),
            queries,
        );
        let sum = |f: fn(&SynthItem) -> f64| items.items.iter().map(|(_, _, s)| f(s)).sum::<f64>();
        m.insert("synth.programs", sum(|s| s.programs as f64));
        m.insert(
            "synth.accept_ratio",
            ratio(sum(|s| s.accepted as f64), sum(|s| (s.programs - 1) as f64)),
        );
        m.insert(
            "synth.prefilter_query_share",
            ratio(sum(|s| s.prefilter_queries as f64), queries as f64),
        );
        let lines = item_span_lines("synth_mlp", &items, &routes, |s| {
            (s.total_queries, s.final_successes > 0)
        });
        notes.push(write_spans("synth_mlp", opts.seed, &lines));
        layers = Some(m);
    }
    Ok(Report {
        workload: "synth_mlp",
        setup_s: median(&setups.iter().map(|(l, c)| l + c).collect::<Vec<_>>()),
        plain: summary,
        attempted,
        failed,
        layers,
        notes,
    })
}

// ----------------------------------------------------------------- serve

/// One served job as the client saw it.
struct JobRecord {
    job: usize,
    pool: usize,
    /// Seconds from the phase start to the parsed reply.
    done_s: f64,
    latency_ms: f64,
    request_bytes: usize,
    encode_us: f64,
    wait_us: f64,
    decode_us: f64,
    reply: Result<JobOutcome, String>,
}

/// The state the clients of a closed-loop phase share. Job `j` attacks
/// pool item `order[j % n]`; pass `k` holds jobs `k * n..(k + 1) * n`.
/// Clients take jobs of the current pass only, then meet at a boundary.
struct LoopState {
    /// The next job number to hand out.
    next: usize,
    /// Jobs below this number belong to passes already opened.
    pass_limit: usize,
    /// A client lost its connection; no more jobs are handed out.
    broken: bool,
    stop: bool,
    clock: PassClock,
    /// Seconds from the phase start to the start of each opened pass.
    pass_starts: Vec<f64>,
    /// Host slowdown read at each boundary, the phase start included.
    boundary_slowdown: Vec<f64>,
}

/// What the clients of one closed-loop phase share.
struct ClosedLoop<'a> {
    requests: &'a [JobRequest],
    order: &'a [usize],
    seed: u64,
    seconds: f64,
    start: Instant,
    state: Mutex<LoopState>,
    /// The clients meet here at every pass boundary.
    sync: Barrier,
}

impl ClosedLoop<'_> {
    fn state(&self) -> std::sync::MutexGuard<'_, LoopState> {
        self.state
            .lock()
            .expect("loop state lock poisoned by a client panic")
    }

    fn next_job(&self) -> Option<usize> {
        let mut s = self.state();
        if s.broken || s.next >= s.pass_limit {
            return None;
        }
        s.next += 1;
        Some(s.next - 1)
    }

    /// A pass boundary, which every client reaches with nothing in flight.
    /// One client reads the host's speed while the others wait and the
    /// daemon is idle, so the reading sees the host and not the program;
    /// it then closes the pass and opens the next one or stops the phase.
    /// True when the phase goes on.
    fn boundary(&self) -> bool {
        if self.sync.wait().is_leader() {
            let samples: Vec<f64> = (0..BOUNDARY_REFERENCE_SAMPLES)
                .map(|_| SERVE_REFERENCE.sample())
                .collect();
            let mut s = self.state();
            s.boundary_slowdown.push(SERVE_REFERENCE.slowdown(&samples));
            if !s.pass_starts.is_empty() {
                let broken = s.broken;
                s.stop = broken || s.clock.boundary(self.seconds);
            }
            if !s.stop {
                let now = secs(self.start);
                s.pass_starts.push(now);
                s.pass_limit += self.order.len();
            }
        }
        self.sync.wait();
        !self.state().stop
    }
}

/// The per-job seed: a fixed mix of the workload seed and the job number.
fn job_seed(seed: u64, job: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ job as u64
}

/// One job over `stream`: request written, reply read and parsed.
fn exchange(stream: &mut TcpStream, shared: &ClosedLoop<'_>, j: usize) -> JobRecord {
    let pool = shared.order[j % shared.order.len()];
    let mut job = shared.requests[pool].clone();
    job.seed = job_seed(shared.seed, j);
    let t0 = Instant::now();
    let json = serde_json::to_string(&Request::Attack(job))
        .expect("a job of finite pixel values serializes");
    let t1 = Instant::now();
    let sent = write_frame(stream, &json);
    let frame = sent
        .map_err(|e| format!("send: {e}"))
        .and_then(|()| read_frame(stream).map_err(|e| format!("receive: {e}")));
    let t2 = Instant::now();
    let reply = match frame {
        Ok(Some(text)) => match serde_json::from_str::<Response>(&text) {
            Ok(Response::Done(outcome)) => Ok(outcome),
            Ok(other) => Err(format!("job refused: {other:?}")),
            Err(e) => Err(format!("bad reply: {e}")),
        },
        Ok(None) => Err("server closed the connection".into()),
        Err(e) => Err(e),
    };
    let t3 = Instant::now();
    JobRecord {
        job: j,
        pool,
        done_s: (t3 - shared.start).as_secs_f64(),
        latency_ms: (t3 - t1).as_secs_f64() * 1e3,
        request_bytes: json.len(),
        encode_us: (t1 - t0).as_secs_f64() * 1e6,
        wait_us: (t2 - t1).as_secs_f64() * 1e6,
        decode_us: (t3 - t2).as_secs_f64() * 1e6,
        reply,
    }
}

fn client(addr: SocketAddr, shared: &ClosedLoop<'_>) -> Vec<JobRecord> {
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => {
            s.set_nodelay(true).ok();
            Some(s)
        }
        Err(e) => {
            eprintln!("e2ebench: client cannot connect: {e}");
            shared.state().broken = true;
            None
        }
    };
    let mut records = Vec::new();
    // A client that lost its connection still meets the others at every
    // boundary, so none waits for it; the next boundary stops the phase.
    while shared.boundary() {
        while let Some(j) = stream.as_ref().and_then(|_| shared.next_job()) {
            let record = exchange(stream.as_mut().expect("checked above"), shared, j);
            let broken = record.reply.is_err();
            records.push(record);
            if broken {
                // The connection state is unknown after a failed exchange.
                stream = None;
                shared.state().broken = true;
            }
        }
    }
    records
}

/// A closed-loop phase: `SERVE_CLIENTS` clients, whole passes until the
/// pass clock stops the phase at a boundary.
fn serve_phase(
    addr: SocketAddr,
    requests: &[JobRequest],
    order: &[usize],
    seed: u64,
    seconds: f64,
) -> Phase<JobRecord> {
    let host0 = HostSample::now();
    let start = Instant::now();
    let shared = ClosedLoop {
        requests,
        order,
        seed,
        seconds,
        start,
        state: Mutex::new(LoopState {
            next: 0,
            pass_limit: 0,
            broken: false,
            stop: false,
            clock: PassClock::new(start),
            pass_starts: Vec::new(),
            boundary_slowdown: Vec::new(),
        }),
        sync: Barrier::new(SERVE_CLIENTS),
    };
    let mut records: Vec<JobRecord> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SERVE_CLIENTS)
            .map(|_| scope.spawn(|| client(addr, &shared)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = secs(start);
    let (cpu_s, steal_s) = HostSample::now().since(&host0);
    let state = shared
        .state
        .into_inner()
        .expect("loop state lock poisoned by a client panic");
    records.sort_by_key(|r| r.job);
    // A pass ends when its last job's reply is parsed; a pass with a
    // missing job (a client gave up) and everything after it has no end.
    // A pass runs at the mean of the slowdowns read at its two boundaries.
    let pool = order.len();
    let (mut pass_s, mut slowdown) = (Vec::new(), Vec::new());
    for (k, pass) in records.chunks(pool).enumerate() {
        if pass.len() < pool || pass.iter().any(|r| r.job / pool != k) {
            break;
        }
        let (Some(&begin), Some(&[before, after])) = (
            state.pass_starts.get(k),
            state.boundary_slowdown.get(k..k + 2),
        ) else {
            break;
        };
        let end = pass.iter().map(|r| r.done_s).fold(begin, f64::max);
        pass_s.push(end - begin);
        slowdown.push((before + after) / 2.0);
    }
    Phase {
        items: records
            .into_iter()
            .map(|r| (r.pool, r.latency_ms, r))
            .collect(),
        pool,
        pass_s,
        slowdown,
        steal: state.clock.steal,
        wall_s,
        cpu_s,
        steal_s,
    }
}

/// The checks a served outcome must pass, independent of other jobs.
fn check_served(outcome: &JobOutcome, item: &Labeled, checker: &dyn Classifier) -> bool {
    let (image, class) = item;
    if outcome.log_len != outcome.queries || outcome.queries > SERVE_BUDGET {
        return false;
    }
    match outcome.status.as_str() {
        "success" => match (outcome.location, outcome.pixel) {
            (Some([row, col]), Some(rgb)) => match (u16::try_from(row), u16::try_from(col)) {
                (Ok(r), Ok(c)) => flips(checker, image, *class, Location::new(r, c), Pixel(rgb)),
                _ => false,
            },
            _ => false,
        },
        "failure" => is_exhausted_count(outcome.queries, SERVE_BUDGET, image),
        _ => false,
    }
}

/// Served outcomes keyed by pool item: the first served reply per item
/// (the job's own seed never changes the sketch's result).
fn served_reference(phase: &Phase<JobRecord>) -> BTreeMap<usize, JobOutcome> {
    let mut reference = BTreeMap::new();
    for (pool, _, r) in &phase.items {
        if let Ok(o) = &r.reply {
            reference.entry(*pool).or_insert_with(|| o.clone());
        }
    }
    reference
}

fn failed_served(
    phase: &Phase<JobRecord>,
    reference: &BTreeMap<usize, JobOutcome>,
    verdict: &BTreeMap<usize, bool>,
) -> usize {
    phase
        .items
        .iter()
        .filter(|(pool, _, r)| match &r.reply {
            Ok(o) => !verdict.get(pool).copied().unwrap_or(false) || reference.get(pool) != Some(o),
            Err(_) => true,
        })
        .count()
}

/// Counted queries of each job in `pass` that completed.
fn served_queries(pass: &[(usize, f64, JobRecord)]) -> impl Iterator<Item = u64> + '_ {
    pass.iter()
        .filter_map(|(_, _, r)| r.reply.as_ref().ok())
        .map(|o| o.queries)
}

fn serve_summary(phase: &Phase<JobRecord>, reference: &BTreeMap<usize, JobOutcome>) -> Summary {
    let wins: Vec<u64> = reference
        .values()
        .filter(|o| o.status == "success")
        .map(|o| o.queries)
        .collect();
    Summary {
        items: phase.items.len(),
        wall_s: phase.wall_s,
        items_per_s: phase.pass_rate(|pass| served_queries(pass).count() as f64),
        latencies_ms: phase.timed_latencies(|r| r.reply.is_ok()),
        candidates_per_s: phase.pass_rate(|pass| served_queries(pass).sum::<u64>() as f64),
        avg_queries: ratio(wins.iter().sum::<u64>() as f64, wins.len() as f64),
        success_rate: ratio(wins.len() as f64, reference.len() as f64),
        cpu_s: phase.cpu_s,
        steal_s: phase.steal_s,
        slowdown: phase.median_slowdown(),
        timed: phase.timed_note(),
    }
}

/// The daemon's metrics, each summed over its label sets.
fn daemon_counters(server: &Server) -> BTreeMap<String, f64> {
    let mut sums = BTreeMap::new();
    if let Some(m) = server.metrics() {
        for sample in m.snapshot().metrics {
            let name = sample.key.split('{').next().unwrap_or_default().to_owned();
            *sums.entry(name).or_insert(0.0) += sample.value;
        }
    }
    sums
}

/// One job replayed through an isolated session and oracle, as the load
/// test's baseline runs it: `(ms, queries, log digest)`.
fn isolated_job(shard: &ModelShard, item: &Labeled) -> (f64, u64, String) {
    let t0 = Instant::now();
    let session = shard.classifier.session();
    let mut oracle = Oracle::with_budget(&*session, SERVE_BUDGET);
    oracle.enable_query_log();
    let attack = SketchProgramAttack::new(Program::paper_example());
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let outcome = attack.attack(&mut oracle, &item.0, item.1, &mut rng);
    let digest = digest_query_log(&oracle.take_query_log());
    (secs(t0) * 1e3, outcome.queries(), format!("{digest:016x}"))
}

/// One JSON line per served job: workload → job → encode, wait, decode.
fn job_span_lines(workload: &str, phase: &Phase<JobRecord>) -> Vec<String> {
    let mut lines = vec![format!(
        "{{\"span\": \"workload\", \"workload\": \"{workload}\", \"wall_s\": {}, \"items\": {}}}",
        phase.wall_s,
        phase.items.len()
    )];
    for (pool, _, r) in &phase.items {
        lines.push(format!(
            "{{\"span\": \"job\", \"parent\": \"{workload}\", \"job\": {}, \"pool\": {pool}, \
             \"ms\": {}, \"request_bytes\": {}, \"encode_us\": {}, \"wait_us\": {}, \
             \"decode_us\": {}, \"queries\": {}, \"ok\": {}}}",
            r.job,
            r.latency_ms,
            r.request_bytes,
            r.encode_us,
            r.wait_us,
            r.decode_us,
            r.reply.as_ref().map_or(0, |o| o.queries),
            r.reply.is_ok()
        ));
    }
    lines
}

fn run_serve(opts: &Opts, arch: Arch) -> Result<Report, String> {
    let workload = if arch == Arch::Mlp {
        "serve_mlp"
    } else {
        "serve_vgg"
    };
    prime_cache(arch)?;
    let config = ServerConfig {
        zoo: zoo_config(),
        ..ServerConfig::default()
    };
    let (setups, (server, shard)) = repeat_setup(|| {
        let t0 = Instant::now();
        let server = Server::start(config.clone()).map_err(|e| format!("server start: {e}"))?;
        let start_s = secs(t0);
        let t1 = Instant::now();
        let shard = server.zoo().shard(arch, SCALE);
        Ok((start_s, secs(t1), (server, shard)))
    })?;
    let pool = screened_pool(&*shard.classifier, SERVE_POOL_PER_CLASS, SERVE_POOL_SEED);
    if pool.is_empty() {
        return Err("screening kept no images".into());
    }
    let order = item_order(pool.len(), opts.seed);
    let requests: Vec<JobRequest> = pool
        .iter()
        .map(|(image, class)| JobRequest {
            arch: arch.id().to_owned(),
            scale: SCALE.id().to_owned(),
            image: ImageSpec {
                test_index: None,
                inline: Some(InlineImage {
                    height: image.height() as u64,
                    width: image.width() as u64,
                    data: image.data().to_vec(),
                    true_class: *class as u64,
                }),
            },
            budget: SERVE_BUDGET,
            program: None,
            seed: 0,
        })
        .collect();
    let addr = server.local_addr();

    let plain = serve_phase(addr, &requests, &order, opts.seed, opts.seconds);
    let reference = served_reference(&plain);
    let checker = shard.classifier.session();
    let verdict: BTreeMap<usize, bool> = reference
        .iter()
        .map(|(i, o)| (*i, check_served(o, &pool[*i], &*checker)))
        .collect();
    let mut failed = failed_served(&plain, &reference, &verdict);
    let mut attempted = plain.items.len();
    let summary = serve_summary(&plain, &reference);

    let mut layers = None;
    let mut notes = Vec::new();
    if opts.trace {
        let before = daemon_counters(&server);
        let traced = serve_phase(addr, &requests, &order, opts.seed, opts.seconds);
        let after = daemon_counters(&server);
        let d = |k: &str| after.get(k).unwrap_or(&0.0) - before.get(k).unwrap_or(&0.0);
        failed += failed_served(&traced, &reference, &verdict);
        attempted += traced.items.len();
        let traced_summary = serve_summary(&traced, &reference);

        // Replay each pool item through an isolated session: the served
        // outcome must match it query for query.
        let mut isolated_ms = Vec::with_capacity(pool.len());
        let mut samples = Vec::with_capacity(pool.len());
        for (i, item) in pool.iter().enumerate() {
            let (ms, queries, digest) = isolated_job(&shard, item);
            isolated_ms.push(ms);
            samples.push(SERVE_REFERENCE.sample());
            if reference
                .get(&i)
                .is_some_and(|o| o.queries != queries || o.log_fnv != digest)
            {
                failed += 1;
            }
        }
        // At nominal speed, as the served latency it is compared with.
        let isolated_p50 = median(&isolated_ms) / SERVE_REFERENCE.slowdown(&samples);

        // Route-level figures of the in-process workloads are not visible
        // from a client; zoo timings come from direct calls.
        let (zoo_setups, _) = inprocess_setup(arch)?;
        let ok: Vec<&JobRecord> = traced
            .items
            .iter()
            .map(|(_, _, r)| r)
            .filter(|r| r.reply.is_ok())
            .collect();
        let mean = |f: fn(&JobRecord) -> f64| ratio(ok.iter().map(|r| f(r)).sum(), ok.len() as f64);
        let queries: u64 = ok
            .iter()
            .filter_map(|r| r.reply.as_ref().ok())
            .map(|o| o.queries)
            .sum();
        let item_ms: f64 = ok.iter().map(|r| r.latency_ms).sum();
        let grouped = d("sched_grouped_calls");
        let solo = d("sched_solo_calls");
        let merged = d("sched_merged_submissions");
        let mut m = BTreeMap::new();
        m.insert(
            "zoo.load_s",
            median(&zoo_setups.iter().map(|s| s.0).collect::<Vec<_>>()),
        );
        m.insert(
            "zoo.compile_s",
            median(&zoo_setups.iter().map(|s| s.1).collect::<Vec<_>>()),
        );
        m.insert(
            "server.start_s",
            median(&setups.iter().map(|s| s.0).collect::<Vec<_>>()),
        );
        m.insert(
            "server.shard_s",
            median(&setups.iter().map(|s| s.1).collect::<Vec<_>>()),
        );
        m.insert("oracle.queries", queries as f64);
        m.insert(
            "protocol.request_kb",
            mean(|r| r.request_bytes as f64) / 1024.0,
        );
        m.insert("protocol.encode_us", mean(|r| r.encode_us));
        m.insert("protocol.decode_us", mean(|r| r.decode_us));
        m.insert("scheduler.grouped_calls", grouped);
        m.insert("scheduler.solo_calls", solo);
        m.insert("scheduler.full_calls", d("sched_full_calls"));
        m.insert("scheduler.merged_submissions", merged);
        m.insert("scheduler.merge_depth", ratio(merged - solo, grouped));
        m.insert(
            "scheduler.batch_mean",
            ratio(d("sched_batch_size_sum"), d("sched_batch_size_count")),
        );
        m.insert("scheduler.coalesce_waits", d("sched_coalesce_waits"));
        m.insert("session.lru_hits", d("session_lru_hits"));
        m.insert("session.lru_rebases", d("session_lru_rebases"));
        m.insert("session.lru_colds", d("session_lru_colds"));
        m.insert("server.jobs_waited", d("tenant_jobs_waited"));
        m.insert("server.jobs_rejected", d("jobs_rejected"));
        m.insert("server.isolated_ms_p50", isolated_p50);
        m.insert("server.tax", ratio(summary.item_ms_p50(), isolated_p50));
        m.insert("host.cpu_s", traced.cpu_s);
        m.insert("host.steal_s", traced.steal_s);
        m.insert("host.slowdown", summary.slowdown);
        m.insert(
            "trace.overhead",
            ratio(summary.items_per_s, traced_summary.items_per_s),
        );
        m.insert(
            "trace.item_share",
            ratio(item_ms, traced.wall_s * 1e3 * SERVE_CLIENTS as f64),
        );
        if (d("queries_total") - queries as f64).abs() > 0.5 {
            notes.push(format!(
                "daemon counted {} queries, clients {queries}",
                d("queries_total")
            ));
            failed += 1;
        }
        let lines = job_span_lines(workload, &traced);
        notes.push(write_spans(workload, opts.seed, &lines));
        layers = Some(m);
    }
    drop(checker);
    server.request_shutdown();
    drop(server);
    Ok(Report {
        workload,
        setup_s: median(&setups.iter().map(|(s, z)| s + z).collect::<Vec<_>>()),
        plain: summary,
        attempted,
        failed,
        layers,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(steal: Vec<f64>) -> Phase<()> {
        let passes = steal.len();
        Phase {
            // Two items per pass; pass k's items take k + 1 ms each.
            items: (0..passes)
                .flat_map(|k| [(0, k as f64 + 1.0, ()), (1, k as f64 + 1.0, ())])
                .collect(),
            pool: 2,
            pass_s: vec![1.0; passes],
            slowdown: vec![1.0; passes],
            steal,
            wall_s: passes as f64,
            cpu_s: 0.0,
            steal_s: 0.0,
        }
    }

    #[test]
    fn timings_come_from_undisturbed_passes() {
        let p = phase(vec![0.3, 0.01, 0.2, 0.05]);
        assert_eq!(p.timed_passes(), vec![1, 3]);
        assert_eq!(p.timed_latencies(|()| true), vec![2.0, 2.0, 4.0, 4.0]);
        // Item medians over passes 1 and 3 (nearest rank): 2 ms each.
        assert!((p.median_pass_s() - 0.004).abs() < 1e-12);
        assert_eq!(p.pass_rate(|pass| pass.len() as f64), 2.0);
    }

    #[test]
    fn the_least_disturbed_third_is_timed_when_none_was_undisturbed() {
        let p = phase(vec![0.4, 0.1, 0.3, 0.2, 0.35, 0.5, 0.45]);
        assert_eq!(p.timed_passes(), vec![1, 2, 3]);
        assert_eq!(
            p.timed_note(),
            "0/7 passes undisturbed, least disturbed 3 timed, host slowdown 1.000"
        );
    }

    #[test]
    fn timings_are_put_at_nominal_host_speed() {
        // Items take k + 1 ms in pass k; the host ran 3x, 2x and 1x as
        // slow as nominal. The run's timings divide by the median, 2.
        let mut p = phase(vec![0.0, 0.0, 0.0]);
        p.slowdown = vec![3.0, 2.0, 1.0];
        assert_eq!(p.median_slowdown(), 2.0);
        assert_eq!(
            p.timed_latencies(|()| true),
            vec![0.5, 0.5, 1.0, 1.0, 1.5, 1.5]
        );
        // Item medians over the passes: 2 ms each, 4 ms a pass, 2 ms at
        // nominal speed.
        assert!((p.median_pass_s() - 0.002).abs() < 1e-12);
        // Two items a second in every pass, four at nominal speed.
        assert_eq!(p.pass_rate(|pass| pass.len() as f64), 4.0);
    }
}
