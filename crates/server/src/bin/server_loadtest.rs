//! Multi-tenant load test: boots an in-process daemon, replays synthetic
//! attack traffic against it over real sockets, and emits the
//! `BENCH_server.json` report CI gates with `scripts/bench_gate.sh`.
//!
//! Every job is first run through a *single* isolated session in-process
//! (the machine-independent baseline), then through the daemon under
//! `--tenants` concurrent connections. The report's `server_speedup` is
//! aggregate candidates/sec over the baseline's — the ratio the gate
//! compares, since absolute ns depend on the machine. The run also
//! *asserts determinism*: each served job's query-log digest must equal
//! its isolated baseline digest, or the process exits nonzero.
//!
//! ```text
//! server_loadtest [--tenants 8] [--jobs-per-tenant 2] [--budget 400]
//!                 [--archs mlp,vgg-small] [--scale shapes32]
//!                 [--train-per-class 8] [--epochs 2] [--test-per-class 4]
//!                 [--test-seed 9] [--cache-dir PATH] [--seed 1]
//!                 [--trace SAMPLE_trace.jsonl] [--out BENCH_server.json]
//!                 [--repeat 1] [--no-metrics]
//! ```
//!
//! The daemon admits up to `max(tenants, 16)` concurrent jobs, each on
//! its connection's thread. An unknown flag is a usage error.
//!
//! `--repeat N` measures each phase N times and reports the best
//! throughput of each (the standard best-of-N bench discipline: the
//! max is far less noisy than a single draw, which matters for the
//! tight 5% metrics-overhead gate). Every repeat must reproduce the
//! same job digests — repeats strengthen the determinism check, they
//! never average over nondeterminism.
//!
//! With metrics on (the default) the run finishes by scraping the
//! daemon's own `/metrics` page and cross-checking the scraped
//! `queries_total` / `jobs_done` against the ground-truth counts the
//! harness tallied from job outcomes — any drift exits nonzero. The
//! report's `jobs_fnv` digests every job's `log_fnv` in job order, so
//! two runs (e.g. metrics-on vs metrics-off in CI) can be compared for
//! byte-identical oracle behaviour with a one-line diff.

use oppsla_attacks::{Attack, SketchProgramAttack};
use oppsla_core::dsl::Program;
use oppsla_core::oracle::{BatchClassifier, Oracle};
use oppsla_server::cli::Args;
use oppsla_server::protocol::{
    read_frame, write_frame, ImageSpec, JobOutcome, JobRequest, Request, Response,
};
use oppsla_server::server::{Server, ServerConfig};
use oppsla_server::session::digest_query_log;
use oppsla_server::zoo::ModelShard;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// One `"k":"run"` record of a recorded attack trace (PR 5 format); the
/// load test replays the image sequence as synthetic traffic.
#[derive(Debug, serde::Deserialize)]
#[allow(dead_code)]
struct TraceRun {
    k: String,
    sec: u64,
    rnd: u64,
    lane: u64,
    img: u64,
    sub: u64,
    queries: u64,
    success: bool,
}

/// Image indices replayed from a trace file's run records, or `None`
/// when the file has none / was not given.
fn trace_images(path: Option<&str>) -> Option<Vec<u64>> {
    let path = path?;
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("server_loadtest: cannot read trace {path}: {e}; using round-robin images");
            return None;
        }
    };
    let images: Vec<u64> = text
        .lines()
        .filter(|l| l.contains("\"k\":\"run\""))
        .filter_map(|l| serde_json::from_str::<TraceRun>(l).ok())
        .map(|r| r.img)
        .collect();
    if images.is_empty() {
        eprintln!("server_loadtest: no run records in {path}; using round-robin images");
        None
    } else {
        Some(images)
    }
}

/// The isolated single-session reference: same job, no daemon, no
/// sockets. Returns (queries, query-log digest hex).
fn run_baseline(shard: &ModelShard, job: &JobRequest) -> (u64, String) {
    let index = job
        .image
        .test_index
        .expect("loadtest jobs index the test set") as usize;
    let (image, true_class) = shard.test_set[index].clone();
    let session = shard.classifier.session();
    let mut oracle = Oracle::with_budget(&*session, job.budget);
    oracle.enable_query_log();
    let attack = SketchProgramAttack::new(Program::paper_example());
    let mut rng = ChaCha8Rng::seed_from_u64(job.seed);
    let outcome = attack.attack(&mut oracle, &image, true_class, &mut rng);
    let digest = digest_query_log(&oracle.take_query_log());
    (outcome.queries(), format!("{digest:016x}"))
}

/// Submits one job over an open connection, returning the outcome and
/// the request round-trip latency in seconds.
fn submit(stream: &mut TcpStream, job: &JobRequest) -> (JobOutcome, f64) {
    let json = serde_json::to_string(&Request::Attack(job.clone())).expect("serialize request");
    let t0 = Instant::now();
    write_frame(stream, &json).expect("send job");
    let reply = read_frame(stream)
        .expect("read response")
        .expect("server closed mid-request");
    let latency = t0.elapsed().as_secs_f64();
    match serde_json::from_str::<Response>(&reply).expect("parse response") {
        Response::Done(outcome) => (outcome, latency),
        other => panic!("job rejected: {other:?}"),
    }
}

fn percentile_ms(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * pct).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx] * 1e3
}

/// FNV-1a 64 over `bytes`, continuing from `h` (seed with
/// [`FNV_OFFSET`]).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
fn fnv_mix(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// One HTTP GET against the in-process daemon's `/metrics` listener;
/// returns the body.
fn scrape_metrics(addr: std::net::SocketAddr) -> String {
    use std::io::Read as _;
    let mut stream = TcpStream::connect(addr).expect("connect /metrics");
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: loadtest\r\n\r\n").expect("send scrape");
    let mut page = String::new();
    stream.read_to_string(&mut page).expect("read scrape");
    let body_at = page.find("\r\n\r\n").expect("HTTP header terminator") + 4;
    page.split_off(body_at)
}

/// The value of an unlabelled counter/gauge on a `/metrics` page.
fn scraped_value(page: &str, name: &str) -> u64 {
    page.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} missing from /metrics page:\n{page}"))
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("{name} is not an integer on the /metrics page"))
}

struct TenantLatency {
    tenant: usize,
    p50_ms: f64,
    p99_ms: f64,
}

struct ArchRow {
    arch: String,
    input: String,
    jobs: usize,
    total_queries: u64,
    baseline_cps: f64,
    aggregate_cps: f64,
    p50_ms: f64,
    p99_ms: f64,
    speedup: f64,
    tenant_latency: Vec<TenantLatency>,
}

fn main() {
    let args = Args::parse(&[
        "archs",
        "budget",
        "cache-dir",
        "epochs",
        "jobs-per-tenant",
        "no-metrics",
        "out",
        "repeat",
        "scale",
        "seed",
        "tenants",
        "test-per-class",
        "test-seed",
        "trace",
        "train-per-class",
    ]);
    let tenants = args.get_usize("tenants", 8).max(1);
    let jobs_per_tenant = args.get_usize("jobs-per-tenant", 2).max(1);
    let budget = args.get_u64("budget", 400);
    let archs = args.get_str("archs", "mlp,vgg-small");
    let scale_id = args.get_str("scale", "shapes32");
    let out_path = args.get_str("out", "BENCH_server.json");
    let trace = trace_images(args.get_opt_str("trace"));
    let metrics_on = !args.flag("no-metrics");
    let repeat = args.get_usize("repeat", 1).max(1);

    let mut zoo_cfg = oppsla_eval::zoo::ZooConfig {
        train_per_class: args.get_usize("train-per-class", 8),
        epochs: Some(args.get_usize("epochs", 2)),
        learning_rate: 2e-3,
        seed: args.get_u64("seed", 1),
        cache_dir: args.get_opt_str("cache-dir").map(std::path::PathBuf::from),
    };
    if args.get_usize("epochs", 2) == 0 {
        zoo_cfg.epochs = None;
    }

    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        zoo: zoo_cfg,
        test_per_class: args.get_usize("test-per-class", 4),
        test_seed: args.get_u64("test-seed", 9),
        max_active_jobs: tenants.max(16),
        max_waiting_jobs: 4 * tenants.max(16),
        metrics: metrics_on,
        metrics_addr: metrics_on.then(|| "127.0.0.1:0".into()),
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    let zoo = server.zoo();
    let scale = oppsla_server::protocol::parse_scale(&scale_id).expect("--scale");

    let mut rows: Vec<ArchRow> = Vec::new();
    let mut determinism_ok = true;
    // Rolling digest over every served job's `log_fnv`, in job order:
    // the one-line witness the CI metrics A/B leg diffs.
    let mut jobs_fnv = FNV_OFFSET;
    // Ground truth for the /metrics cross-check: every job the daemon
    // actually served, across all repeats (the daemon's counters do not
    // know which repeat was the fastest).
    let mut ground_jobs: u64 = 0;
    let mut ground_queries: u64 = 0;

    for arch_id in archs.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let arch = oppsla_server::protocol::parse_arch(arch_id).expect("--archs");
        let shard = zoo.shard(arch, scale); // train before timing anything
        let spec = scale.input_spec();
        let input = format!("{}x{}x{}", spec.channels, spec.height, spec.width);

        // Job list: tenants × jobs_per_tenant, images replayed from the
        // trace when given, round-robin over the test set otherwise.
        let total_jobs = tenants * jobs_per_tenant;
        let jobs: Vec<JobRequest> = (0..total_jobs)
            .map(|j| {
                let img = match &trace {
                    Some(images) => images[j % images.len()],
                    None => j as u64,
                } % shard.test_set.len() as u64;
                JobRequest {
                    arch: arch_id.to_owned(),
                    scale: scale_id.clone(),
                    image: ImageSpec {
                        test_index: Some(img),
                        inline: None,
                    },
                    budget,
                    program: None,
                    seed: 1000 + j as u64,
                }
            })
            .collect();

        // Phase 1: isolated single-session baseline, sequential. With
        // --repeat N the timing keeps the best pass (the contents are
        // deterministic, so re-runs only re-measure).
        let mut baselines: Vec<(u64, String)> = Vec::new();
        let mut baseline_cps: f64 = 0.0;
        for rep in 0..repeat {
            let t0 = Instant::now();
            let pass: Vec<(u64, String)> = jobs.iter().map(|j| run_baseline(&shard, j)).collect();
            let secs = t0.elapsed().as_secs_f64();
            let queries: u64 = pass.iter().map(|(q, _)| q).sum();
            baseline_cps = baseline_cps.max(queries as f64 / secs.max(1e-9));
            if rep == 0 {
                baselines = pass;
            } else {
                assert_eq!(pass, baselines, "isolated baseline must be deterministic");
            }
        }

        // Phase 2: the same jobs through the daemon, `tenants`
        // concurrent connections; best throughput of `repeat` passes,
        // every pass digest-checked against the first.
        let jobs = Arc::new(jobs);
        let mut aggregate_cps: f64 = 0.0;
        let mut results: Vec<(usize, JobOutcome, f64)> = Vec::new();
        let mut arch_fnv = jobs_fnv;
        for rep in 0..repeat {
            let barrier = Arc::new(Barrier::new(tenants + 1));
            let handles: Vec<_> = (0..tenants)
                .map(|t| {
                    let jobs = Arc::clone(&jobs);
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        let mut stream = TcpStream::connect(addr).expect("connect");
                        stream.set_nodelay(true).ok();
                        barrier.wait();
                        let mut results = Vec::new();
                        for j in (t..jobs.len()).step_by(tenants) {
                            let (outcome, latency) = submit(&mut stream, &jobs[j]);
                            results.push((j, outcome, latency));
                        }
                        results
                    })
                })
                .collect();
            barrier.wait();
            let t0 = Instant::now();
            let mut pass: Vec<(usize, JobOutcome, f64)> = Vec::new();
            for h in handles {
                pass.extend(h.join().expect("tenant thread"));
            }
            let server_secs = t0.elapsed().as_secs_f64();
            let served_queries: u64 = pass.iter().map(|(_, o, _)| o.queries).sum();
            let pass_cps = served_queries as f64 / server_secs.max(1e-9);
            pass.sort_by_key(|(j, _, _)| *j);
            ground_jobs += pass.len() as u64;
            ground_queries += served_queries;

            // Determinism gate: every pass through the daemon must
            // reproduce every isolated baseline byte-for-byte (queries
            // and log digest).
            for (j, outcome, _) in &pass {
                let (want_queries, want_digest) = &baselines[*j];
                if outcome.queries != *want_queries || outcome.log_fnv != *want_digest {
                    determinism_ok = false;
                    eprintln!(
                        "DETERMINISM FAIL: {arch_id} rep {rep} job {j}: served {} queries \
                         (digest {}) vs isolated {} ({})",
                        outcome.queries, outcome.log_fnv, want_queries, want_digest
                    );
                }
            }
            let pass_fnv = pass
                .iter()
                .fold(jobs_fnv, |h, (_, o, _)| fnv_mix(h, o.log_fnv.as_bytes()));
            if rep == 0 {
                arch_fnv = pass_fnv;
            } else if pass_fnv != arch_fnv {
                determinism_ok = false;
                eprintln!("DETERMINISM FAIL: {arch_id} rep {rep} jobs_fnv differs from rep 0");
            }
            if pass_cps > aggregate_cps || rep == 0 {
                aggregate_cps = pass_cps;
                results = pass;
            }
        }
        jobs_fnv = arch_fnv;
        let served_queries: u64 = results.iter().map(|(_, o, _)| o.queries).sum();

        let mut latencies: Vec<f64> = results.iter().map(|(_, _, l)| *l).collect();
        latencies.sort_by(f64::total_cmp);
        // Per-tenant latency percentiles: job j ran on tenant j % tenants,
        // so one slow tenant shows up here even when the aggregate hides
        // it behind the other connections.
        let tenant_latency: Vec<TenantLatency> = (0..tenants)
            .map(|t| {
                let mut lats: Vec<f64> = results
                    .iter()
                    .filter(|(j, _, _)| j % tenants == t)
                    .map(|(_, _, l)| *l)
                    .collect();
                lats.sort_by(f64::total_cmp);
                TenantLatency {
                    tenant: t,
                    p50_ms: percentile_ms(&lats, 0.50),
                    p99_ms: percentile_ms(&lats, 0.99),
                }
            })
            .collect();
        let row = ArchRow {
            arch: arch_id.to_owned(),
            input,
            jobs: total_jobs,
            total_queries: served_queries,
            baseline_cps,
            aggregate_cps,
            p50_ms: percentile_ms(&latencies, 0.50),
            p99_ms: percentile_ms(&latencies, 0.99),
            speedup: aggregate_cps / baseline_cps.max(1e-9),
            tenant_latency,
        };
        eprintln!(
            "{}: {} jobs, {} queries, baseline {:.0} cand/s, server {:.0} cand/s \
             (x{:.2}), p50 {:.1} ms, p99 {:.1} ms",
            row.arch,
            row.jobs,
            row.total_queries,
            row.baseline_cps,
            row.aggregate_cps,
            row.speedup,
            row.p50_ms,
            row.p99_ms
        );
        rows.push(row);
    }

    // One row per line, like the other BENCH_*.json reports, so
    // bench_gate.sh's line-oriented parser picks up `server_speedup`.
    let mut report = String::new();
    report.push_str("{\n");
    report.push_str("  \"benchmark\": \"attack_server\",\n");
    report.push_str(&format!("  \"tenants\": {tenants},\n"));
    report.push_str(&format!("  \"jobs_per_tenant\": {jobs_per_tenant},\n"));
    report.push_str(&format!("  \"budget\": {budget},\n"));
    report.push_str(&format!("  \"repeat\": {repeat},\n"));
    report.push_str(&format!(
        "  \"determinism\": \"{}\",\n",
        if determinism_ok { "ok" } else { "FAILED" }
    ));
    report.push_str(&format!(
        "  \"metrics\": \"{}\",\n",
        if metrics_on { "on" } else { "off" }
    ));
    report.push_str(&format!("  \"jobs_fnv\": \"{jobs_fnv:016x}\",\n"));
    // Headline serving-capacity figure: the best per-arch aggregate the
    // daemon sustained in this run (compare against the batched
    // inference bench's candidates/sec geomean).
    let peak = rows.iter().map(|r| r.aggregate_cps).fold(0.0, f64::max);
    report.push_str(&format!(
        "  \"peak_aggregate_candidates_per_sec\": {peak:.1},\n"
    ));
    report.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        // Per-tenant percentiles ride on the arch row (optional fields:
        // bench_gate.sh only extracts `*_speedup` keys from arch lines,
        // so older gates and reports interoperate either way).
        let tenant_json: Vec<String> = r
            .tenant_latency
            .iter()
            .map(|t| {
                format!(
                    "{{\"tenant\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}",
                    t.tenant, t.p50_ms, t.p99_ms
                )
            })
            .collect();
        let worst_p99 = r
            .tenant_latency
            .iter()
            .map(|t| t.p99_ms)
            .fold(0.0, f64::max);
        report.push_str(&format!(
            "    {{\"arch\": \"{}\", \"input\": \"{}\", \"jobs\": {}, \"total_queries\": {}, \
             \"baseline_candidates_per_sec\": {:.1}, \"aggregate_candidates_per_sec\": {:.1}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"worst_tenant_p99_ms\": {:.3}, \
             \"tenant_latency\": [{}], \"server_speedup\": {:.3}}}{}\n",
            r.arch,
            r.input,
            r.jobs,
            r.total_queries,
            r.baseline_cps,
            r.aggregate_cps,
            r.p50_ms,
            r.p99_ms,
            worst_p99,
            tenant_json.join(", "),
            r.speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    report.push_str("  ]\n}\n");
    let mut file = std::fs::File::create(&out_path).expect("create report");
    file.write_all(report.as_bytes()).expect("write report");
    eprintln!("server_loadtest: report written to {out_path}");

    // Metrics cross-check: the scraped counters must equal the ground
    // truth this harness tallied from the job outcomes themselves. The
    // plane is passive, so any drift is an accounting bug — fail loudly.
    let mut metrics_ok = true;
    if metrics_on {
        let addr = server.metrics_addr().expect("metrics listener is up");
        let page = scrape_metrics(addr);
        for (name, want) in [
            ("jobs_done", ground_jobs),
            ("queries_total", ground_queries),
        ] {
            let got = scraped_value(&page, name);
            if got == want {
                eprintln!("server_loadtest: /metrics {name} = {got} matches ground truth");
            } else {
                metrics_ok = false;
                eprintln!(
                    "METRICS FAIL: /metrics reports {name} = {got}, ground truth counted {want}"
                );
            }
        }
    }

    server.request_shutdown();
    drop(server);
    #[cfg(feature = "telemetry")]
    {
        let snap = oppsla_core::telemetry::snapshot();
        eprintln!("server_loadtest telemetry: {}", snap.summary());
    }
    if !determinism_ok {
        eprintln!("server_loadtest: determinism check FAILED");
        std::process::exit(1);
    }
    if !metrics_ok {
        eprintln!("server_loadtest: metrics cross-check FAILED");
        std::process::exit(1);
    }
}
