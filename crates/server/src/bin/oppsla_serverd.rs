//! The attack daemon.
//!
//! Binds a TCP address and serves attack jobs until a client sends a
//! `Shutdown` frame (see `oppsla_server::protocol` for the wire format).
//!
//! ```text
//! oppsla_serverd [--addr 127.0.0.1:7431] [--max-active 16] [--max-waiting 64]
//!                [--train-per-class 64] [--epochs N] [--test-per-class 4]
//!                [--test-seed 9] [--cache-dir PATH] [--seed 1]
//!                [--metrics-addr 127.0.0.1:9431] [--no-metrics]
//! ```
//!
//! Each admitted job runs on its connection's thread over a private
//! classifier session; `--max-active` bounds how many run at once. An
//! unknown flag is a usage error.
//!
//! The live metrics plane is on by default (it is passive and never
//! changes job outcomes); `--metrics-addr` additionally serves the
//! plaintext Prometheus-style `/metrics` page, and the `Stats` frame
//! (see `server_top`) works either way. On shutdown the daemon flushes a
//! final metrics snapshot to stderr, so a scripted run keeps the closing
//! counters even if nothing scraped them.

use oppsla_server::cli::Args;
use oppsla_server::server::{Server, ServerConfig};

fn main() {
    let args = Args::parse(&[
        "addr",
        "cache-dir",
        "epochs",
        "max-active",
        "max-waiting",
        "metrics-addr",
        "no-metrics",
        "seed",
        "test-per-class",
        "test-seed",
        "train-per-class",
    ]);
    let mut zoo = oppsla_eval::zoo::ZooConfig {
        train_per_class: args.get_usize("train-per-class", 64),
        seed: args.get_u64("seed", 1),
        cache_dir: args.get_opt_str("cache-dir").map(std::path::PathBuf::from),
        ..Default::default()
    };
    if let Some(epochs) = args.get_opt_str("epochs") {
        zoo.epochs = Some(
            epochs
                .parse()
                .unwrap_or_else(|_| panic!("--epochs expects an integer, got {epochs:?}")),
        );
    }
    let cfg = ServerConfig {
        addr: args.get_str("addr", "127.0.0.1:7431"),
        zoo,
        test_per_class: args.get_usize("test-per-class", 4),
        test_seed: args.get_u64("test-seed", 9),
        max_active_jobs: args.get_usize("max-active", 16),
        max_waiting_jobs: args.get_usize("max-waiting", 64),
        metrics: !args.flag("no-metrics"),
        metrics_addr: args.get_opt_str("metrics-addr").map(str::to_owned),
    };
    if args.flag("no-metrics") && args.get_opt_str("metrics-addr").is_some() {
        eprintln!("oppsla_serverd: --no-metrics disables the /metrics listener too");
    }
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("oppsla_serverd: cannot bind: {e}");
            std::process::exit(1);
        }
    };
    // The one stdout line scripts wait for before connecting.
    println!("oppsla_serverd listening on {}", server.local_addr());
    if let Some(addr) = server.metrics_addr() {
        println!("oppsla_serverd metrics on http://{addr}/metrics");
    }
    let metrics = server.metrics();
    server.wait();
    // Final snapshot on the shutdown handshake path: the counters are
    // settled (accept loop joined, connections drained), so this is the
    // authoritative end-of-run accounting.
    if let Some(m) = metrics {
        let report = m.snapshot();
        eprintln!(
            "oppsla_serverd: final metrics snapshot ({} series):",
            report.metrics.len()
        );
        for s in &report.metrics {
            eprintln!("  {} {}", s.key, s.value);
        }
        for j in &report.slow_jobs {
            eprintln!(
                "  slow_job tenant={} shard={}/{} status={} queries={} decode_us={} \
                 admission_us={} compute_us={} wall_us={}",
                j.tenant,
                j.arch,
                j.scale,
                j.status,
                j.queries,
                j.decode_us,
                j.admission_us,
                j.compute_us,
                j.wall_us
            );
        }
    }
    eprintln!("oppsla_serverd: drained, exiting");
}
