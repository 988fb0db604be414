//! End-to-end daemon tests over real TCP sockets: the happy path, every
//! rejection path a misbehaving client can trigger, and the shutdown
//! handshake. One server instance is shared across the whole file so the
//! (fast) zoo trains once.

use oppsla_server::metrics::JOB_STAGES;
use oppsla_server::protocol::{
    read_frame, write_frame, ImageSpec, InlineImage, JobRequest, Request, Response,
};
use oppsla_server::server::{Server, ServerConfig};
use std::net::TcpStream;
use std::sync::{Mutex, OnceLock};

fn server() -> &'static Mutex<Server> {
    static SERVER: OnceLock<Mutex<Server>> = OnceLock::new();
    SERVER.get_or_init(|| {
        let cfg = ServerConfig {
            zoo: oppsla_eval::zoo::ZooConfig {
                train_per_class: 8,
                epochs: Some(2),
                learning_rate: 2e-3,
                seed: 1,
                cache_dir: None,
            },
            test_per_class: 3,
            ..Default::default()
        };
        Mutex::new(Server::start(cfg).expect("bind port 0"))
    })
}

fn connect() -> TcpStream {
    let addr = server().lock().unwrap().local_addr();
    TcpStream::connect(addr).expect("connect to daemon")
}

fn roundtrip(stream: &mut TcpStream, request: &Request) -> Response {
    let json = serde_json::to_string(request).expect("serialize request");
    write_frame(stream, &json).expect("send frame");
    let payload = read_frame(stream)
        .expect("read response frame")
        .expect("server closed before responding");
    serde_json::from_str(&payload).expect("parse response")
}

fn attack_request(budget: u64, seed: u64) -> Request {
    Request::Attack(JobRequest {
        arch: "mlp".into(),
        scale: "shapes32".into(),
        image: ImageSpec {
            test_index: Some(0),
            inline: None,
        },
        budget,
        program: None,
        seed,
    })
}

#[test]
fn ping_pong() {
    let mut s = connect();
    assert_eq!(roundtrip(&mut s, &Request::Ping), Response::Pong);
}

#[test]
fn attack_job_end_to_end_and_deterministic() {
    let mut s = connect();
    let req = attack_request(200, 7);
    let a = roundtrip(&mut s, &req);
    // Same request again on the same connection: byte-identical outcome.
    let b = roundtrip(&mut s, &req);
    assert_eq!(a, b, "served jobs must be deterministic in the request");
    match a {
        Response::Done(out) => {
            assert!(
                out.status == "success"
                    || out.status == "failure"
                    || out.status == "already_misclassified",
                "unexpected status {:?}",
                out.status
            );
            assert!(out.queries <= 200, "budget overrun: {}", out.queries);
            assert_eq!(out.log_len, out.queries, "every query must be logged");
            assert_eq!(out.log_fnv.len(), 16, "digest is 16 hex digits");
        }
        other => panic!("expected Done, got {other:?}"),
    }
}

#[test]
fn stats_frame_reflects_served_jobs_and_metrics_scrape_agrees() {
    // A dedicated server so counters aren't shared with other tests.
    let cfg = ServerConfig {
        zoo: oppsla_eval::zoo::ZooConfig {
            train_per_class: 8,
            epochs: Some(2),
            learning_rate: 2e-3,
            seed: 1,
            cache_dir: None,
        },
        test_per_class: 3,
        metrics_addr: Some("127.0.0.1:0".into()),
        ..Default::default()
    };
    let server = Server::start(cfg).expect("bind");
    let addr = server.local_addr();
    let mut s = TcpStream::connect(addr).expect("connect");
    let req = attack_request(150, 11);
    let served = match roundtrip(&mut s, &req) {
        Response::Done(out) => out,
        other => panic!("expected Done, got {other:?}"),
    };
    let report = match roundtrip(&mut s, &Request::Stats) {
        Response::Stats(r) => r,
        other => panic!("expected Stats, got {other:?}"),
    };
    let value = |key: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.key == key)
            .unwrap_or_else(|| panic!("missing {key} in {:?}", report.metrics))
            .value
    };
    assert_eq!(value("jobs_done") as u64, 1);
    assert_eq!(value("queries_total") as u64, served.queries);
    assert_eq!(value("zoo_shard_trains") as u64, 1, "one cold shard");
    assert_eq!(
        value("tenant_jobs_done{tenant=\"t0\"}") as u64,
        1,
        "first attacking connection is tenant t0"
    );
    assert_eq!(report.slow_jobs.len(), 1, "the only job is the slowest");
    assert_eq!(report.slow_jobs[0].queries, served.queries);
    assert_eq!(
        report.slow_jobs[0].full_queries + report.slow_jobs[0].delta_queries,
        served.queries,
        "route attribution partitions the counted queries"
    );
    // Where the job's time went: its four stages add up to its wall time
    // exactly, and the slow log carries the same split.
    let stage = |stat: &str, name: &str| value(&format!("job_stage_us_{stat}{{stage=\"{name}\"}}"));
    let wall = value("job_latency_us_sum");
    assert_eq!(value("job_latency_us_count"), 1.0);
    for name in JOB_STAGES {
        assert_eq!(stage("count", name), 1.0, "one {name} observation");
    }
    let stage_sum: f64 = JOB_STAGES.iter().map(|name| stage("sum", name)).sum();
    assert_eq!(stage_sum, wall, "stages add up to the wall time");
    let slow = &report.slow_jobs[0];
    assert_eq!(slow.wall_us as f64, wall);
    assert_eq!(slow.decode_us as f64, stage("sum", "decode"));
    assert_eq!(slow.admission_us as f64, stage("sum", "admission"));
    assert_eq!(slow.compute_us as f64, stage("sum", "compute"));
    assert!(slow.compute_us > 0, "the attack took time: {slow:?}");
    // The HTTP exposition must agree with the Stats frame exactly.
    let http_addr = server.metrics_addr().expect("metrics listener");
    let mut scrape = TcpStream::connect(http_addr).expect("connect /metrics");
    {
        use std::io::Write as _;
        write!(scrape, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
    }
    let mut page = String::new();
    {
        use std::io::Read as _;
        scrape.read_to_string(&mut page).expect("read scrape");
    }
    assert!(
        page.contains(&format!("queries_total {}", served.queries)),
        "{page}"
    );
    assert!(page.contains("jobs_done 1"), "{page}");
    drop(s);
    server.request_shutdown();
    server.wait();
}

#[test]
fn invalid_jobs_get_errors_and_the_daemon_stays_up() {
    let mut s = connect();
    let cases: Vec<(Request, &str)> = vec![
        (
            Request::Attack(JobRequest {
                arch: "alexnet".into(),
                scale: "shapes32".into(),
                image: ImageSpec {
                    test_index: Some(0),
                    inline: None,
                },
                budget: 10,
                program: None,
                seed: 1,
            }),
            "unknown arch",
        ),
        (
            Request::Attack(JobRequest {
                arch: "mlp".into(),
                scale: "shapes16".into(),
                image: ImageSpec {
                    test_index: Some(0),
                    inline: None,
                },
                budget: 10,
                program: None,
                seed: 1,
            }),
            "unknown scale",
        ),
        (attack_request(0, 1), "budget"),
        (attack_request(u64::MAX, 1), "per-job limit"),
        (
            Request::Attack(JobRequest {
                arch: "mlp".into(),
                scale: "shapes32".into(),
                image: ImageSpec {
                    test_index: Some(u64::MAX),
                    inline: None,
                },
                budget: 10,
                program: None,
                seed: 1,
            }),
            "out of range",
        ),
        (
            Request::Attack(JobRequest {
                arch: "mlp".into(),
                scale: "shapes32".into(),
                image: ImageSpec {
                    test_index: None,
                    inline: Some(InlineImage {
                        height: 5,
                        width: 5,
                        data: vec![0.0; 75],
                        true_class: 0,
                    }),
                },
                budget: 10,
                program: None,
                seed: 1,
            }),
            "32x32",
        ),
    ];
    for (req, want) in cases {
        match roundtrip(&mut s, &req) {
            Response::Error(e) => assert!(e.contains(want), "want {want:?} in {e:?}"),
            other => panic!("expected Error containing {want:?}, got {other:?}"),
        }
    }
    // The connection survived every rejection.
    assert_eq!(roundtrip(&mut s, &Request::Ping), Response::Pong);
}

#[test]
fn json_garbage_answers_an_error_and_keeps_the_connection() {
    let mut s = connect();
    write_frame(&mut s, "this is not json").expect("send garbage");
    let payload = read_frame(&mut s).expect("read").expect("response");
    match serde_json::from_str::<Response>(&payload).expect("parse") {
        Response::Error(e) => assert!(e.contains("bad request"), "{e}"),
        other => panic!("expected Error, got {other:?}"),
    }
    assert_eq!(roundtrip(&mut s, &Request::Ping), Response::Pong);
}

#[test]
fn deeply_nested_json_answers_an_error_and_keeps_the_connection() {
    // 10 KB of nesting: without a depth bound the parser recursed once
    // per `[` and overflowed the connection thread's stack, aborting the
    // whole daemon.
    let mut s = connect();
    let frame = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000));
    write_frame(&mut s, &frame).expect("send nested frame");
    let payload = read_frame(&mut s).expect("read").expect("response");
    match serde_json::from_str::<Response>(&payload).expect("parse") {
        Response::Error(e) => assert!(e.contains("bad request"), "{e}"),
        other => panic!("expected Error, got {other:?}"),
    }
    assert_eq!(roundtrip(&mut s, &Request::Ping), Response::Pong);
}

#[test]
fn oversized_frame_is_rejected_and_the_connection_closed() {
    use std::io::Write as _;
    let mut s = connect();
    // A length prefix far beyond MAX_FRAME_LEN, no payload behind it.
    s.write_all(&u32::MAX.to_le_bytes()).expect("send prefix");
    s.flush().expect("flush");
    let payload = read_frame(&mut s).expect("read").expect("response");
    match serde_json::from_str::<Response>(&payload).expect("parse") {
        Response::Error(e) => assert!(e.contains("exceeds"), "{e}"),
        other => panic!("expected Error, got {other:?}"),
    }
    // The server closes after a framing-level violation.
    assert!(
        matches!(read_frame(&mut s), Ok(None) | Err(_)),
        "connection should be closed"
    );
    // But the daemon itself is still accepting.
    let mut s2 = connect();
    assert_eq!(roundtrip(&mut s2, &Request::Ping), Response::Pong);
}

#[test]
fn shutdown_frame_flips_the_server_flag() {
    // Run last-ish in practice, but safe in any order: shutdown only sets
    // the flag — the shared server is drained when the test process ends.
    // Use a *dedicated* server so other tests keep a live daemon.
    let cfg = ServerConfig {
        zoo: oppsla_eval::zoo::ZooConfig {
            train_per_class: 8,
            epochs: Some(2),
            learning_rate: 2e-3,
            seed: 1,
            cache_dir: None,
        },
        test_per_class: 3,
        ..Default::default()
    };
    let server = Server::start(cfg).expect("bind");
    let addr = server.local_addr();
    let mut s = TcpStream::connect(addr).expect("connect");
    assert_eq!(
        roundtrip(&mut s, &Request::Shutdown),
        Response::ShuttingDown
    );
    assert!(server.shutdown_requested());
    // wait() must now return promptly (drain, join, done).
    server.wait();
}

#[test]
fn unknown_flags_are_usage_errors() {
    // A flag the daemon does not read stops it before it binds, rather
    // than being accepted without effect.
    for flag in ["--workers", "--max-merge", "--coalesce-us"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_oppsla_serverd"))
            .args(["--addr", "127.0.0.1:0", flag, "2"])
            .output()
            .expect("run oppsla_serverd");
        assert_eq!(out.status.code(), Some(2), "{flag}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
        assert!(out.stdout.is_empty(), "never reached listening: {out:?}");
    }
}
