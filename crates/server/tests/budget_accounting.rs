//! Budget accounting across concurrent served jobs, on a server of its
//! own so no other test's jobs move its totals.
//!
//! Several connections each run a series of attack jobs at once, with
//! budgets drawn at random and budgets that end inside the sketch's first
//! prefetched init window (the baseline query plus up to eight pooled
//! candidates), where speculation has evaluated more candidates than the
//! budget can count. Every job must stay within its budget and log
//! exactly the queries it reports, and the daemon's `queries_total` must
//! move by exactly the sum of the jobs' queries.

use oppsla_server::protocol::{read_frame, write_frame, ImageSpec, JobRequest, Request, Response};
use oppsla_server::server::{Server, ServerConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};

fn roundtrip(stream: &mut TcpStream, request: &Request) -> Response {
    let json = serde_json::to_string(request).expect("serialize request");
    write_frame(stream, &json).expect("send frame");
    let payload = read_frame(stream)
        .expect("read response frame")
        .expect("server closed before responding");
    serde_json::from_str(&payload).expect("parse response")
}

fn queries_total(addr: SocketAddr) -> u64 {
    let mut s = TcpStream::connect(addr).expect("connect");
    match roundtrip(&mut s, &Request::Stats) {
        Response::Stats(report) => {
            report
                .metrics
                .iter()
                .find(|m| m.key == "queries_total")
                .expect("queries_total in the Stats frame")
                .value as u64
        }
        other => panic!("expected Stats, got {other:?}"),
    }
}

#[test]
fn concurrent_jobs_spend_within_budget_and_the_total_adds_up() {
    const CONNECTIONS: u64 = 4;
    const JOBS_PER_CONNECTION: usize = 6;
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
    let server = Server::start(cfg).expect("bind port 0");
    let addr = server.local_addr();
    let before = queries_total(addr);

    // Budget 1 (the baseline query alone), budgets ending inside or at
    // the edge of the first init window, and random ones.
    let mut rng = ChaCha8Rng::seed_from_u64(25);
    let mut budgets: Vec<u64> = vec![1, 2, 3, 5, 8, 9, 10];
    while budgets.len() < CONNECTIONS as usize * JOBS_PER_CONNECTION {
        budgets.push(rng.gen_range(1..=400));
    }
    // Every connection sends its first job only once all are connected,
    // so the jobs overlap on the server.
    let start = Arc::new(Barrier::new(CONNECTIONS as usize));
    let handles: Vec<_> = budgets
        .chunks(JOBS_PER_CONNECTION)
        .zip(0..CONNECTIONS)
        .map(|(chunk, connection)| {
            let chunk = chunk.to_vec();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).expect("connect");
                start.wait();
                chunk
                    .into_iter()
                    .enumerate()
                    .map(|(j, budget)| {
                        let request = Request::Attack(JobRequest {
                            arch: "mlp".into(),
                            scale: "shapes32".into(),
                            image: ImageSpec {
                                test_index: Some((connection + j as u64) % 6),
                                inline: None,
                            },
                            budget,
                            program: None,
                            seed: connection * 100 + j as u64,
                        });
                        match roundtrip(&mut s, &request) {
                            Response::Done(out) => (budget, out),
                            other => panic!("budget {budget}: expected Done, got {other:?}"),
                        }
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let mut served = 0u64;
    let mut jobs = 0;
    for handle in handles {
        for (budget, out) in handle.join().expect("client thread") {
            assert!(
                out.queries <= budget,
                "job spent {} queries on a budget of {budget}",
                out.queries
            );
            assert_eq!(
                out.log_len, out.queries,
                "budget {budget}: every query logged"
            );
            assert!(
                out.queries >= 1,
                "budget {budget}: the baseline query counts"
            );
            served += out.queries;
            jobs += 1;
        }
    }
    assert_eq!(jobs, budgets.len());
    assert_eq!(
        queries_total(addr) - before,
        served,
        "queries_total must move by exactly the jobs' queries"
    );
    server.request_shutdown();
    server.wait();
}
