//! The serving equivalence guarantee, asserted against a live daemon: N
//! tenants submitting concurrently over their own sockets each get
//! *exactly* the answer a private, in-process session gives the same job
//! — same outcome, same query count, and the same query-log digest
//! (candidate, prediction and score-bit hash of every counted query) —
//! whether admission lets one job run at a time or four.

use oppsla_attacks::{Attack, AttackOutcome, SketchProgramAttack};
use oppsla_core::dsl::Program;
use oppsla_core::oracle::{BatchClassifier, Oracle};
use oppsla_eval::zoo::{Scale, ZooConfig};
use oppsla_nn::models::Arch;
use oppsla_server::protocol::{
    read_frame, write_frame, ImageSpec, JobOutcome, JobRequest, Request, Response,
};
use oppsla_server::server::{Server, ServerConfig};
use oppsla_server::session::digest_query_log;
use oppsla_server::zoo::ShardedZoo;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};

const BUDGET: u64 = 150;

fn start_server(max_active_jobs: usize) -> Server {
    Server::start(ServerConfig {
        zoo: ZooConfig {
            train_per_class: 8,
            epochs: Some(2),
            learning_rate: 2e-3,
            seed: 1,
            cache_dir: None,
        },
        test_per_class: 3,
        test_seed: 9,
        max_active_jobs,
        ..ServerConfig::default()
    })
    .expect("bind port 0")
}

struct Tenant {
    arch: Arch,
    image_index: u64,
    seed: u64,
}

impl Tenant {
    fn request(&self) -> JobRequest {
        JobRequest {
            arch: self.arch.id().to_owned(),
            scale: Scale::Cifar.id().to_owned(),
            image: ImageSpec {
                test_index: Some(self.image_index),
                inline: None,
            },
            budget: BUDGET,
            program: None,
            seed: self.seed,
        }
    }
}

/// The reference: the same job in a private in-process session over the
/// daemon's own resident shard, reported the way the daemon reports it.
fn private_run(zoo: &ShardedZoo, tenant: &Tenant) -> JobOutcome {
    let shard = zoo.shard(tenant.arch, Scale::Cifar);
    let index = usize::try_from(tenant.image_index).expect("small index");
    let (image, true_class) = shard.test_set[index].clone();
    let session = shard.classifier.session();
    let mut oracle = Oracle::with_budget(&*session, BUDGET);
    oracle.enable_query_log();
    let attack = SketchProgramAttack::new(Program::paper_example());
    let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(tenant.seed);
    let outcome = attack.attack(&mut oracle, &image, true_class, &mut rng);
    let log = oracle.take_query_log();
    let (status, location, pixel) = match &outcome {
        AttackOutcome::Success {
            location, pixel, ..
        } => (
            "success",
            Some([u64::from(location.row), u64::from(location.col)]),
            Some(pixel.0),
        ),
        AttackOutcome::Failure { .. } => ("failure", None, None),
        AttackOutcome::AlreadyMisclassified { .. } => ("already_misclassified", None, None),
    };
    JobOutcome {
        status: status.into(),
        queries: outcome.queries(),
        location,
        pixel,
        log_len: log.len() as u64,
        log_fnv: format!("{:016x}", digest_query_log(&log)),
    }
}

fn submit(addr: SocketAddr, job: &JobRequest) -> JobOutcome {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let json = serde_json::to_string(&Request::Attack(job.clone())).expect("serialize");
    write_frame(&mut stream, &json).expect("send job");
    let reply = read_frame(&mut stream)
        .expect("read reply")
        .expect("daemon closed before replying");
    match serde_json::from_str::<Response>(&reply).expect("parse reply") {
        Response::Done(outcome) => outcome,
        other => panic!("job not served: {other:?}"),
    }
}

fn assert_served_matches_private(tenants: Vec<Tenant>, max_active_jobs: usize) {
    let server = start_server(max_active_jobs);
    let addr = server.local_addr();
    let zoo = server.zoo();
    // Train every shard before the tenants race, so they contend for
    // admission and compute rather than for a training latch.
    for t in &tenants {
        zoo.shard(t.arch, Scale::Cifar);
    }
    let tenants = Arc::new(tenants);
    let barrier = Arc::new(Barrier::new(tenants.len()));
    let threads: Vec<_> = (0..tenants.len())
        .map(|i| {
            let tenants = Arc::clone(&tenants);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let job = tenants[i].request();
                barrier.wait();
                submit(addr, &job)
            })
        })
        .collect();
    let served: Vec<JobOutcome> = threads
        .into_iter()
        .map(|t| t.join().expect("tenant thread"))
        .collect();
    for (i, (tenant, got)) in tenants.iter().zip(&served).enumerate() {
        let want = private_run(&zoo, tenant);
        assert_eq!(
            got, &want,
            "tenant {i} ({}) diverged from its private run at max_active_jobs {max_active_jobs}",
            tenant.arch
        );
        assert_eq!(got.log_len, got.queries, "every counted query is logged");
    }
    server.request_shutdown();
    server.wait();
}

fn mlp_tenants(n: u64) -> Vec<Tenant> {
    (0..n)
        .map(|i| Tenant {
            arch: Arch::Mlp,
            image_index: i % 6,
            seed: 40 + i,
        })
        .collect()
}

#[test]
fn served_jobs_match_private_sessions_one_at_a_time() {
    assert_served_matches_private(mlp_tenants(5), 1);
}

#[test]
fn served_jobs_match_private_sessions_four_at_a_time() {
    assert_served_matches_private(mlp_tenants(5), 4);
}

#[test]
fn cross_shard_tenants_match_private_sessions() {
    // Two model shards in flight at once: neither shard's tenants may
    // observe the other's existence.
    let mut tenants = mlp_tenants(3);
    tenants.push(Tenant {
        arch: Arch::VggSmall,
        image_index: 1,
        seed: 77,
    });
    tenants.push(Tenant {
        arch: Arch::VggSmall,
        image_index: 2,
        seed: 78,
    });
    assert_served_matches_private(tenants, 4);
}
