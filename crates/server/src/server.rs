//! The daemon: TCP accept loop, per-connection framing, and admission
//! control.
//!
//! Each connection gets its own thread reading [`Request`] frames and
//! answering with exactly one [`Response`] frame per request. Attack
//! jobs pass through an admission gate (bounded active + bounded
//! waiting), so a burst of tenants degrades into queueing and then
//! *explicit* rejection — never into unbounded memory growth or a dead
//! daemon.
//!
//! An admitted job runs on its connection thread, over a private session
//! of the shard's classifier (see [`crate::session::run_job`]): the
//! admission gate's `max_active_jobs` is the one bound on concurrent
//! compute. A job that panics answers an error frame; its admission slot
//! and its connection's accounting are released by drop guards either
//! way, so a panic can neither starve later jobs nor hang shutdown.

use crate::metrics::{ServerMetrics, TenantMetrics};
use crate::metrics_http::MetricsServer;
use crate::protocol::{
    read_frame, write_frame, FrameError, JobRequest, Request, Response, SlowJob, StatsReport,
};
use crate::session::CompletedJob;
use crate::zoo::ShardedZoo;
use oppsla_eval::zoo::ZooConfig;
use oppsla_obs::metrics::Gauge;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Zoo training/caching configuration.
    pub zoo: ZooConfig,
    /// Attack test set size per class, per shard.
    pub test_per_class: usize,
    /// Attack test set seed.
    pub test_seed: u64,
    /// Jobs allowed to run concurrently (each on its connection thread);
    /// further jobs wait.
    pub max_active_jobs: usize,
    /// Jobs allowed to wait for a slot; further jobs are rejected with
    /// an error response.
    pub max_waiting_jobs: usize,
    /// Run the live metrics plane (see [`crate::metrics`]). On by
    /// default; the plane is passive (write-only from the job path), so
    /// disabling it changes overhead only, never outcomes — CI A/B-tests
    /// that `log_fnv` digests match across this switch.
    pub metrics: bool,
    /// Bind address for the plaintext `/metrics` listener, or `None` for
    /// no HTTP exposition (the `Stats` frame still works). Ignored when
    /// `metrics` is off.
    pub metrics_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            zoo: ZooConfig::default(),
            test_per_class: 4,
            test_seed: 9,
            max_active_jobs: 16,
            max_waiting_jobs: 64,
            metrics: true,
            metrics_addr: None,
        }
    }
}

/// Bounded two-stage admission: `max_active` jobs run, `max_waiting`
/// wait, the rest are rejected immediately.
struct Admission {
    state: Mutex<AdmissionState>,
    cv: Condvar,
    max_active: usize,
    max_waiting: usize,
    /// `(jobs_active, jobs_waiting)` gauges, mirrored on every state
    /// transition (under the admission mutex, so readers never see an
    /// inconsistent pair). `None` when metrics are disabled.
    gauges: Option<(Arc<Gauge>, Arc<Gauge>)>,
}

struct AdmissionState {
    active: usize,
    waiting: usize,
}

impl Admission {
    fn new(
        max_active: usize,
        max_waiting: usize,
        gauges: Option<(Arc<Gauge>, Arc<Gauge>)>,
    ) -> Self {
        Admission {
            state: Mutex::new(AdmissionState {
                active: 0,
                waiting: 0,
            }),
            cv: Condvar::new(),
            max_active: max_active.max(1),
            max_waiting,
            gauges,
        }
    }

    fn mirror(&self, st: &AdmissionState) {
        if let Some((active, waiting)) = &self.gauges {
            active.set(st.active as i64);
            waiting.set(st.waiting as i64);
        }
    }

    /// Blocks until a slot is free, or rejects when the waiting room is
    /// full. On `Ok` the caller holds the returned slot until it drops,
    /// unwinding included; the `bool` reports whether the job had to wait
    /// for it.
    fn admit(&self) -> Result<(AdmissionSlot<'_>, bool), String> {
        let mut st = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if st.active < self.max_active {
            st.active += 1;
            self.mirror(&st);
            return Ok((AdmissionSlot(self), false));
        }
        if st.waiting >= self.max_waiting {
            return Err(format!(
                "server at capacity: {} jobs active, {} waiting",
                st.active, st.waiting
            ));
        }
        st.waiting += 1;
        self.mirror(&st);
        while st.active >= self.max_active {
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        st.waiting -= 1;
        st.active += 1;
        self.mirror(&st);
        Ok((AdmissionSlot(self), true))
    }

    fn release(&self) {
        let mut st = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        st.active = st.active.saturating_sub(1);
        self.mirror(&st);
        drop(st);
        self.cv.notify_one();
    }
}

/// One held admission slot, released when dropped.
struct AdmissionSlot<'a>(&'a Admission);

impl Drop for AdmissionSlot<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

struct Shared {
    zoo: Arc<ShardedZoo>,
    admission: Admission,
    /// The live metrics plane; `None` when the deployment disabled it.
    metrics: Option<Arc<ServerMetrics>>,
    /// Set by a `Shutdown` request or [`Server::request_shutdown`].
    shutdown: AtomicBool,
    /// Live connection threads (accept loop + drain accounting).
    connections: AtomicUsize,
}

/// A running attack daemon.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    metrics_http: Option<MetricsServer>,
}

impl Server {
    /// Binds `cfg.addr` and starts the accept loop.
    ///
    /// # Errors
    ///
    /// Returns an error when the address cannot be bound.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let metrics = cfg.metrics.then(|| Arc::new(ServerMetrics::new()));
        let zoo = Arc::new(ShardedZoo::new(
            cfg.zoo.clone(),
            cfg.test_per_class,
            cfg.test_seed,
        ));
        if let Some(m) = &metrics {
            zoo.set_train_counter(Arc::clone(&m.zoo_shard_trains));
        }
        let metrics_http = match (&metrics, &cfg.metrics_addr) {
            (Some(m), Some(addr)) => Some(MetricsServer::start(addr, Arc::clone(m))?),
            _ => None,
        };
        let admission_gauges = metrics
            .as_ref()
            .map(|m| (Arc::clone(&m.jobs_active), Arc::clone(&m.jobs_waiting)));
        let shared = Arc::new(Shared {
            zoo,
            admission: Admission::new(cfg.max_active_jobs, cfg.max_waiting_jobs, admission_gauges),
            metrics,
            shutdown: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("server-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn accept thread");
        Ok(Server {
            local_addr,
            shared,
            accept_thread: Some(accept_thread),
            metrics_http,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's model zoo (shared with every job): lets in-process
    /// harnesses (the load test's single-session baseline)
    /// reuse the resident shards instead of retraining them.
    pub fn zoo(&self) -> Arc<ShardedZoo> {
        Arc::clone(&self.shared.zoo)
    }

    /// The live metrics plane, when the deployment enabled one. The
    /// daemon reads this on the shutdown path to flush a final snapshot.
    pub fn metrics(&self) -> Option<Arc<ServerMetrics>> {
        self.shared.metrics.clone()
    }

    /// The bound `/metrics` listener address (resolves port 0), when the
    /// deployment asked for HTTP exposition.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_http.as_ref().map(MetricsServer::local_addr)
    }

    /// True once a shutdown has been requested (by a client frame or
    /// [`Server::request_shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown from within the process (same effect as a
    /// client's `Shutdown` frame).
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Blocks until shutdown is requested, then drains: stops accepting
    /// and waits for connection threads to finish their in-flight
    /// requests.
    pub fn wait(mut self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.drain();
    }

    fn drain(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        while self.shared.connections.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        // The exposition listener outlives the job path on purpose: a
        // scraper can still read the final counters while connections
        // drain; it stops only once everything it reports is settled.
        if let Some(mut m) = self.metrics_http.take() {
            m.stop();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

/// One live connection's share of the drain accounting: counted when
/// accepted, uncounted when dropped — at a clean hang-up, when a panic
/// unwinds the connection thread, or when the thread cannot be spawned.
struct ConnectionGuard(Arc<Shared>);

impl ConnectionGuard {
    fn new(shared: &Arc<Shared>) -> Self {
        shared.connections.fetch_add(1, Ordering::SeqCst);
        if let Some(m) = &shared.metrics {
            m.connections.inc();
        }
        ConnectionGuard(Arc::clone(shared))
    }
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        if let Some(m) = &self.0.metrics {
            m.connections.dec();
        }
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Responses are small request-reply frames; waiting for
                // ACKs to batch them only adds delayed-ACK latency.
                stream.set_nodelay(true).ok();
                let connection = ConnectionGuard::new(shared);
                // On thread exhaustion the closure, and the guard with
                // it, is dropped: the connection is shed, the daemon
                // keeps serving.
                let _ = std::thread::Builder::new()
                    .name("server-conn".into())
                    .spawn(move || serve_connection(stream, &connection.0));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    // One tenant per connection, labelled in accept order. Registered
    // lazily on the first attack job so Ping/Stats-only connections
    // (probes, `server_top`) never mint a tenant series.
    let mut tenant: Option<TenantMetrics> = None;
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            // Clean hang-up between frames.
            Ok(None) => return,
            Err(e @ (FrameError::TooLong(_) | FrameError::NotUtf8)) => {
                // The stream position is still frame-aligned only for
                // TooLong/NotUtf8 if we abandoned the payload — we did
                // not consume it, so answer once and close.
                let _ = respond(&mut stream, &Response::Error(e.to_string()));
                return;
            }
            Err(FrameError::Io(_)) => return,
        };
        let received = Instant::now();
        let request: Request = match serde_json::from_str(&payload) {
            Ok(r) => r,
            Err(e) => {
                // JSON-level garbage leaves the framing intact: answer
                // and keep the connection.
                if respond(&mut stream, &Response::Error(format!("bad request: {e}"))).is_err() {
                    return;
                }
                continue;
            }
        };
        let response = match request {
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats(match &shared.metrics {
                Some(m) => m.snapshot(),
                // Metrics disabled: an empty report, not an error, so
                // pollers need no capability probe.
                None => StatsReport {
                    uptime_ms: 0,
                    metrics: Vec::new(),
                    slow_jobs: Vec::new(),
                },
            }),
            Request::Shutdown => {
                shared.shutdown.store(true, Ordering::SeqCst);
                let _ = respond(&mut stream, &Response::ShuttingDown);
                return;
            }
            Request::Attack(job) => {
                if tenant.is_none() {
                    tenant = shared.metrics.as_ref().map(|m| m.tenant());
                }
                let decoded = Instant::now();
                let served = serve_attack(
                    &mut stream,
                    shared,
                    tenant.as_ref(),
                    &job,
                    received,
                    decoded,
                );
                if served.is_err() {
                    return;
                }
                continue;
            }
        };
        if respond(&mut stream, &response).is_err() {
            return;
        }
    }
}

/// Runs `job`, turning a panic into an error the client is answered with.
fn run_caught(job: impl FnOnce() -> Result<CompletedJob, String>) -> Result<CompletedJob, String> {
    catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|panic| {
        let what = panic
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("unknown cause");
        Err(format!("internal error: the job panicked ({what})"))
    })
}

/// Serves one attack request whose frame was read at `received` and
/// decoded by `decoded`: admission, the job, the reply, and — purely
/// passively — the metrics plane's accounting around them:
/// counters, the stage and end-to-end latency histograms, and the
/// slow-request log. Every metrics touch is write-only, after the
/// corresponding decision was already made. Counters move before the
/// reply is written, so a client that has its answer sees them in any
/// later scrape; the timings that include the reply are recorded after.
///
/// # Errors
///
/// Returns the write error when the reply cannot be sent.
fn serve_attack(
    stream: &mut TcpStream,
    shared: &Shared,
    tenant: Option<&TenantMetrics>,
    job: &JobRequest,
    received: Instant,
    decoded: Instant,
) -> io::Result<()> {
    let admission = shared.admission.admit();
    let admitted = Instant::now();
    let (slot, waited) = match admission {
        Ok(held) => held,
        Err(reason) => {
            if let (Some(m), Some(t)) = (&shared.metrics, tenant) {
                m.jobs_rejected.inc();
                t.jobs_rejected.inc();
            }
            return respond(stream, &Response::Error(reason));
        }
    };
    if let (Some(m), Some(t)) = (&shared.metrics, tenant) {
        m.jobs_admitted.inc();
        t.jobs_admitted.inc();
        if waited {
            t.jobs_waited.inc();
        }
        t.budget_granted.add(job.budget);
    }
    let result = run_caught(|| crate::session::run_job(&shared.zoo, job));
    let computed = Instant::now();
    drop(slot);
    let done = match result {
        Ok(done) => done,
        Err(e) => {
            if let (Some(m), Some(t)) = (&shared.metrics, tenant) {
                m.jobs_errored.inc();
                t.jobs_errored.inc();
            }
            return respond(stream, &Response::Error(e));
        }
    };
    let (status, queries) = (done.outcome.status.clone(), done.outcome.queries);
    if let (Some(m), Some(t)) = (&shared.metrics, tenant) {
        m.jobs_done.inc();
        m.queries_total.add(queries);
        t.jobs_done.inc();
        t.queries.add(queries);
        t.budget_unspent.add(job.budget.saturating_sub(queries));
    }
    respond(stream, &Response::Done(done.outcome))?;
    let written = Instant::now();
    if let (Some(m), Some(t)) = (&shared.metrics, tenant) {
        // Stage boundaries as offsets from one origin, so the stage
        // times add up to the wall time exactly.
        let at =
            |t: Instant| u64::try_from(t.duration_since(received).as_micros()).unwrap_or(u64::MAX);
        let bounds = [at(decoded), at(admitted), at(computed), at(written)];
        let mut start = 0;
        for (hist, &end) in m.job_stage_us.iter().zip(&bounds) {
            hist.observe(end - start);
            start = end;
        }
        m.job_latency_us.observe(bounds[3]);
        m.record_slow(SlowJob {
            tenant: t.id.clone(),
            arch: job.arch.clone(),
            scale: job.scale.clone(),
            status,
            queries,
            full_queries: done.full_queries,
            delta_queries: done.delta_queries,
            decode_us: bounds[0],
            admission_us: bounds[1] - bounds[0],
            compute_us: bounds[2] - bounds[1],
            wall_us: bounds[3],
            budget: job.budget,
        });
    }
    Ok(())
}

fn respond(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    let json = serde_json::to_string(response)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    write_frame(stream, &json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_runs_then_queues_then_rejects() {
        let adm = Arc::new(Admission::new(1, 1, None));
        let (first, waited) = adm.admit().unwrap();
        assert!(!waited, "free slot: no wait");
        let waiter = {
            let adm = Arc::clone(&adm);
            std::thread::spawn(move || adm.admit().map(|(_slot, waited)| waited))
        };
        // Give the waiter time to enter the waiting room, then a third
        // job must be rejected outright.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let waiting = {
                let st = adm.state.lock().unwrap();
                st.waiting
            };
            if waiting == 1 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "waiter never queued");
            std::thread::sleep(Duration::from_millis(1));
        }
        let Err(err) = adm.admit() else {
            panic!("a full waiting room must reject");
        };
        assert!(err.contains("capacity"), "{err}");
        drop(first);
        assert!(
            waiter.join().unwrap().unwrap(),
            "the queued job reports that it waited"
        );
        assert!(adm.admit().is_ok(), "slots free again after releases");
    }

    #[test]
    fn admission_mirrors_its_gauges() {
        let registry = oppsla_obs::metrics::Registry::new();
        let active = registry.gauge("jobs_active", &[]);
        let waiting = registry.gauge("jobs_waiting", &[]);
        let adm = Admission::new(2, 4, Some((Arc::clone(&active), Arc::clone(&waiting))));
        let a = adm.admit().unwrap();
        let b = adm.admit().unwrap();
        assert_eq!(active.get(), 2);
        assert_eq!(waiting.get(), 0);
        drop(a);
        assert_eq!(active.get(), 1);
        drop(b);
        assert_eq!(active.get(), 0, "gauge drains to zero with the jobs");
    }

    /// A daemon's shared state with nothing trained and no metrics.
    fn idle_shared(max_active: usize, max_waiting: usize) -> Arc<Shared> {
        Arc::new(Shared {
            zoo: Arc::new(ShardedZoo::new(ZooConfig::default(), 1, 9)),
            admission: Admission::new(max_active, max_waiting, None),
            metrics: None,
            shutdown: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
        })
    }

    #[test]
    fn a_panicking_job_frees_its_slot_and_its_connection() {
        let shared = idle_shared(1, 0);
        let conn_shared = Arc::clone(&shared);
        let joined = std::thread::spawn(move || {
            let connection = ConnectionGuard::new(&conn_shared);
            let _slot = connection.0.admission.admit().expect("a free slot");
            assert_eq!(connection.0.connections.load(Ordering::SeqCst), 1);
            panic!("a kernel assert fired mid-job");
        })
        .join();
        assert!(joined.is_err(), "the job thread panicked");
        assert_eq!(
            shared.connections.load(Ordering::SeqCst),
            0,
            "the unwound connection left the drain count"
        );
        // No waiting room: a leaked slot would reject this job outright,
        // and with one it would wait forever.
        let (_slot, waited) = shared.admission.admit().expect("the slot was released");
        assert!(!waited, "the next job does not wait");
    }

    #[test]
    fn a_panic_inside_a_job_becomes_an_error_answer() {
        let err = run_caught(|| panic!("pixel (40, 2) out of range")).unwrap_err();
        assert!(err.contains("panicked"), "{err}");
        assert!(err.contains("out of range"), "{err}");
        let n = 7;
        let err = run_caught(|| panic!("formatted {n}")).unwrap_err();
        assert!(err.contains("formatted 7"), "{err}");
    }
}
