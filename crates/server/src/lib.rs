//! Attack-as-a-service: a long-running daemon running many OPPSLA attack
//! sessions concurrently over one model zoo. Each job runs on its
//! connection's thread over a private classifier session, so a served
//! job is exactly the in-process attack on the same request.
//!
//! * [`protocol`] — length-prefixed JSON frames; job and response types.
//! * [`zoo`] — lazily trained, concurrently shared model shards.
//! * [`metrics`] — the live metrics plane: lock-light registry handles
//!   the hot paths bump, the slow-request log, and the snapshot the
//!   `Stats` frame answers.
//! * [`metrics_http`] — the plaintext Prometheus-style `/metrics`
//!   listener (its own thread, never on the job path).
//! * [`top`] — rendering for `server_top`, the refreshing console view
//!   over `Stats` snapshots.
//! * [`session`] — per-job validation, budget enforcement, the attack
//!   itself, and the query-log digest that witnesses determinism.
//! * [`server`] — the TCP daemon: accept loop, per-connection framing,
//!   bounded admission control (the one bound on concurrent compute).
//! * [`cli`] — the tiny `--key value` parser the binaries share.
//!
//! The `oppsla_serverd` binary runs the daemon; `server_loadtest` boots
//! one in-process, replays synthetic multi-tenant traffic against it,
//! and emits the `BENCH_server.json` report CI gates.

#![warn(missing_docs)]

pub mod cli;
pub mod metrics;
pub mod metrics_http;
pub mod protocol;
pub mod server;
pub mod session;
pub mod top;
pub mod zoo;
