//! `server_top`: a refreshing console view of a running attack daemon.
//!
//! Polls the daemon's `Stats` frame (the framed protocol, not HTTP) and
//! renders a per-tenant table plus the slow-request log.
//!
//! ```text
//! server_top [--addr 127.0.0.1:7431] [--interval-ms 1000]
//!            [--iters N] [--once] [--no-clear]
//! ```
//!
//! `--once` prints a single frame and exits (same as `--iters 1`);
//! `--no-clear` appends frames instead of redrawing in place (for logs
//! and CI). Exits nonzero when the daemon is unreachable.

use oppsla_server::cli::Args;
use oppsla_server::protocol::{read_frame, write_frame, Request, Response, StatsReport};
use std::net::TcpStream;

fn poll(stream: &mut TcpStream) -> Result<StatsReport, String> {
    let json = serde_json::to_string(&Request::Stats).expect("serialize Stats");
    write_frame(stream, &json).map_err(|e| format!("send Stats: {e}"))?;
    let reply = read_frame(stream)
        .map_err(|e| format!("read Stats reply: {e}"))?
        .ok_or_else(|| "server closed the connection".to_string())?;
    match serde_json::from_str::<Response>(&reply) {
        Ok(Response::Stats(report)) => Ok(report),
        Ok(other) => Err(format!("unexpected reply to Stats: {other:?}")),
        Err(e) => Err(format!("bad Stats reply: {e}")),
    }
}

fn main() {
    let args = Args::parse(&["addr", "interval-ms", "iters", "no-clear", "once"]);
    let addr = args.get_str("addr", "127.0.0.1:7431");
    let interval = std::time::Duration::from_millis(args.get_u64("interval-ms", 1000));
    let iters = if args.flag("once") {
        1
    } else {
        args.get_u64("iters", u64::MAX)
    };
    let clear = !args.flag("no-clear");

    let mut stream = match TcpStream::connect(&addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("server_top: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    stream.set_nodelay(true).ok();

    let mut prev: Option<StatsReport> = None;
    for i in 0..iters {
        let report = match poll(&mut stream) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("server_top: {e}");
                std::process::exit(1);
            }
        };
        let frame = oppsla_server::top::render(&report, prev.as_ref());
        if clear {
            // ANSI: home + clear-to-end, so a shrinking table leaves no
            // stale rows behind.
            print!("\x1b[H\x1b[2J{frame}");
        } else {
            println!("{frame}");
        }
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        prev = Some(report);
        if i + 1 < iters {
            std::thread::sleep(interval);
        }
    }
}
