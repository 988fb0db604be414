//! Shared plumbing for the OPPSLA experiment binaries: the
//! `--telemetry`/`--trace`/`--threads` knobs and the architecture rosters
//! of the paper's two evaluation scales. The binaries parse their flags
//! with [`oppsla_eval::cli::Args`].

#![warn(missing_docs)]

use oppsla_core::telemetry::{JsonlSink, MetricsSink, NoopSink};
use oppsla_eval::cli::Args;
use oppsla_nn::models::Arch;
use std::path::{Path, PathBuf};

/// The CIFAR-scale classifier roster (paper: VGG-16-BN, ResNet18,
/// GoogLeNet).
pub fn cifar_archs() -> [Arch; 3] {
    [Arch::VggSmall, Arch::ResNetSmall, Arch::GoogLeNetSmall]
}

/// The ImageNet-scale classifier roster (paper: DenseNet121, ResNet50).
pub fn imagenet_archs() -> [Arch; 2] {
    [Arch::DenseNetSmall, Arch::ResNetSmall]
}

/// Directory where experiment binaries drop CSV outputs.
pub fn reports_dir() -> PathBuf {
    PathBuf::from("target/oppsla-reports")
}

/// Directory where synthesized program suites are cached.
pub fn suites_dir() -> PathBuf {
    PathBuf::from("target/oppsla-programs")
}

/// Resolves the shared `--telemetry PATH` knob: arms the telemetry
/// recorder and returns a JSONL sink writing one event per instrumented
/// phase to `PATH`, or a [`NoopSink`] (recorder left disarmed) when the
/// flag is absent. Telemetry never writes to stdout, so experiment
/// results stay byte-identical with or without the flag.
pub fn telemetry_sink(args: &Args) -> Box<dyn MetricsSink> {
    let Some(path) = args.get_opt_str("telemetry") else {
        return Box::new(NoopSink);
    };
    match JsonlSink::create(Path::new(path)) {
        Ok(sink) => {
            oppsla_core::telemetry::arm();
            Box::new(sink)
        }
        Err(e) => {
            eprintln!("warning: could not create telemetry file {path}: {e}; telemetry disabled");
            Box::new(NoopSink)
        }
    }
}

/// Resolves the shared `--trace PATH` knob: arms the per-query trace
/// recorder (and the telemetry recorder, whose op totals close the
/// trace) spilling JSONL records to `PATH`. Returns whether a trace was
/// armed, so the binary knows to call [`finish_trace`] at the end of the
/// run. Tracing writes only to `PATH` and stderr, never stdout, so
/// experiment results stay byte-identical with or without the flag.
pub fn start_trace(args: &Args) -> bool {
    use oppsla_core::telemetry::trace;
    let Some(path) = args.get_opt_str("trace") else {
        return false;
    };
    match trace::start(trace::TraceConfig {
        path: Some(PathBuf::from(path)),
        mem_cap: 0,
    }) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("warning: could not create trace file {path}: {e}; tracing disabled");
            false
        }
    }
}

/// Finishes an active trace (no-op when [`start_trace`] returned false)
/// and prints its accounting to **stderr**.
pub fn finish_trace(active: bool) {
    if !active {
        return;
    }
    let stats = oppsla_core::telemetry::trace::finish();
    eprintln!(
        "trace: {} record(s) written, {} dropped, {} I/O error(s)",
        stats.records, stats.dropped, stats.io_errors
    );
}

/// Prints the end-of-run telemetry summary to **stderr** (wall-clock op
/// timings must never reach stdout). No output when nothing was recorded.
pub fn print_telemetry_summary() {
    let snapshot = oppsla_core::telemetry::snapshot();
    if !snapshot.is_zero() {
        eprint!("{}", snapshot.summary());
    }
}

/// Resolves the shared `--threads` knob: `0` (the default) auto-detects
/// the host's parallelism; any other value is used as given. Every
/// experiment binary produces bit-identical results for any thread count —
/// the knob only changes wall-clock time.
pub fn threads_from(args: &Args) -> usize {
    match args.get_usize("threads", 0) {
        0 => oppsla_core::parallel::available_threads(),
        n => n,
    }
}
