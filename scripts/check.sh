#!/usr/bin/env sh
# The full local gate: formatting, release build (including the
# examples), test suite, and clippy with warnings denied. There is one
# build configuration: telemetry and tracing are compiled in and armed
# at run time, so one test pass covers them.
#
# Formatting and clippy are scoped to the oppsla crates: the vendored
# stubs under vendor/ are workspace members but not ours to lint.
#
# Usage: scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

OPPSLA_PKGS="-p oppsla -p oppsla-tensor -p oppsla-obs -p oppsla-core \
    -p oppsla-nn -p oppsla-data -p oppsla-attacks -p oppsla-eval \
    -p oppsla-bench -p oppsla-server"

cargo fmt $OPPSLA_PKGS --check
cargo build --release
cargo build --release --examples
cargo test -q --workspace
# The end-to-end benchmark is a workspace of its own, so the line above
# skips it; its decorator-passivity tests check that a classifier
# decorator forwards every call the oracle makes, on the same route.
cargo test -q --offline --manifest-path e2ebench/Cargo.toml
# The SIMD micro-kernels are bit-identical to scalar by construction, so
# the kernel/engine test surface must stay green with the escape hatch
# thrown: this covers the env-var resolution path the in-process
# force_simd_level tests cannot reach.
OPPSLA_NO_SIMD=1 cargo test -q -p oppsla-tensor -p oppsla-nn -p oppsla
# The bench-gate and A/B-summary self-tests are pure shell; they run in
# milliseconds.
sh scripts/test_bench_gate.sh
sh scripts/test_e2e_ab.sh
# One clippy pass over every target (lib, bins, tests, benches,
# examples).
cargo clippy $OPPSLA_PKGS --all-targets -- -D warnings
echo "check.sh: all green"
