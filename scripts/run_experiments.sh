#!/usr/bin/env bash
# Regenerates every table and figure of the paper in sequence.
#
# Usage: scripts/run_experiments.sh [extra flags passed to every binary]
#
# Outputs land in target/oppsla-reports/ (CSV) and logs/ (full stdout).
# Trained models and synthesized program suites are cached under
# target/oppsla-models/ and target/oppsla-programs/, so reruns are fast.
#
# Set OPPSLA_TELEMETRY=1 to pass --telemetry to every binary and collect
# per-phase counter events as target/oppsla-reports/<exp>.telemetry.jsonl.
# Telemetry writes only to those files and stderr — the stdout captured in
# logs/ is byte-identical either way.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${OPPSLA_TELEMETRY:-0}" = "1" ]; then
    mkdir -p target/oppsla-reports
fi

cargo build --release -p oppsla-bench

mkdir -p logs
for exp in fig3 table1 fig4 table2; do
    echo "=== $exp ==="
    TELEMETRY_FLAGS=()
    if [ "${OPPSLA_TELEMETRY:-0}" = "1" ]; then
        TELEMETRY_FLAGS=(--telemetry "target/oppsla-reports/$exp.telemetry.jsonl")
    fi
    ./target/release/"$exp" "${TELEMETRY_FLAGS[@]}" "$@" 2>&1 | tee "logs/$exp.log"
done
echo "All experiments done. CSVs in target/oppsla-reports/, logs in logs/."
if [ "${OPPSLA_TELEMETRY:-0}" = "1" ]; then
    echo "Telemetry events in target/oppsla-reports/*.telemetry.jsonl."
fi
