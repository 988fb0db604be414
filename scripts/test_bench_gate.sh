#!/usr/bin/env sh
# Self-test for scripts/bench_gate.sh, exercising it on synthetic
# reports. Covers the pass/warn/fail paths the CI jobs rely on: the
# disarmed-hook cost bound, and the forward-compat contract that a
# report missing an *optional* field (trace_hook_ns_per_op) must WARN,
# not fail — reports written by binaries from before or after the field
# was introduced stay gateable.
#
# Usage: scripts/test_bench_gate.sh   (exit 0 iff every case behaves)
set -eu

gate=$(dirname "$0")/bench_gate.sh
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

failures=0
# expect NAME EXPECTED_STATUS [ARGS...]: run the gate, compare exit codes.
expect() {
    name=$1
    want=$2
    shift 2
    got=0
    out=$(sh "$gate" "$@" 2>&1) || got=$?
    if [ "$got" -eq "$want" ]; then
        echo "ok       $name"
    else
        echo "FAIL     $name: expected exit $want, got $got"
        echo "$out" | sed 's/^/         | /'
        failures=$((failures + 1))
    fi
}
# expect_grep NAME PATTERN [ARGS...]: the gate's output must match.
expect_grep() {
    name=$1
    pat=$2
    shift 2
    out=$(sh "$gate" "$@" 2>&1) || true
    if echo "$out" | grep -q "$pat"; then
        echo "ok       $name"
    else
        echo "FAIL     $name: output does not match '$pat'"
        echo "$out" | sed 's/^/         | /'
        failures=$((failures + 1))
    fi
}

row() { # row SPEEDUP [EXTRA_JSON]
    printf '{"bench": "t", "arch": "mlp", "input": "shapes32", "x_speedup": %s%s}\n' "$1" "${2:-}"
}

row 2.0 > "$tmp/base.json"

# --- happy path: identical reports pass in both modes -----------------
row 2.0 > "$tmp/same.json"
expect "identical reports pass" 0 "$tmp/same.json" "$tmp/base.json"
expect "identical reports fail --require-improvement" 1 \
    --require-improvement "$tmp/same.json" "$tmp/base.json"
row 2.5 > "$tmp/better.json"
expect "improved report passes --require-improvement" 0 \
    --require-improvement "$tmp/better.json" "$tmp/base.json"

# --- regression thresholds -------------------------------------------
row 1.0 > "$tmp/half.json" # 50% of baseline
expect "50% regression fails the default 25% gate" 1 \
    "$tmp/half.json" "$tmp/base.json"
expect "50% regression passes --max-regression 60" 0 \
    --max-regression 60 "$tmp/half.json" "$tmp/base.json"
row 1.7 > "$tmp/slight.json" # 85% of baseline
expect "15% regression passes the default gate" 0 \
    "$tmp/slight.json" "$tmp/base.json"
expect "15% regression fails --max-regression 10" 1 \
    --max-regression 10 "$tmp/slight.json" "$tmp/base.json"
expect "non-numeric --max-regression is a usage error" 2 \
    --max-regression lots "$tmp/same.json" "$tmp/base.json"

# --- missing rows ----------------------------------------------------
: > "$tmp/empty.json"
expect "baseline row missing from new report fails" 1 \
    "$tmp/empty.json" "$tmp/base.json"

# --- optional fields: unknown ones ignored, absent ones warn ---------
row 2.0 ', "future_field": 7' > "$tmp/extra.json"
expect "unknown extra field is ignored" 0 "$tmp/extra.json" "$tmp/base.json"

# Server loadtest rows carry per-tenant latency percentiles: a nested
# array of objects plus a worst_tenant_p99_ms scalar, neither of which
# is a *_speedup key. The gate must neither choke on the nesting nor
# mistake the latency numbers for comparable metrics.
row 2.0 ', "worst_tenant_p99_ms": 41.5, "tenant_latency": [{"tenant": 0, "p50_ms": 3.2, "p99_ms": 41.5}, {"tenant": 1, "p50_ms": 2.9, "p99_ms": 17.0}]' \
    > "$tmp/tenantlat.json"
expect "server per-tenant latency fields are ignored" 0 \
    "$tmp/tenantlat.json" "$tmp/base.json"
expect_grep "latency fields never become compared metrics" \
    "geometric mean of 1 speedup" "$tmp/tenantlat.json" "$tmp/base.json"

# --- disarmed-hook cost: 0.1% of the cheapest forward -----------------
# fwd TELEMETRY_HOOK TRACE_HOOK: a forward report whose cheapest row
# costs 5000 ns (bound 5 ns); an empty hook argument omits the field.
fwd() {
    if [ -n "$1" ]; then printf '  "telemetry_hook_ns_per_op": %s,\n' "$1"; fi
    if [ -n "$2" ]; then printf '  "trace_hook_ns_per_op": %s,\n' "$2"; fi
    printf '{"arch": "vgg", "input": "shapes32", "engine_ns_per_query": 20000.0, "x_speedup": 2.0}\n'
    printf '{"arch": "mlp", "input": "shapes32", "engine_ns_per_query": 5000.0, "x_speedup": 2.0}\n'
}
fwd "" "" > "$tmp/fwd-base.json"

fwd "" "" > "$tmp/nohook.json"
expect "forward report without hook fields passes" 0 \
    "$tmp/nohook.json" "$tmp/fwd-base.json"
expect_grep "absent optional hook field warns" \
    "warn.*trace_hook_ns_per_op" "$tmp/nohook.json" "$tmp/fwd-base.json"

fwd 1.3 5.0 > "$tmp/cheaphook.json"
expect "hooks within 0.1% of the cheapest forward pass" 0 \
    "$tmp/cheaphook.json" "$tmp/fwd-base.json"

fwd 1.3 5.1 > "$tmp/hottrace.json"
expect "trace hook over 0.1% of the cheapest forward fails" 1 \
    "$tmp/hottrace.json" "$tmp/fwd-base.json"

# 7 ns is under 0.1% of the first row (20 ns) but over the cheapest's.
fwd 7.0 1.7 > "$tmp/hottelemetry.json"
expect "telemetry hook over 0.1% of the cheapest forward fails" 1 \
    "$tmp/hottelemetry.json" "$tmp/fwd-base.json"

# --- hard floors -----------------------------------------------------
printf '{"bench": "t", "arch": "densenet-small", "input": "shapes32", "engine_speedup": 0.8}\n' \
    > "$tmp/slowengine.json"
printf '{"bench": "t", "arch": "densenet-small", "input": "shapes32", "engine_speedup": 0.8}\n' \
    > "$tmp/slowengine-base.json"
expect "densenet engine_speedup < 1.0 always fails" 1 \
    "$tmp/slowengine.json" "$tmp/slowengine-base.json"

if [ "$failures" -gt 0 ]; then
    echo "test_bench_gate: $failures case(s) failed" >&2
    exit 1
fi
echo "test_bench_gate: all cases passed"
