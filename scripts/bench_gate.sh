#!/usr/bin/env sh
# Gates a freshly measured forward_bench report against a committed
# baseline. Absolute nanoseconds depend on the machine, so the gate
# compares only the relative `*_speedup` ratios (engine vs. tape,
# incremental vs. full forward, batched vs. sequential delta), which
# divide machine speed out.
#
# Individual rows are noisy at the short CI config (single ratios swing
# by 2x run-to-run on one machine), but a real regression — losing a
# fast path rather than a scheduler hiccup — drags every row down at
# once. So per-row drops only warn; the gate FAILS when the geometric
# mean of new/baseline ratios across a report drops more than the
# allowed regression (25% by default, tightened/loosened with
# --max-regression PCT — CI's server job gates metrics overhead at 5),
# or when a baseline row is missing from the new report.
#
# With --require-improvement the gate flips from regression detection to
# improvement enforcement: the geometric mean of new/baseline ratios must
# come out strictly above 1.0 or the gate FAILS. CI uses this mode to
# compare a SIMD-enabled run against a scalar (`OPPSLA_NO_SIMD=1`) run of
# the same build on the same runner, proving the fast kernels actually
# pay for themselves rather than merely not regressing.
#
# Independently of mode, any `engine_speedup` row for densenet-small in
# the NEW report must be >= 1.0: the compiled engine losing to the naive
# tape on any architecture means a dispatch route picked the wrong
# kernel, which no amount of run-to-run noise excuses.
#
# Usage: scripts/bench_gate.sh [--require-improvement] [--max-regression PCT] \
#            NEW.json BASELINE.json
# e.g.:  scripts/bench_gate.sh fresh/BENCH_batched.json BENCH_batched.json
#
# The reports are the one-row-per-line JSON emitted by the bench
# binaries; parsing sticks to POSIX awk so the gate runs anywhere sh
# does. Fields the gate does not know about are ignored: a report from a
# newer binary may carry extra fields, and a report *missing* an
# optional field the gate can check (like trace_hook_ns_per_op) warns
# instead of failing — older binaries' reports stay gateable.
set -eu

require=0
maxreg=25
while :; do
    case "${1:-}" in
        --require-improvement)
            require=1
            shift
            ;;
        --max-regression)
            maxreg=${2:?--max-regression needs a percentage}
            shift 2
            ;;
        *)
            break
            ;;
    esac
done
case "$maxreg" in
    ''|*[!0-9]*)
        echo "bench_gate: --max-regression expects an integer percentage, got '$maxreg'" >&2
        exit 2
        ;;
esac
if [ $# -ne 2 ]; then
    echo "usage: $0 [--require-improvement] [--max-regression PCT] NEW.json BASELINE.json" >&2
    exit 2
fi
new=$1
base=$2
[ -r "$new" ] || { echo "bench_gate: cannot read $new" >&2; exit 2; }
[ -r "$base" ] || { echo "bench_gate: cannot read $base" >&2; exit 2; }

# Zero-cost-when-off gate for the trace hooks: a forward report built
# without the `trace` feature must report the disarmed query hook as an
# exact 0.0 ns — anything else means the hooks stopped compiling out.
# The field is optional (older binaries never wrote it): a report that
# does not carry it at all only warns, so the gate keeps working on
# reports from binaries that predate — or postdate — the field.
if grep -q '"trace_enabled": false' "$new"; then
    if ! grep -q '"trace_hook_ns_per_op"' "$new"; then
        echo "warn     $new has trace_enabled: false but no trace_hook_ns_per_op field (optional; skipping the zero-cost check)"
    elif ! grep -q '"trace_hook_ns_per_op": 0.0' "$new"; then
        echo "FAIL     trace feature is off but trace_hook_ns_per_op is nonzero in $new" >&2
        exit 1
    fi
fi

awk -v newfile="$new" -v basefile="$base" -v require="$require" -v maxreg="$maxreg" '
function extract(line, field,    tmp) {
    tmp = line
    sub(".*\"" field "\": *\"", "", tmp)
    sub("\".*", "", tmp)
    return tmp
}
function scan(file, vals,    line, arch, input, rest, pair, k, a) {
    while ((getline line < file) > 0) {
        if (line !~ /"arch"/) continue
        arch = extract(line, "arch")
        input = extract(line, "input")
        rest = line
        while (match(rest, /"[a-z_]*_speedup": *-?[0-9.eE+]+/)) {
            pair = substr(rest, RSTART, RLENGTH)
            rest = substr(rest, RSTART + RLENGTH)
            split(pair, a, /: */)
            k = a[1]
            gsub(/"/, "", k)
            vals[arch "|" input "|" k] = a[2] + 0
        }
    }
    close(file)
}
BEGIN {
    scan(basefile, basevals)
    scan(newfile, newvals)
    floor = 1 - maxreg / 100
    status = 0
    compared = 0
    logsum = 0
    for (key in basevals) {
        if (!(key in newvals)) {
            printf "MISSING  %s (in baseline, not in %s)\n", key, newfile
            status = 1
            continue
        }
        b = basevals[key]
        n = newvals[key]
        if (b <= 0 || n <= 0) continue
        compared++
        ratio = n / b
        logsum += log(ratio)
        if (ratio < floor) {
            printf "WARN     %-60s %.3f -> %.3f (%.0f%% of baseline)\n", key, b, n, ratio * 100
        } else if (ratio < 1.0) {
            printf "warn     %-60s %.3f -> %.3f (%.0f%% of baseline)\n", key, b, n, ratio * 100
        } else {
            printf "ok       %-60s %.3f -> %.3f\n", key, b, n
        }
    }
    # The engine must never lose to the naive tape: a sub-1.0
    # engine_speedup on densenet-small is a routing bug, not noise.
    for (key in newvals) {
        if (key ~ /^densenet-small\|/ && key ~ /\|engine_speedup$/ && newvals[key] < 1.0) {
            printf "FAIL     %-60s %.3f < 1.0 (engine slower than tape)\n", key, newvals[key]
            status = 1
        }
    }
    if (compared == 0) {
        print "bench_gate: no comparable *_speedup metrics found" > "/dev/stderr"
        exit 1
    }
    geomean = exp(logsum / compared)
    if (require && geomean <= 1.0) {
        printf "FAIL     geometric mean of %d speedup ratios is %.0f%% of baseline (improvement required)\n", compared, geomean * 100
        status = 1
    } else if (geomean < floor) {
        printf "FAIL     geometric mean of %d speedup ratios is %.0f%% of baseline (>%d%% regression)\n", compared, geomean * 100, maxreg
        status = 1
    } else if (geomean < 1.0) {
        printf "WARN     geometric mean of %d speedup ratios is %.0f%% of baseline\n", compared, geomean * 100
    } else {
        printf "OK       geometric mean of %d speedup ratios is %.0f%% of baseline\n", compared, geomean * 100
    }
    exit status
}
'
