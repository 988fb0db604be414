#!/usr/bin/env sh
# A/B-measures one e2ebench workload on two checkouts (a parent and a
# change) and summarizes it the way BENCHMARK.json judges a change.
#
# Usage:
#   scripts/e2e_ab.sh [--claim METRIC] PARENT_DIR CHANGE_DIR WORKLOAD FIRST_SEED PAIRS
#   scripts/e2e_ab.sh --summary DIR [--claim METRIC]
#
# The first form builds e2ebench in each checkout, then runs PAIRS pairs
# one run at a time, on seeds FIRST_SEED, FIRST_SEED+1, ...: the parent
# first on odd seeds, the change first on even ones, so drift in the
# host's speed favours neither side. Each run lasts BENCHMARK.json's
# `run_seconds` and starts from its own checkout root with
# CARGO_TARGET_DIR unset, so each side builds and reads its own weight
# cache. The last line of each run (e2ebench's JSON summary) is kept in
# target/e2e-ab/WORKLOAD-sFIRST_SEED-xPAIRS/{parent,change}.jsonl, one
# line per pair in seed order, and the summary below runs on that
# directory. The second form summarizes such a directory again.
#
# The summary prints, for every end-to-end metric of BENCHMARK.json, each
# side's median [Q1, Q3] over the pairs, the change of the medians in %,
# and in how many pairs the change was better by the metric's `better`.
# With --claim METRIC it also prints whether the change shows a gain on
# METRIC: at least 10 pairs, better in at least 9 of 10 of them, and a
# median better than the parent's by more than the parent's
# interquartile range.
#
# Exit status: 0 when every run is correct and the quality figures
# agree; 1 when a run reports `correct: false` or `failed > 0`, a run
# fails to produce its summary line, or `avg_queries` or `success_rate`
# is missing from a run's line or differs between the sides of a pair;
# 3 when --claim names a gain the pairs do not show; 2 on a usage error.
# Quartiles interpolate linearly between order statistics.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
bench="$root/BENCHMARK.json"

usage() {
    sed -n '6,7p' "$0" | sed 's/^# *//' >&2
    exit 2
}

claim=""
summary_dir=""
while :; do
    case "${1:-}" in
        --claim)
            [ $# -ge 2 ] || usage
            claim=$2
            shift 2
            ;;
        --summary)
            [ $# -ge 2 ] || usage
            summary_dir=$2
            shift 2
            ;;
        -*) usage ;;
        *) break ;;
    esac
done

# summarize DIR: the summary and verdicts of DIR/{parent,change}.jsonl.
summarize() {
    awk -v claim="$claim" -v benchfile="$bench" \
        -v parentfile="$1/parent.jsonl" -v changefile="$1/change.jsonl" '
    function value(line, name,    re) {
        # "NAME": {"value": V -- the value starts 14 characters past NAME.
        re = "\"" name "\": \\{\"value\": [^,}]*"
        if (!match(line, re)) return ""
        return substr(line, RSTART + length(name) + 14, RLENGTH - length(name) - 14)
    }
    function sorted(src, n, dst,    i, j, v) {
        for (i = 1; i <= n; i++) {
            v = src[i] + 0
            for (j = i - 1; j >= 1 && dst[j] > v; j--) dst[j + 1] = dst[j]
            dst[j + 1] = v
        }
    }
    function quantile(s, n, q,    h, lo) {
        h = (n - 1) * q + 1
        lo = int(h)
        if (lo >= n) return s[n]
        return s[lo] + (h - lo) * (s[lo + 1] - s[lo])
    }
    function read_side(file, side,    line, n) {
        n = 0
        while ((getline line < file) > 0) {
            n++
            runs[side, n] = line
        }
        close(file)
        return n
    }
    BEGIN {
        # End-to-end metrics and their directions, in BENCHMARK.json order.
        while ((getline line < benchfile) > 0) {
            if (line ~ /"end_to_end"/) in_e2e = 1
            else if (in_e2e && line ~ /^  \]/) in_e2e = 0
            else if (in_e2e && line ~ /"name":/) {
                split(line, f, "\"")
                metrics[++m] = f[4]
            } else if (in_e2e && line ~ /"better":/) {
                split(line, f, "\"")
                better[metrics[m]] = f[4]
            }
        }
        close(benchfile)
        if (m == 0) { print "e2e_ab: no end-to-end metrics in " benchfile > "/dev/stderr"; exit 2 }

        np = read_side(parentfile, "parent")
        nc = read_side(changefile, "change")
        if (np == 0 || np != nc) {
            printf "e2e_ab: %d parent and %d change runs; need equal, nonzero counts\n", np, nc > "/dev/stderr"
            exit 2
        }
        n = np
        status = 0
        for (i = 1; i <= n; i++) {
            for (s = 0; s < 2; s++) {
                side = s ? "change" : "parent"
                line = runs[side, i]
                if (line !~ /"correct": true/) {
                    printf "e2e_ab: FAIL: pair %d, %s run is not correct\n", i, side
                    status = 1
                }
                if (match(line, /"failed": [0-9]+/) && substr(line, RSTART + 10, RLENGTH - 10) + 0 > 0) {
                    printf "e2e_ab: FAIL: pair %d, %s run has %s failed items\n", i, side, substr(line, RSTART + 10, RLENGTH - 10)
                    status = 1
                }
            }
            for (q = 1; q <= 2; q++) {
                name = q == 1 ? "avg_queries" : "success_rate"
                pval = value(runs["parent", i], name)
                cval = value(runs["change", i], name)
                if (pval == "" || cval == "") {
                    printf "e2e_ab: FAIL: pair %d, %s missing: parent \"%s\", change \"%s\"\n", i, name, pval, cval
                    status = 1
                } else if (pval != cval) {
                    printf "e2e_ab: FAIL: pair %d, %s differs: parent %s, change %s\n", i, name, pval, cval
                    status = 1
                }
            }
        }

        printf "%-16s %-30s %-30s %8s  %s\n", "metric", "parent median [Q1, Q3]", "change median [Q1, Q3]", "change", "change better"
        claimed = 0
        for (k = 1; k <= m; k++) {
            name = metrics[k]
            wins = 0
            for (i = 1; i <= n; i++) {
                pv[i] = value(runs["parent", i], name) + 0
                cv[i] = value(runs["change", i], name) + 0
                if (better[name] == "higher" ? cv[i] > pv[i] : cv[i] < pv[i]) wins++
            }
            sorted(pv, n, ps)
            sorted(cv, n, cs)
            pmed = quantile(ps, n, 0.5); pq1 = quantile(ps, n, 0.25); pq3 = quantile(ps, n, 0.75)
            cmed = quantile(cs, n, 0.5); cq1 = quantile(cs, n, 0.25); cq3 = quantile(cs, n, 0.75)
            pct = pmed != 0 ? sprintf("%+.1f%%", (cmed - pmed) / pmed * 100) : "n/a"
            printf "%-16s %-30s %-30s %8s  %d/%d\n", name,
                sprintf("%.6g [%.6g, %.6g]", pmed, pq1, pq3),
                sprintf("%.6g [%.6g, %.6g]", cmed, cq1, cq3), pct, wins, n
            if (name == claim) {
                claimed = 1
                claim_wins = wins
                gap = better[name] == "higher" ? cmed - pmed : pmed - cmed
                iqr = pq3 - pq1
            }
        }
        if (claim != "") {
            if (!claimed) {
                print "e2e_ab: --claim " claim " is not an end-to-end metric of " benchfile > "/dev/stderr"
                exit 2
            }
            shown = n >= 10 && claim_wins * 10 >= n * 9 && gap > iqr
            printf "claim %s: %s (change better in %d of %d pairs, 9 of 10 and at least 10 pairs needed; median gap %.6g %s the parent IQR %.6g)\n",
                claim, (shown ? "gain shown" : "gain NOT shown"), claim_wins, n, gap, (gap > iqr ? ">" : "<="), iqr
            if (status == 0 && !shown) status = 3
        }
        exit status
    }'
}

if [ -n "$summary_dir" ]; then
    [ $# -eq 0 ] || usage
    summarize "$summary_dir"
    exit $?
fi

[ $# -eq 5 ] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
first=$4
pairs=$5
case "$first$pairs" in
    *[!0-9]*) usage ;;
esac
[ "$pairs" -gt 0 ] || usage
seconds=$(awk -F: '/"run_seconds"/ { gsub(/[ ,]/, "", $2); print $2 }' "$bench")

out="$root/target/e2e-ab/$workload-s$first-x$pairs"
mkdir -p "$out"
: > "$out/parent.jsonl"
: > "$out/change.jsonl"

for dir in "$parent" "$change"; do
    echo "e2e_ab: building e2ebench in $dir" >&2
    (cd "$dir" && env -u CARGO_TARGET_DIR \
        cargo build --release --quiet --offline --manifest-path e2ebench/Cargo.toml)
done

# run SIDE DIR SEED: one run, its last line appended to SIDE.jsonl.
run() {
    echo "e2e_ab: $workload seed $3, $1" >&2
    if ! (cd "$2" && env -u CARGO_TARGET_DIR \
        cargo run --release --quiet --offline --manifest-path e2ebench/Cargo.toml -- \
        --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0) \
        > "$out/last.out" 2> "$out/last.err"; then
        echo "e2e_ab: FAIL: the $1 run on seed $3 failed; its output is in $out/last.*" >&2
        exit 1
    fi
    tail -n 1 "$out/last.out" >> "$out/$1.jsonl"
}

seed=$first
while [ "$seed" -lt $((first + pairs)) ]; do
    if [ $((seed % 2)) -eq 1 ]; then
        run parent "$parent" "$seed"
        run change "$change" "$seed"
    else
        run change "$change" "$seed"
        run parent "$parent" "$seed"
    fi
    seed=$((seed + 1))
done
rm -f "$out/last.out" "$out/last.err"

echo "e2e_ab: $workload, seeds $first-$((first + pairs - 1)), lines in $out"
summarize "$out"
