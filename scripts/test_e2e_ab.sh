#!/usr/bin/env sh
# Self-test for scripts/e2e_ab.sh's summary, run on canned e2ebench
# summary lines: a clear win, a change better in only 8 of 10 pairs, a
# median gap inside the parent's spread, a win over too few pairs, a
# quality mismatch, lines without the quality figures and a run with
# failed items. Runs nothing but the summary.
#
# Usage: scripts/test_e2e_ab.sh   (exit 0 iff every case behaves)
set -eu

ab=$(dirname "$0")/e2e_ab.sh
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

failures=0
# expect NAME EXPECTED_STATUS PATTERN ARGS...: run the summary; the exit
# status must match and so must the output.
expect() {
    name=$1
    want=$2
    pat=$3
    shift 3
    got=0
    out=$(sh "$ab" "$@" 2>&1) || got=$?
    if [ "$got" -eq "$want" ] && echo "$out" | grep -q -- "$pat"; then
        echo "ok       $name"
    else
        echo "FAIL     $name: expected exit $want and '$pat', got exit $got"
        echo "$out" | sed 's/^/         | /'
        failures=$((failures + 1))
    fi
}

# line ITEMS_PER_S [AVG_QUERIES [FAILED]]: one run's summary line.
line() {
    printf '{"correct": %s, "attempted": 40, "failed": %s, "metrics": {' \
        "$([ "${3:-0}" -eq 0 ] && echo true || echo false)" "${3:-0}"
    printf '"setup_s": {"value": 1.5, "unit": "s"}, '
    printf '"items_per_s": {"value": %s, "unit": "1/s"}, ' "$1"
    printf '"item_ms_p50": {"value": %s, "unit": "ms"}, ' "$(awk "BEGIN { print 1000 / $1 }")"
    printf '"candidates_per_s": {"value": 70000, "unit": "1/s"}, '
    printf '"avg_queries": {"value": %s, "unit": "count"}, ' "${2:-387.3333333333333}"
    printf '"success_rate": {"value": 0.07894736842105263, "unit": "ratio"}, '
    printf '"peak_rss_mb": {"value": 25.5, "unit": "MiB"}}}\n'
}

# case_dir NAME PARENT_RATES CHANGE_RATES: a directory of canned pairs,
# one per rate.
case_dir() {
    mkdir -p "$tmp/$1"
    for r in $2; do line "$r"; done > "$tmp/$1/parent.jsonl"
    for r in $3; do line "$r"; done > "$tmp/$1/change.jsonl"
}

case_dir win "65 61 68 66 64 67 63 62 69 65" "79 75 81 80 78 82 77 76 81 79"
expect "a clear win shows the claimed gain" 0 "claim items_per_s: gain shown" \
    --summary "$tmp/win" --claim items_per_s
expect "the table carries medians, quartiles, change and wins" 0 \
    "items_per_s  *65 \[63.25, 66.75\]  *79 \[77.25, 80.75\]  *+21.5%  10/10" \
    --summary "$tmp/win"
expect "a lower-is-better metric counts lower values as wins" 0 \
    "item_ms_p50 .* 10/10" --summary "$tmp/win"

case_dir eight "65 61 68 66 64 67 63 62 69 65" "79 75 81 80 78 82 77 76 60 60"
expect "8 of 10 pairs is no gain" 3 "claim items_per_s: gain NOT shown (change better in 8 of 10" \
    --summary "$tmp/eight" --claim items_per_s
expect "without a claim, 8 of 10 pairs only report" 0 "items_per_s .* 8/10" \
    --summary "$tmp/eight"

case_dir inside "60 70 55 75 65 58 72 62 68 66" "67 72 66 76 67 66 73 68 69 67"
expect "a median gap inside the parent IQR is no gain" 3 "gain NOT shown (change better in 10 of 10.*<= the parent IQR" \
    --summary "$tmp/inside" --claim items_per_s

case_dir short "65 61 68" "79 75 81"
expect "3 of 3 pairs is too few to show a gain" 3 "gain NOT shown (change better in 3 of 3 pairs" \
    --summary "$tmp/short" --claim items_per_s

case_dir bare "65 61 68 66 64 67 63 62 69 65" "79 75 81 80 78 82 77 76 81 79"
for side in parent change; do
    sed 's/"avg_queries": {[^}]*}, //; s/"success_rate": {[^}]*}, //' \
        "$tmp/bare/$side.jsonl" > "$tmp/bare/$side.new"
    mv "$tmp/bare/$side.new" "$tmp/bare/$side.jsonl"
done
expect "lines without avg_queries fail" 1 "pair 1, avg_queries missing" \
    --summary "$tmp/bare"
expect "lines without success_rate fail" 1 "pair 1, success_rate missing" \
    --summary "$tmp/bare"

case_dir quality "65 61 68 66 64 67 63 62 69 65" "79 75 81 80 78 82 77 76 81 79"
line 79 390.5 > "$tmp/odd.jsonl"
sed -n '1,3p' "$tmp/quality/change.jsonl" > "$tmp/head.jsonl"
sed -n '5,10p' "$tmp/quality/change.jsonl" > "$tmp/tail.jsonl"
cat "$tmp/head.jsonl" "$tmp/odd.jsonl" "$tmp/tail.jsonl" > "$tmp/quality/change.jsonl"
expect "a quality mismatch fails" 1 "pair 4, avg_queries differs: parent 387.3333333333333, change 390.5" \
    --summary "$tmp/quality" --claim items_per_s

case_dir failed "65 61 68 66 64 67 63 62 69 65" "79 75 81 80 78 82 77 76 81 79"
line 65 387.3333333333333 2 > "$tmp/failed/parent.jsonl.new"
sed -n '2,10p' "$tmp/failed/parent.jsonl" >> "$tmp/failed/parent.jsonl.new"
mv "$tmp/failed/parent.jsonl.new" "$tmp/failed/parent.jsonl"
expect "a run with failed items fails" 1 "pair 1, parent run is not correct" \
    --summary "$tmp/failed"
expect "a run with failed items names the count" 1 "pair 1, parent run has 2 failed items" \
    --summary "$tmp/failed"

mkdir -p "$tmp/uneven"
line 65 > "$tmp/uneven/parent.jsonl"
: > "$tmp/uneven/change.jsonl"
expect "unequal run counts are a usage error" 2 "need equal, nonzero counts" \
    --summary "$tmp/uneven"
expect "an unknown claimed metric is a usage error" 2 "not an end-to-end metric" \
    --summary "$tmp/win" --claim speed

if [ "$failures" -gt 0 ]; then
    echo "test_e2e_ab: $failures case(s) failed" >&2
    exit 1
fi
echo "test_e2e_ab: all cases passed"
