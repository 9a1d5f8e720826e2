#!/bin/sh
# Fixture tests for tools/perf_diff.py.
#
# A report-only tool must still say the right thing: each metric's move is
# measured in its own "worse" direction and flagged only beyond its bound,
# a metric the trajectory lacks is named as such, and the tool exits 0
# whatever it flags. Unreadable or malformed input exits 2 with one line
# naming the file, never a Python traceback. Wired as a ctest (see
# tests/CMakeLists.txt) when a python3 is on PATH.
#
# Usage: test_perf_diff.sh <path-to-perf_diff.py>
set -u

TOOL=${1:?usage: $0 <perf_diff.py>}
PYTHON=${PYTHON:-python3}
TMP=$(mktemp -d) || exit 1
trap 'rm -rf "$TMP"' EXIT

failures=0

fail() {
    echo "FAIL $1" >&2
    echo "$2" | sed 's/^/    /' >&2
    failures=$((failures + 1))
}

# run <want_status> -- cmd...: runs cmd, sets $out, checks the exit status
# and that no traceback leaked.
run() {
    want=$1
    shift 2
    out=$("$@" 2>&1)
    got=$?
    if [ "$got" -ne "$want" ]; then
        fail "$case: exit $got, wanted $want" "$out"
        return 1
    fi
    if printf '%s' "$out" | grep -qF "Traceback"; then
        fail "$case: printed a traceback" "$out"
        return 1
    fi
    return 0
}

# row <metric> <regex>: the metric's row must match the extended regex.
row() {
    line=$(printf '%s\n' "$out" | grep -E "^$1 ")
    if ! printf '%s' "$line" | grep -qE -- "$2"; then
        fail "$case: row '$1' does not match '$2'" "$out"
        return 1
    fi
    return 0
}

cat > "$TMP/BENCHMARK.json" <<'EOF'
{
  "command": ["true"],
  "paths": [],
  "workloads": [{"name": "w", "why": "fixture"}],
  "end_to_end": [
    {"name": "campaign_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cell_ms.p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "warm_cells_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "top_cell_ms.p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
  ]
}
EOF
# Two lines: only the last one's change medians are the reference.
cat > "$TMP/trajectory.jsonl" <<'EOF'
{"change": {"w/campaign_s": 100.0, "w/cell_ms.p50": 100.0}}
{"parent": {"w/setup_s": 1.0}, "change": {"w/campaign_s": 1.0, "w/cell_ms.p50": 2.0, "w/warm_cells_per_s": 1000.0, "w/top_cell_ms.p50": 4.0, "other/setup_s": 1.0}}
EOF
# perfbench's stdout: metric lines, then the result object on the last line.
cat > "$TMP/result.txt" <<'EOF'
campaign_s 1.5 s
{"correct": true, "attempted": 10, "failed": 0, "metrics": {"campaign_s": {"value": 1.5, "unit": "s"}, "cell_ms.p50": {"value": 2.2, "unit": "ms"}, "warm_cells_per_s": {"value": 600.0, "unit": "1/s"}, "top_cell_ms.p50": {"value": 2.0, "unit": "ms"}, "setup_s": {"value": 0.3, "unit": "s"}}}
EOF
printf 'campaign_s 1.5 s\n{"metrics": {"campaign_s": ' > "$TMP/truncated.txt"
printf 'not json at all{' > "$TMP/garbage.jsonl"

T="--trajectory $TMP/trajectory.jsonl --benchmark $TMP/BENCHMARK.json"

# shellcheck disable=SC2086
case=report_flags_and_exits_0
if run 0 -- "$PYTHON" "$TOOL" w "$TMP/result.txt" $T; then
    # lower is better, +50% against a 25% bound
    row campaign_s '\+50\.0%.*BEYOND BOUND' &&
    # higher is better, 1000 -> 600 is +40% worse
    row warm_cells_per_s '\+40\.0%.*BEYOND BOUND' &&
    # +10%: within the bound, no flag
    row cell_ms.p50 '\+10\.0% +25%$' &&
    # an improvement is a negative move
    row top_cell_ms.p50 '-50\.0% +25%$' &&
    # only other workloads and the parent side carry setup_s
    row setup_s 'no reference' &&
    row "2" 'metric\(s\) beyond bound' &&
    echo "ok   $case"
fi

case=whole_file_json_result
printf '%s\n' "$(tail -n 1 "$TMP/result.txt")" > "$TMP/result.json"
# shellcheck disable=SC2086
if run 0 -- "$PYTHON" "$TOOL" w "$TMP/result.json" $T; then
    row campaign_s 'BEYOND BOUND' && echo "ok   $case"
fi

# expect_bad <case> <file named> -- cmd...: exit 2, one line naming the file.
expect_bad() {
    case=$1 named=$2
    shift 2
    if run 2 "$@"; then
        if [ "$(printf '%s\n' "$out" | wc -l)" -ne 1 ] ||
           ! printf '%s' "$out" | grep -qF -- "$named"; then
            fail "$case: wanted one line naming $named" "$out"
        else
            echo "ok   $case"
        fi
    fi
}

# shellcheck disable=SC2086
expect_bad malformed_result "$TMP/truncated.txt" -- \
    "$PYTHON" "$TOOL" w "$TMP/truncated.txt" $T
# shellcheck disable=SC2086
expect_bad missing_result "$TMP/absent.txt" -- \
    "$PYTHON" "$TOOL" w "$TMP/absent.txt" $T
expect_bad malformed_trajectory "$TMP/garbage.jsonl" -- \
    "$PYTHON" "$TOOL" w "$TMP/result.txt" \
    --trajectory "$TMP/garbage.jsonl" --benchmark "$TMP/BENCHMARK.json"
expect_bad malformed_benchmark "$TMP/garbage.jsonl" -- \
    "$PYTHON" "$TOOL" w "$TMP/result.txt" \
    --trajectory "$TMP/trajectory.jsonl" --benchmark "$TMP/garbage.jsonl"
# shellcheck disable=SC2086
expect_bad unknown_workload "$TMP/BENCHMARK.json" -- \
    "$PYTHON" "$TOOL" nosuch "$TMP/result.txt" $T

if [ "$failures" -ne 0 ]; then
    echo "$failures perf_diff test(s) failed" >&2
    exit 1
fi
echo "all perf_diff tests passed"
