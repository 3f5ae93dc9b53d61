#!/usr/bin/env bash
# Compare freshly measured benchmark medians against committed baselines.
#
# Usage: bench_check.sh <fresh.json> [baseline.json]
#
# <fresh.json> holds one JSON record per line, as written by the criterion
# stand-in: {"id":...,"samples":...,"mean_ns":...,"median_ns":...,"nproc":...}
# (older files lack `nproc`; only `id` and `median_ns` are compared).
# The baseline defaults to the committed (HEAD) version of the same file,
# so running bench_smoke.sh in a dirty tree compares the new numbers
# against the ones checked in by the previous PR.
#
# A benchmark whose median regressed by more than 20% prints a WARN line.
# The exit code is always 0: timings on shared hosts are too noisy to gate
# merges on, so this is an informational tripwire, not a hard gate.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: $0 <fresh.json> [baseline.json]" >&2
    exit 2
fi
fresh="$1"
if [ ! -f "$fresh" ]; then
    echo "bench_check: no fresh results at $fresh" >&2
    exit 2
fi

cleanup=""
if [ $# -ge 2 ]; then
    baseline="$2"
    baseline_name="$baseline"
else
    # Default: the committed version of the same file.
    rel="$(basename "$fresh")"
    baseline="$(mktemp)"
    cleanup="$baseline"
    baseline_name="HEAD:$rel"
    if ! git -C "$(dirname "$0")/.." show "HEAD:$rel" > "$baseline" 2>/dev/null; then
        echo "bench_check: no committed baseline for $rel — skipping comparison"
        rm -f "$baseline"
        exit 0
    fi
fi

awk -v baseline_name="$baseline_name" '
    function get_id(line,    s) {
        if (match(line, /"id":"[^"]*"/)) { return substr(line, RSTART + 6, RLENGTH - 7) }
        return ""
    }
    function get_median(line) {
        if (match(line, /"median_ns":[0-9.]+/)) {
            return substr(line, RSTART + 12, RLENGTH - 12) + 0
        }
        return -1
    }
    NR == FNR { if (get_id($0) != "") { base[get_id($0)] = get_median($0) }; next }
    {
        id = get_id($0); med = get_median($0)
        if (id == "" || med < 0) { next }
        seen++
        if (id in base && base[id] > 0) {
            ratio = med / base[id]
            if (ratio > 1.20) {
                printf "WARN  %-44s median %.0f ns vs baseline %.0f ns (%.2fx)\n", id, med, base[id], ratio
                warned++
            } else {
                printf "ok    %-44s %.2fx vs baseline\n", id, ratio
            }
        } else {
            printf "new   %-44s %.0f ns (no baseline entry)\n", id, med
        }
    }
    END {
        if (warned > 0) {
            printf "bench_check: %d benchmark(s) regressed >20%% vs %s (informational)\n", warned, baseline_name
        } else if (seen > 0) {
            printf "bench_check: no >20%% regressions vs %s\n", baseline_name
        } else {
            print "bench_check: no parseable records in fresh results"
        }
    }
' "$baseline" "$fresh"

if [ -n "$cleanup" ]; then
    rm -f "$cleanup"
fi
exit 0
