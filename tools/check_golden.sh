#!/bin/sh
# Golden check of the paper's outputs, wired as the `check_golden` ctest
# (see bench/CMakeLists.txt).
#
# Runs the given bench binaries in a fresh working directory (each one
# writes its CSVs to ./bench_results/) and compares every
# tests/golden/*.csv byte for byte with the CSV of the same name. Under
# -DNASHLB_OBS=OFF the histograms compile out and bench_sim_validation
# writes no sim_sojourn_quantiles.csv, so that golden alone is skipped.
#
# A change that moves a golden regenerates it in the same commit and
# says which rows moved and why.
#
# Usage: tools/check_golden.sh <golden-dir> <work-dir> <obs ON|OFF> <bench>...
set -u

if [ "$#" -lt 4 ]; then
    echo "usage: $0 <golden-dir> <work-dir> <obs ON|OFF> <bench>..." >&2
    exit 2
fi
golden=$1
work=$2
obs=$(printf '%s' "$3" | tr 'A-Z' 'a-z')
shift 3

rm -rf "$work" && mkdir -p "$work" && cd "$work" || exit 1
status=0
for bench in "$@"; do
    log=$(basename "$bench").log
    if ! "$bench" > "$log" 2>&1; then
        echo "check_golden: FAIL: $bench exited non-zero (see $work/$log)" >&2
        status=1
    fi
done

checked=0
for want in "$golden"/*.csv; do
    name=$(basename "$want")
    case "$obs" in
        off|0|false|no|n)
            [ "$name" = sim_sojourn_quantiles.csv ] && continue ;;
    esac
    if [ ! -f "bench_results/$name" ]; then
        echo "check_golden: FAIL: no bench wrote bench_results/$name" >&2
        status=1
    elif ! cmp -s "$want" "bench_results/$name"; then
        echo "check_golden: FAIL: bench_results/$name differs from its golden" >&2
        cmp "$want" "bench_results/$name" >&2
        status=1
    fi
    checked=$((checked + 1))
done

if [ "$status" -eq 0 ]; then
    echo "check_golden: OK ($checked CSVs byte-identical to $golden)"
fi
exit "$status"
