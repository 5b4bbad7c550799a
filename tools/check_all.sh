#!/bin/sh
# Run every quality gate — the local equivalent of a full CI pass
# (docs/STATIC_ANALYSIS.md documents each gate). Order is cheapest first
# so a drift failure surfaces in seconds, not after two builds:
#
#    1. check_docs          README/docs drift, benches registered  (~0 s)
#    2. check_report        nashlb_report.py render/diff selftest  (~0 s)
#    3. check_analyzer      nashlb-analyzer repository rules       (~0 s)
#    4. check_bench         BENCH_*.json perf baselines  (SKIP if absent)
#    5. check_format        clang-format check-only      (SKIP if absent)
#    6. werror_build        full tree, warnings as errors (build-werror/)
#    7. check_tidy          clang-tidy over that tree    (SKIP if absent)
#    8. check_gcc_analyzer  GCC -fanalyzer over src/core + src/util
#                           (SKIP if -fanalyzer unsupported; ~12 s)
#    9. contract_suite      -DNASHLB_CHECK=ON + full ctest (build-check/)
#   10. obs_off_suite       -DNASHLB_OBS=OFF + ctest -LE slow
#                           (build-obsoff/)
#   11. check_sanitize      ASan+UBSan with contracts on   (build-asan/)
#   12. check_tsan          ThreadSanitizer over test_concurrency
#                           (build-tsan/)     (SKIP if TSan unsupported)
#   13. nashbench_selftest  builds the benchmark (nashbench/) against
#                           this tree in Release and runs its selftests
#                           (.bench_build/)
#
# Unlike a plain `set -e` chain, every step runs even after a failure —
# one broken gate must not hide the state of the others. The summary
# table at the end shows PASS/FAIL/SKIP and wall-clock per step; the
# script exits non-zero iff at least one non-SKIP step failed. A step
# exiting 77 is a SKIP (tool or baseline unavailable), matching the
# ctest SKIP_RETURN_CODE convention of the individual gates.
#
# Usage: tools/check_all.sh [repo-root]   (default: script's parent dir)
set -u

root=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
jobs=$(nproc 2> /dev/null || echo 4)

summary=""
failed=0

# run_step <name> <cmd...>: runs one gate, records PASS/FAIL/SKIP and
# elapsed wall-clock into the summary table. Exit 77 -> SKIP; any other
# nonzero -> FAIL (the script keeps going).
run_step() {
    step_name=$1
    shift
    printf '\n== check_all: %s ==\n' "$step_name"
    step_start=$(date +%s)
    "$@"
    step_rc=$?
    step_secs=$(( $(date +%s) - step_start ))
    if [ "$step_rc" -eq 0 ]; then
        step_verdict=PASS
    elif [ "$step_rc" -eq 77 ]; then
        step_verdict=SKIP
    else
        step_verdict=FAIL
        failed=1
        echo "check_all: FAIL in $step_name (continuing)" >&2
    fi
    summary="$summary$(printf '%-19s %-4s %6ss' \
        "$step_name" "$step_verdict" "$step_secs")
"
}

# Multi-command steps, wrapped so run_step can time and triage them.
werror_build() {
    cmake -B "$root/build-werror" -S "$root" -DNASHLB_WERROR=ON &&
    cmake --build "$root/build-werror" -j "$jobs"
}

contract_suite() {
    cmake -B "$root/build-check" -S "$root" \
      -DNASHLB_CHECK=ON -DNASHLB_WERROR=ON \
      -DNASHLB_BUILD_BENCH=OFF -DNASHLB_BUILD_EXAMPLES=OFF &&
    cmake --build "$root/build-check" -j "$jobs" &&
    # (subshell cd, not `ctest --test-dir`: that flag needs CMake >= 3.20
    # and the project supports 3.16)
    (cd "$root/build-check" && ctest --output-on-failure -j "$jobs")
}

# The observability layer compiled out: every instrument is its no-op
# twin. `-LE slow` leaves out check_tsan and check_gcc_analyzer, which
# rebuild from source whatever this tree's options are.
obs_off_suite() {
    cmake -B "$root/build-obsoff" -S "$root" \
      -DNASHLB_OBS=OFF -DNASHLB_BUILD_BENCH=OFF &&
    cmake --build "$root/build-obsoff" -j "$jobs" &&
    (cd "$root/build-obsoff" && ctest --output-on-failure -j "$jobs" -LE slow)
}

all_start=$(date +%s)

run_step check_docs "$root/tools/check_docs.sh" "$root"
run_step check_report python3 "$root/tools/nashlb_report.py" selftest
run_step check_analyzer python3 "$root/tools/nashlb_analyzer.py" "$root"
run_step check_bench python3 "$root/tools/check_bench.py" "$root"
run_step check_format "$root/tools/check_format.sh" "$root"
run_step werror_build werror_build
run_step check_tidy "$root/tools/check_tidy.sh" "$root" "$root/build-werror"
run_step check_gcc_analyzer "$root/tools/check_gcc_analyzer.sh" "$root"
run_step contract_suite contract_suite
run_step obs_off_suite obs_off_suite
run_step check_sanitize "$root/tools/check_sanitize.sh" "$root"
run_step check_tsan "$root/tools/check_tsan.sh" "$root"
run_step nashbench_selftest python3 "$root/nashbench/run.py" --selftest

total_secs=$(( $(date +%s) - all_start ))
printf '\n== check_all: summary ==\n'
printf '%-19s %-4s %7s\n' step verdict elapsed
printf '%s' "$summary"
printf '%-19s %-4s %6ss\n' total '' "$total_secs"

if [ "$failed" -ne 0 ]; then
    echo "check_all: FAIL (one or more non-SKIP steps failed; see table)" >&2
    exit 1
fi
echo "check_all: OK (SKIP rows, if any, mean tool or baseline unavailable)"
exit 0
